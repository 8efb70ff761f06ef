import json

import numpy as np
import pytest

from diamondstab import msform
from diamondstab.integrator import MeshParams, MeshState, total_energy
from diamondstab.msform import (
    FormValidationError,
    MultiSymplecticForm,
    PolynomialTerm,
    UnknownFormError,
    eval_grad_S,
    eval_jac_S,
    eval_S,
    linearize,
    load_form_json,
    registry_get,
    registry_names,
    validate_form,
)


def fd_jacobian(form, z, h=1e-6):
    d = form.d
    out = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        out[:, j] = (eval_grad_S(form, z + e) - eval_grad_S(form, z - e)) / (2 * h)
    return out


def test_registry_has_all_forms():
    names = set(registry_names())
    assert names == {
        "wave", "linear_kg", "mixed_kg", "advection", "kdv", "camassa_holm",
        "bbm", "hunter_saxton_1", "hunter_saxton_2", "improved_boussinesq",
        "ostrovsky", "good_boussinesq", "dirac", "nls",
    }


@pytest.mark.parametrize("name", registry_names())
def test_registry_forms_validate(name):
    report = validate_form(registry_get(name))
    assert report.ok, report.issues


def test_wave_matrices_exact():
    f = registry_get("wave")
    assert f.names == ("u", "v", "w")
    np.testing.assert_array_equal(f.K, [[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    np.testing.assert_array_equal(f.L, [[0, 0, 1], [0, 0, 0], [-1, 0, 0]])
    np.testing.assert_array_equal(f.P, np.diag([0.0, 1.0, -1.0]))
    assert f.terms == ()


def test_kdv_structure():
    f = registry_get("kdv")
    assert f.d == 4 and f.names == ("psi", "u", "w", "p")
    assert f.K[0, 1] == 1.0 and f.K[1, 0] == -1.0
    assert f.L[0, 3] == 1.0 and f.L[1, 2] == -2.0 and f.L[2, 1] == 2.0 and f.L[3, 0] == -1.0
    assert f.P[1, 3] == -1.0 and f.P[2, 2] == 2.0
    assert f.terms == (PolynomialTerm(2, 1.0, (0, 2, 0, 0)),)


def test_unknown_name_lists_available():
    with pytest.raises(UnknownFormError, match="wave"):
        registry_get("heat")


def test_skew_violation_reported_with_indices():
    f = registry_get("wave")
    K = f.K.copy()
    K[0, 0] = 1.0
    bad = MultiSymplecticForm("bad", f.names, K, f.L, f.P)
    report = validate_form(bad)
    assert not report.ok
    assert any("K not skew-symmetric at (0,0)" in msg for msg in report.issues)


def test_non_gradient_field_fails_exactness():
    # u^2 placed in row 1 only: Jacobian has a (1, u)-entry with no mirror
    f = registry_get("wave")
    bad = MultiSymplecticForm(
        "bad", f.names, f.K, f.L, np.zeros((3, 3)),
        terms=(PolynomialTerm(1, 1.0, (1, 1, 0)),),
    )
    report = validate_form(bad)
    assert not report.ok
    assert any("not exact" in msg for msg in report.issues)


def test_linearize_wave_is_identity_on_P():
    f = registry_get("wave")
    lin = linearize(f, np.zeros(3))
    np.testing.assert_array_equal(lin.Peff, f.P)


@pytest.mark.parametrize("name", registry_names())
def test_linearize_at_zero_drops_all_terms(name):
    f = registry_get(name)
    lin = linearize(f, np.zeros(f.d))
    np.testing.assert_allclose(lin.Peff, f.P, atol=0)


def test_linearize_nls_constant_amplitude_entries():
    rho = 1.7
    f = registry_get("nls")
    a = f.param("a")
    z_ref = np.array([np.sqrt(rho), 0.0, 0.0, 0.0])
    lin = linearize(f, z_ref)
    # pointwise Jacobian of (a p (p^2+q^2), a q (p^2+q^2)) at (sqrt(rho), 0)
    expected = np.diag([3 * a * rho, a * rho, 1.0, 1.0])
    np.testing.assert_allclose(lin.Peff, expected, atol=1e-12)
    np.testing.assert_allclose(lin.Peff, fd_jacobian(f, z_ref), rtol=1e-6, atol=1e-7)


def test_linearize_good_boussinesq_drops_quadratic():
    f = registry_get("good_boussinesq")
    lin = linearize(f, np.zeros(4))
    np.testing.assert_array_equal(lin.Peff, np.diag([-1.0, 0.0, 1.0, 1.0]))


def test_eval_grad_wave_hand_value():
    f = registry_get("wave")
    np.testing.assert_allclose(eval_grad_S(f, [1.0, 2.0, 3.0]), [0.0, 2.0, -3.0])


def test_eval_grad_zero_state_is_zero():
    for name in registry_names():
        f = registry_get(name)
        np.testing.assert_array_equal(eval_grad_S(f, np.zeros(f.d)), np.zeros(f.d))


def test_eval_grad_dirac_printed_rows():
    # at z = (1, 0, 0, 0) with m = lam = 1 the four original equations give
    # RHS rows (0, 1, 0, 0); the skew arrangement stores (-row2, row1, -row4, row3)
    f = registry_get("dirac")
    np.testing.assert_allclose(eval_grad_S(f, [1.0, 0.0, 0.0, 0.0]), [-1.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("name", registry_names())
def test_jacobian_symmetric_at_random_points(name):
    f = registry_get(name)
    rng = np.random.default_rng(7)
    for _ in range(100):
        z = rng.standard_normal(f.d)
        J = eval_jac_S(f, z)
        assert np.abs(J - J.T).max() < 1e-12 * max(1.0, np.abs(J).max())


@pytest.mark.parametrize("name", registry_names())
def test_scalar_potential_matches_gradient(name):
    f = registry_get(name)
    rng = np.random.default_rng(11)
    for _ in range(10):
        z = 0.5 * rng.standard_normal(f.d)
        h = 1e-6
        g_fd = np.empty(f.d)
        for j in range(f.d):
            e = np.zeros(f.d)
            e[j] = h
            g_fd[j] = (eval_S(f, z + e) - eval_S(f, z - e)) / (2 * h)
        np.testing.assert_allclose(eval_grad_S(f, z), g_fd, rtol=1e-5, atol=1e-6)


def _random_potential_form(rng, d):
    """A form whose gradient is that of a random polynomial S of degree 2..4,
    written into P and terms by exponent arithmetic; returns it and S."""
    monomials = []
    for _ in range(rng.integers(3, 9)):
        alpha = np.zeros(d, dtype=int)
        for j in rng.integers(0, d, size=rng.integers(2, 5)):
            alpha[j] += 1
        monomials.append((float(rng.uniform(-2.0, 2.0)), alpha))
    P = np.zeros((d, d))
    terms = []
    for a, alpha in monomials:
        for j in np.flatnonzero(alpha):
            rest = alpha.copy()
            rest[j] -= 1  # d/dz_j of z^alpha is alpha_j z^(alpha - e_j)
            if rest.sum() == 1:
                P[j, np.flatnonzero(rest)[0]] += a * alpha[j]
            else:
                terms.append(PolynomialTerm(int(j) + 1, a * alpha[j], tuple(int(e) for e in rest)))
    K = np.triu(rng.standard_normal((d, d)), 1)
    L = np.triu(rng.standard_normal((d, d)), 1)
    form = MultiSymplecticForm("random", tuple(f"z{i}" for i in range(d)), K - K.T, L - L.T, P, tuple(terms))

    def S(z):
        parts = np.stack([a * np.prod(z**alpha, axis=-1) for a, alpha in monomials])
        return parts.sum(axis=0), np.abs(parts).sum(axis=0)

    return form, S


def test_derived_potential_matches_random_polynomials():
    rng = np.random.default_rng(2015)
    for _ in range(60):
        d = int(rng.integers(2, 7))
        form, S = _random_potential_form(rng, d)
        assert validate_form(form).ok
        z = rng.standard_normal((50, d))
        expected, scale = S(z)
        assert np.all(np.abs(eval_S(form, z) - expected) <= 1e-12 * scale)
        # one point of shape (d,) alone
        assert eval_S(form, z[0]) == pytest.approx(expected[0], rel=1e-12, abs=1e-12 * scale[0])


@pytest.mark.parametrize("name", registry_names())
def test_json_roundtrip_keeps_total_energy(name, tmp_path):
    f = registry_get(name)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(msform.form_to_dict(f)))
    g = load_form_json(path)
    mesh = MeshParams(a=0.0, b=1.0, N=16, dt=0.1, T=0.1)
    values = 0.5 * np.random.default_rng(13).standard_normal((2 * mesh.N, f.d))
    assert total_energy(g, MeshState(values), mesh) == total_energy(f, MeshState(values), mesh)


def test_json_roundtrip_wave(tmp_path):
    f = registry_get("wave")
    path = tmp_path / "wave.json"
    path.write_text(json.dumps(msform.form_to_dict(f)))
    g = load_form_json(path)
    np.testing.assert_array_equal(g.K, f.K)
    np.testing.assert_array_equal(g.L, f.L)
    np.testing.assert_array_equal(g.P, f.P)
    assert g.terms == f.terms


def test_json_rejects_non_skew(tmp_path):
    f = registry_get("wave")
    data = msform.form_to_dict(f)
    data["K"][0][0] = 1.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(FormValidationError, match="skew"):
        load_form_json(path)


def test_json_missing_key_rejected(tmp_path):
    data = msform.form_to_dict(registry_get("wave"))
    del data["L"]
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="missing required key 'L'"):
        load_form_json(path)


def test_json_parse_error_carries_line():
    import tempfile, os
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        fh.write('{"d": 3,\n  "names": [}')
        path = fh.name
    try:
        with pytest.raises(ValueError, match="line 2"):
            load_form_json(path)
    finally:
        os.unlink(path)


def test_json_boussinesq_skeleton_plus_term(tmp_path):
    f = registry_get("good_boussinesq")
    data = msform.form_to_dict(f)
    data["terms"] = [{"row": 1, "coeff": -2.0, "exponents": [2, 0, 0, 0]}]
    path = tmp_path / "gb.json"
    path.write_text(json.dumps(data))
    g = load_form_json(path)
    assert g.terms == f.terms
    np.testing.assert_array_equal(g.P, f.P)


def test_forms_are_immutable():
    f = registry_get("wave")
    with pytest.raises(ValueError):
        f.K[0, 0] = 5.0
