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
    with pytest.raises(UnknownFormError, match="wave") as exc:
        registry_get("heat")
    # printed without the quotes KeyError puts around its message
    assert str(exc.value).startswith("unknown form 'heat'; available: ")


def test_missing_constant_names_the_form_and_its_constants(tmp_path):
    with pytest.raises(ValueError) as exc:
        registry_get("dirac").param("mass")
    assert str(exc.value) == "form 'dirac' has no constant mass; its constants: m, lam"
    # a JSON form written without params carries no constants
    data = msform.form_to_dict(registry_get("dirac"))
    path = tmp_path / "dirac.json"
    path.write_text(json.dumps({key: value for key, value in data.items() if key != "params"}))
    with pytest.raises(ValueError) as exc:
        load_form_json(path).param("m")
    assert str(exc.value) == "form 'dirac' has no constant m; its constants: none"
    # the copy form_to_dict writes keeps them
    path.write_text(json.dumps(data))
    copy = load_form_json(path)
    assert copy.params == registry_get("dirac").params and copy.param("m") == 1.0


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
    # S's monomial u^2 v gets 1/2 from row 1 and nothing from row 2
    assert report.issues == ("grad S is not exact: S's monomial u^2*v has coefficient 0.5 by row 1 but 0.0 by row 2",)


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


def _scaled_term(form, k, factor):
    terms = list(form.terms)
    terms[k] = PolynomialTerm(terms[k].row, terms[k].coeff * factor, terms[k].exponents)
    return MultiSymplecticForm(form.name, form.names, form.K, form.L, form.P, tuple(terms))


def _shares_its_monomial(term):
    # S's monomial e + e_row has a nonzero exponent outside the term's row
    return any(e for j, e in enumerate(term.exponents) if j != term.row - 1)


def test_jacobian_matches_central_differences_of_the_gradient():
    rng = np.random.default_rng(1818)
    registered = [registry_get(name) for name in registry_names()]
    drawn = [_random_potential_form(rng, int(rng.integers(2, 7)))[0] for _ in range(40)]
    for form in registered + drawn:
        for z in 0.5 * rng.standard_normal((5, form.d)):
            jac = eval_jac_S(form, z)
            assert np.abs(jac - fd_jacobian(form, z)).max() <= 1e-6 * max(1.0, np.abs(jac).max()), form.name


@pytest.mark.parametrize("rel", [1e-7, 1e-9])
def test_perturbed_coefficient_is_refused_where_its_monomial_is_shared(rel):
    rng = np.random.default_rng(1818)
    registered = [registry_get(name) for name in registry_names()]
    drawn = [_random_potential_form(rng, int(rng.integers(2, 7)))[0] for _ in range(40)]
    # every term of a registered form, one term of a drawn form
    cases = [(form, k) for form in registered for k in range(len(form.terms))]
    cases += [(form, int(rng.integers(len(form.terms)))) for form in drawn if form.terms]
    shared = 0
    for form, k in cases:
        report = validate_form(_scaled_term(form, k, 1.0 + rel))
        if _shares_its_monomial(form.terms[k]):
            shared += 1
            assert not report.ok and report.issues[0].startswith("grad S is not exact: S's monomial "), report
        else:
            assert report.ok, report
    assert 0 < shared < len(cases)


def test_not_exact_names_the_monomial_and_its_rows():
    # a |phi|^2 phi with one coefficient off: p^2 q^2 gets a/2 from row 2
    # (term p^2 q) and a different value from row 1 (term p q^2)
    report = validate_form(_scaled_term(registry_get("nls"), 1, 1.0000001))
    assert report.issues == (
        "grad S is not exact: S's monomial p^2*q^2 has coefficient 1.0000001 by row 1 but 1.0 by row 2",
    )


@pytest.mark.parametrize("upper, lower, ok", [
    (1.0, 1.0 + 1e-9, False),
    (0.3, 0.1 * 3, True),
    (1e300, 1e300 * (1 + 1e-9), False),
    (1.7e308, 1.7e308, True),
    (1.7e308, -1.7e308, False),
    (1e-300, 0.0, False),
])
def test_p_must_be_symmetric_to_rounding(upper, lower, ok):
    f = registry_get("wave")
    P = f.P.copy()
    P[0, 1], P[1, 0] = upper, lower
    report = validate_form(MultiSymplecticForm("p", f.names, f.K, f.L, P))
    assert report.issues == (() if ok else (
        f"grad S is not exact: S's monomial u*v has coefficient {upper} by row 1 but {lower} by row 2",
    ))


def test_decimal_coefficients_are_accepted(tmp_path):
    # S = 0.1 u^3 v + 0.7 u v^2 w: the coefficients written as decimals are
    # not the float products 3 * 0.1 or 2 * 0.7, and row 2 gives 1.4 as the
    # cancelling sum 2.1 - 0.7
    f = registry_get("wave")
    terms = (
        PolynomialTerm(1, 0.3, (2, 1, 0)), PolynomialTerm(2, 0.1, (3, 0, 0)),
        PolynomialTerm(1, 0.7, (0, 2, 1)), PolynomialTerm(2, 2.1, (1, 1, 1)),
        PolynomialTerm(2, -0.7, (1, 1, 1)), PolynomialTerm(3, 0.7, (1, 2, 0)),
    )
    assert 3 * 0.1 != 0.3 and 2.1 - 0.7 != 1.4
    form = MultiSymplecticForm("decimal", f.names, f.K, f.L, f.P, terms)
    assert validate_form(form).ok
    path = tmp_path / "decimal.json"
    path.write_text(json.dumps(msform.form_to_dict(form)))
    assert load_form_json(path).terms == terms
    # the same sums one part in 1e9 off are refused
    assert not validate_form(_scaled_term(form, 4, 1.0 + 1e-9)).ok


@pytest.mark.filterwarnings("error")
def test_exactness_check_refuses_an_overflowing_gradient():
    # finite coefficients whose Jacobian coefficients c * e_j overflow
    report = validate_form(registry_get("nls", a=1.7e308))
    assert report.issues == tuple(
        f"terms[{k}]: Jacobian coefficient 1.7e+308 * {e} is not finite" for k, e in enumerate((3, 2, 2, 3))
    )
    # the largest a whose Jacobian coefficients 3a stay finite passes
    assert validate_form(registry_get("nls", a=1.7e308 / 3)).ok


def _nls_json_with(tmp_path, keys, value):
    """The NLS form as a JSON file, with the entry at the key path ``keys``
    set to ``value``."""
    data = msform.form_to_dict(registry_get("nls"))
    entry = data
    for key in keys[:-1]:
        entry = entry[key]
    entry[keys[-1]] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("keys, where", [
    (("K", 0, 1), "K[0][1]"),
    (("L", 0, 2), "L[0][2]"),
    (("P", 2, 2), "P[2][2]"),
    (("terms", 2, "coeff"), "terms[2].coeff"),
])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_nonfinite_json_entry_is_named(keys, where, value, tmp_path):
    path = _nls_json_with(tmp_path, keys, value)
    with pytest.raises(FormValidationError) as info:
        load_form_json(path)
    assert str(info.value) == f"{where} = {value} is not finite"


@pytest.mark.parametrize("keys, value, where", [
    (("terms", 1, "exponents", 0), 3.5, "terms[1].exponents[0]"),
    (("terms", 1, "row"), 1.9, "terms[1].row"),
    (("terms", 1, "row"), True, "terms[1].row"),
    (("terms", 1, "exponents", 1), "2", "terms[1].exponents[1]"),
    (("d",), 4.5, "d"),
])
def test_non_integral_json_entry_is_refused(keys, value, where, tmp_path):
    path = _nls_json_with(tmp_path, keys, value)
    with pytest.raises(ValueError) as info:
        load_form_json(path)
    assert str(info.value) == f"{path}: {where} = {value!r} is not an integer"


@pytest.mark.parametrize("key", ["row", "coeff", "exponents"])
def test_json_term_without_key_is_named(key, tmp_path):
    term = msform.form_to_dict(registry_get("nls"))["terms"][0]
    del term[key]
    path = _nls_json_with(tmp_path, ("terms", 0), term)
    with pytest.raises(ValueError) as info:
        load_form_json(path)
    assert str(info.value) == f"{path}: terms[0] has no {key!r}"


@pytest.mark.parametrize("keys, value, fault", [
    (("names",), 5, "names = 5 is not a list"),
    (("terms",), 5, "terms = 5 is not a list"),
    (("terms", 0, "exponents"), 3, "terms[0].exponents = 3 is not a list"),
    (("terms",), [5], "terms[0] = 5 is not an object"),
    (("terms", 0, "coeff"), None, "terms[0].coeff = None is not a number"),
    (("terms", 0, "coeff"), "1.5", "terms[0].coeff = '1.5' is not a number"),
    (("K",), 5, "K = 5 is not a list"),
    (("K",), [[0.0] * 4] * 3, "K has 3 rows, expected d=4"),
    (("L", 1), [0.0] * 5, "L[1] has 5 entries, expected d=4"),
    (("P", 2), 7, "P[2] = 7 is not a list"),
    (("name",), 5, "name = 5 is not a string"),
    (("name",), ["a"], "name = ['a'] is not a string"),
    *((("name",), name, f"name = {name!r} is not a file name (empty, '.', '..', or holding / or \\)")
      for name in ("", ".", "..", "../escaped", "a/b", "a\\b", "/abs")),
])
def test_json_shape_fault_is_named(keys, value, fault, tmp_path):
    path = _nls_json_with(tmp_path, keys, value)
    with pytest.raises(ValueError) as info:
        load_form_json(path)
    assert str(info.value) == f"{path}: {fault}"


@pytest.mark.parametrize("keys, value, where", [
    (("K", 0, 1), "abc", "K[0][1]"),
    (("L", 0, 2), "1.5", "L[0][2]"),
    (("P", 2, 2), True, "P[2][2]"),
    (("P", 1, 0), None, "P[1][0]"),
    (("K", 3, 2), [1.0], "K[3][2]"),
])
def test_non_numeric_matrix_entry_is_named(keys, value, where, tmp_path):
    path = _nls_json_with(tmp_path, keys, value)
    with pytest.raises(ValueError) as info:
        load_form_json(path)
    assert str(info.value) == f"{path}: {where} = {value!r} is not a number"


@pytest.mark.parametrize("keys, where", [(("K", 0, 1), "K[0][1]"), (("terms", 0, "coeff"), "terms[0].coeff")])
def test_json_integer_beyond_float_range_is_named(keys, where, tmp_path):
    path = _nls_json_with(tmp_path, keys, 10**400)
    with pytest.raises(ValueError) as info:
        load_form_json(path)
    assert str(info.value) == f"{path}: {where} is an integer beyond the float range"


def test_json_top_level_must_be_an_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="top level is not an object"):
        load_form_json(path)


def test_integral_floats_are_read_as_integers(tmp_path):
    f = registry_get("nls")
    data = msform.form_to_dict(f)
    data["d"] = 4.0
    data["terms"] = [{**t, "row": float(t["row"]), "exponents": [float(e) for e in t["exponents"]]}
                     for t in data["terms"]]
    path = tmp_path / "floats.json"
    path.write_text(json.dumps(data))
    g = load_form_json(path)
    assert g.terms == f.terms and all(type(e) is int for t in g.terms for e in (t.row, *t.exponents))


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


EVALUATORS = {"grad S": eval_grad_S, "jac S": eval_jac_S, "S": eval_S}


def _kernel_forms(random_term_form, seed):
    rng = np.random.default_rng(seed)
    forms = [registry_get(name) for name in registry_names()]
    forms += [random_term_form(rng, d) for d in range(3, 9) for _ in range(8)]
    assert any(0 in col for f in forms[14:] for col in zip(*(t.exponents for t in f.terms)))
    return forms, rng


@pytest.mark.parametrize("name", list(EVALUATORS))
def test_generated_kernels_match_the_term_oracle(name, random_term_form, magnitude_form, terms_oracle):
    evaluate, oracle = EVALUATORS[name], getattr(terms_oracle, name.split()[0])
    forms, rng = _kernel_forms(random_term_form, 1616)
    for form in forms:
        for shape in [(form.d,), (7, form.d), (5, 4, form.d)]:
            z = rng.standard_normal(shape)
            got, ref = evaluate(form, z), oracle(form, z)
            assert np.shape(got) == ref.shape
            # every summand taken positive bounds the rounding of any order
            assert np.all(np.abs(got - ref) <= 1e-14 * (1.0 + oracle(magnitude_form(form), np.abs(z))))


@pytest.mark.parametrize("name", list(EVALUATORS))
def test_each_point_of_a_batch_is_its_one_point_call(name, random_term_form):
    evaluate = EVALUATORS[name]
    forms, rng = _kernel_forms(random_term_form, 1717)
    for form in forms:
        z = rng.standard_normal((5, 4, form.d))
        batch = evaluate(form, z)
        for i, j in np.ndindex(5, 4):
            assert np.array_equal(evaluate(form, z[i, j]), batch[i, j])
            assert np.array_equal(evaluate(form, z[i, j : j + 1])[0], batch[i, j])


def test_linearization_at_zero_is_P_and_makes_nothing(random_term_form):
    forms, _ = _kernel_forms(random_term_form, 1818)
    for form in forms:
        lin = linearize(form, np.zeros(form.d))
        assert lin.Peff.tobytes() == form.P.tobytes()
        assert form not in msform._MADE
    # elsewhere the Jacobian's terms count
    nls = registry_get("nls")
    z = np.array([0.5, -0.25, 0.0, 0.0])
    np.testing.assert_array_equal(linearize(nls, z).Peff, eval_jac_S(nls, z))
    assert not np.array_equal(linearize(nls, z).Peff, nls.P)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_registry_rejects_nonfinite_constants(value):
    with pytest.raises(ValueError, match="constant lam = .* is not finite"):
        registry_get("dirac", lam=value)
    assert registry_get("dirac", lam=2.0).param("lam") == 2.0


def _wave_with(**changes):
    # the wave form (d = 3, no terms) with some fields replaced
    f = registry_get("wave")
    fields = {"name": "bad", "names": f.names, "K": f.K, "L": f.L, "P": f.P, "terms": ()}
    return MultiSymplecticForm(**{**fields, **changes})


@pytest.mark.parametrize("changes, issue", [
    ({"names": ("u",), "K": [[0.0]], "L": [[0.0]], "P": [[1.0]]}, "dimension d=1 < 2"),
    ({"names": ("z", "z", "z")}, "variable name 'z' is repeated"),
    ({"names": ("u", "v", "u")}, "variable name 'u' is repeated"),
    ({"K": np.zeros((2, 2))}, "K has shape (2, 2), expected (3, 3)"),
    ({"L": np.zeros((3, 4))}, "L has shape (3, 4), expected (3, 3)"),
    ({"P": np.zeros(3)}, "P has shape (3,), expected (3, 3)"),
    ({"terms": (PolynomialTerm(0, 1.0, (2, 0, 0)),)}, "term row 0 out of range 1..3"),
    ({"terms": (PolynomialTerm(4, 1.0, (2, 0, 0)),)}, "term row 4 out of range 1..3"),
    ({"terms": (PolynomialTerm(1, 1.0, (2, 0)),)}, "term exponents (2, 0) not length 3"),
    ({"terms": (PolynomialTerm(1, 1.0, (3, -1, 0)),)}, "term exponents (3, -1, 0) not nonnegative integers"),
    ({"terms": (PolynomialTerm(1, 1.0, (1.5, 1, 0)),)}, "term exponents (1.5, 1, 0) not nonnegative integers"),
    ({"terms": (PolynomialTerm(2, 1.0, (0, 1, 0)),)}, "term in row 2 has degree 1 < 2"),
    ({"terms": (PolynomialTerm(3, 1.0, (0, 0, 0)),)}, "term in row 3 has degree 0 < 2"),
])
def test_validate_form_names_each_structural_issue(changes, issue):
    # forms built in Python skip the JSON loader's earlier checks
    report = validate_form(_wave_with(**changes))
    assert not report.ok and report.issues == (issue,)
