import dataclasses
import gc
import inspect
import re
import warnings
import weakref
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import root

from diamondstab import integrator, msform, spectral
from diamondstab.integrator import (
    MeshParams,
    MeshState,
    NewtonError,
    gauss_tableau,
    init_edges_rk,
    init_half_step,
    integrate,
    parse_scheme,
    random_tangent_pair,
    solve_diamond_rk,
    solve_diamonds,
    total_energy,
    verify_discrete_conservation,
)
from diamondstab.msform import (
    MultiSymplecticForm,
    PolynomialTerm,
    eval_grad_S,
    eval_jac_S,
    linearize,
    registry_get,
    registry_names,
)
from diamondstab.solutions import (
    builtin_initial_condition,
    dirac_breather,
    linear_kg_plane_wave,
    mixed_kg_cosine,
    nls_two_soliton_ic,
)
from diamondstab.spectral import SingularUpdateError, build_blocks_rk, build_blocks_simple


def test_gauss_tableau_r1_exact():
    t = gauss_tableau(1)
    np.testing.assert_allclose(t.A, [[0.5]], atol=1e-15)
    np.testing.assert_allclose(t.b, [1.0], atol=1e-15)
    np.testing.assert_allclose(t.c, [0.5], atol=1e-15)


def test_gauss_tableau_r2_exact():
    t = gauss_tableau(2)
    s3 = np.sqrt(3.0)
    np.testing.assert_allclose(t.c, [0.5 - s3 / 6, 0.5 + s3 / 6], atol=1e-14)
    np.testing.assert_allclose(t.A, [[0.25, 0.25 - s3 / 6], [0.25 + s3 / 6, 0.25]], atol=1e-14)
    np.testing.assert_allclose(t.b, [0.5, 0.5], atol=1e-14)


def test_gauss_tableau_range():
    with pytest.raises(ValueError):
        gauss_tableau(5)
    with pytest.raises(ValueError):
        gauss_tableau(0)


def test_one_tableau_per_r_keeps_the_store_from_growing():
    # tableaus hash by identity: a new one per run would add a Step-3 entry
    # to the form's store at every run
    assert gauss_tableau(2) is integrator.parse_scheme("rk:2")
    for name in ("A", "b", "c", "F", "mu", "beta"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(gauss_tableau(2), name)[0] = 1.0
    form = registry_get("dirac")
    ic, exact = dirac_breather(form.param("m"), form.param("lam"))
    mesh = MeshParams(a=-12.0, b=12.0, N=40, dt=0.2, T=0.4)
    sizes = []
    for _ in range(3):
        integrate(form, "rk:2", ic, mesh, observers=(), exact=exact)
        sizes.append(len(msform._MADE[form]))
    assert sizes == sizes[:1] * 3


def test_the_store_keeps_the_last_meshes_only(monkeypatch):
    # Step 3's blocks and the diamond kernel are kept for the last
    # _MESHES_KEPT meshes (dt, dx) of a form: 200 dt leave a bounded store
    # (401 entries when nothing was dropped), and a run's two dt with both
    # schemes, which fit, are never made again
    form = registry_get("dirac")
    tableau = gauss_tableau(2)
    pivots = []
    monkeypatch.setattr(spectral, "_pivot_inverse", lambda M: pivots.append(M) or spectral_pivot_inverse(M))
    for dt in np.linspace(0.01, 0.2, 200):
        integrator._diamond_kernel(form, float(dt), 0.1)
    meshes = msform._MADE[form]["meshes"]
    assert len(meshes) == msform._MESHES_KEPT >= 2
    assert set(meshes) == {(float(dt), 0.1) for dt in np.linspace(0.01, 0.2, 200)[-msform._MESHES_KEPT:]}
    assert sum(len(per_mesh) for per_mesh in meshes.values()) == 2 * msform._MESHES_KEPT
    assert set(msform._MADE[form]) <= {"S", "grad S", "jac S", "meshes"}
    pivots.clear()
    for _ in range(3):
        for dt in (0.05, 0.025):
            integrator._diamond_kernel(form, dt, 0.1)
            integrator._step3_blocks(form, tableau, dt, 0.1)
    assert len(pivots) == 4


def test_mesh_params_validation():
    with pytest.raises(ValueError):
        MeshParams(a=0.0, b=1.0, N=1, dt=0.1, T=1.0)
    with pytest.raises(ValueError):
        MeshParams(a=0.0, b=1.0, N=4, dt=-0.1, T=1.0)
    with pytest.raises(ValueError):
        MeshParams(a=1.0, b=0.0, N=4, dt=0.1, T=1.0)


# the step sizes and lengths each call takes, with admissible defaults;
# the sweep's dx list is [0.4, dx], so its error names dx[1]
_WAVE = linearize(registry_get("wave"), np.zeros(3))
STEP_AND_LENGTH_CALLS = {
    "build_blocks_simple": lambda dt=0.1, dx=0.1: build_blocks_simple(_WAVE, dt, dx),
    "build_blocks_rk": lambda dt=0.1, dx=0.1: build_blocks_rk(_WAVE, gauss_tableau(2), dt, dx),
    "MeshParams": lambda dt=0.1, T=1.0, domain_length=1.0: MeshParams(a=0.0, b=domain_length, N=4, dt=dt, T=T),
    "stability_boundary_sweep": lambda domain_length=4.0, dx=0.4: spectral.stability_boundary_sweep(
        _WAVE, "simple", domain_length, [0.4, dx], spectral.Criterion("strict")
    ),
}


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize(
    "call,name",
    [(call, name) for call, fn in STEP_AND_LENGTH_CALLS.items() for name in inspect.signature(fn).parameters],
)
def test_step_sizes_and_lengths_must_be_finite_and_positive(call, name, value):
    shown = "dx[1]" if call == "stability_boundary_sweep" and name == "dx" else name
    with pytest.raises(ValueError, match=rf"^{re.escape(shown)} must be finite and positive, got {value}$"):
        STEP_AND_LENGTH_CALLS[call](**{name: value})


@pytest.mark.parametrize(
    "call,kwargs,shown",
    [
        ("MeshParams", {"dt": 1e-300, "T": 1e300}, "T / dt"),
        ("stability_boundary_sweep", {"domain_length": 1e300, "dx": 1e-300}, "domain_length / dx[1]"),
    ],
)
def test_step_ratios_must_be_finite(call, kwargs, shown):
    # each value is admissible alone; the step or cell count they round to is not
    with pytest.raises(ValueError, match=rf"^{re.escape(shown)} must be finite and positive, got inf$"):
        STEP_AND_LENGTH_CALLS[call](**kwargs)


def test_mesh_reaches_the_whole_step_nearest_T():
    assert MeshParams(a=0.0, b=1.0, N=4, dt=0.1, T=0.01).t_end == 0.1
    assert MeshParams(a=0.0, b=1.0, N=4, dt=0.1, T=0.26).t_end == 3 * 0.1
    assert MeshParams(a=0.0, b=1.0, N=4, dt=0.25, T=1.0).t_end == 1.0


@pytest.mark.parametrize("name", ["wave", "linear_kg", "mixed_kg"])
def test_linear_diamond_equals_block_map(name):
    form = registry_get(name)
    dt, dx = 0.05, 0.1
    bl = build_blocks_simple(linearize(form, np.zeros(form.d)), dt, dx)
    K, L, P = form.K, form.L, form.P
    rng = np.random.default_rng(1)
    Zb, Zl, Zr = rng.standard_normal((3, 20, form.d))
    Zt = solve_diamonds(form, Zb, Zl, Zr, dt, dx)
    # [B Am Ap] applied to (n, 1, 3d) rows: each row alone, as in a one-row call
    corners = np.concatenate([Zb, Zl, Zr], axis=1)[:, None]
    stacked = (corners @ np.hstack([bl.B, bl.Am, bl.Ap]).T)[:, 0]
    assert np.array_equal(Zt, stacked)
    for zb, zl, zr, zt in zip(Zb, Zl, Zr, Zt):
        assert np.array_equal(solve_diamonds(form, zb, zl, zr, dt, dx)[0], zt)
        # the implicit diamond equation, apart from the block map
        lhs = (K / dt - P / 4) @ zt
        rhs = (K / dt + P / 4) @ zb + (L / dx + P / 4) @ zl + (-L / dx + P / 4) @ zr
        assert np.linalg.norm(lhs - rhs) <= 1e-13 * np.linalg.norm(rhs)


def test_zero_inputs_zero_output():
    for name in ("wave", "dirac", "nls", "good_boussinesq"):
        form = registry_get(name)
        z = np.zeros(form.d)
        np.testing.assert_array_equal(solve_diamonds(form, z, z, z, 0.1, 0.1)[0], z)


@pytest.mark.parametrize("name", ["dirac", "good_boussinesq"])
def test_nonlinear_diamond_against_dense_root_finder(name):
    form = registry_get(name)
    K, L = form.K, form.L
    dt = dx = 0.1
    rng = np.random.default_rng(9)
    for _ in range(25):
        zb, zl, zr = 0.3 * rng.standard_normal((3, form.d))
        zt = solve_diamonds(form, zb, zl, zr, dt, dx)[0]

        def residual(z):
            avg = 0.25 * (z + zb + zl + zr)
            return K @ (z - zb) / dt + L @ (zr - zl) / dx - eval_grad_S(form, avg)

        ref = root(residual, zb, method="hybr", tol=1e-13)
        assert np.abs(residual(ref.x)).max() < 1e-9  # oracle converged
        np.testing.assert_allclose(zt, ref.x, atol=1e-10)


def test_batch_solve_matches_per_diamond_loop():
    # diamond updates within a half-step are independent; batch and loop agree
    form = registry_get("dirac")
    rng = np.random.default_rng(12)
    Zb, Zl, Zr = 0.2 * rng.standard_normal((3, 7, 4))
    batch = solve_diamonds(form, Zb, Zl, Zr, 0.1, 0.2)
    for order in (range(7), reversed(range(7))):
        for i in order:
            one = solve_diamonds(form, Zb[i], Zl[i], Zr[i], 0.1, 0.2)[0]
            assert np.array_equal(one, batch[i])


def test_init_half_step_exact_mixed_kg():
    form = registry_get("mixed_kg")
    ic, exact = mixed_kg_cosine(form.param("a"))
    mesh = MeshParams(a=-1.0, b=1.0, N=8, dt=0.01, T=0.1)
    state = init_half_step(form, ic, mesh, exact=exact)
    xh = mesh.x_half()
    np.testing.assert_allclose(
        state.half_points()[:, 0], np.cos(np.pi * (xh + mesh.dt / 2)), atol=1e-14
    )


def test_init_half_step_box_constant():
    # constant state with grad S = 0 is a fixed point of the box step
    form = registry_get("wave")
    const = np.array([0.7, 0.0, 0.0])  # grad S = (0, v, -w) = 0
    mesh = MeshParams(a=0.0, b=1.0, N=10, dt=0.05, T=0.1)
    state = init_half_step(form, lambda x: const, mesh, method="box")
    np.testing.assert_allclose(state.half_points(), np.tile(const, (10, 1)), atol=1e-12)


def test_init_half_step_breather_exact():
    form = registry_get("dirac")
    ic, exact = dirac_breather(form.param("m"), form.param("lam"))
    mesh = MeshParams(a=-24.0, b=24.0, N=32, dt=0.2, T=1.0)
    state = init_half_step(form, ic, mesh, exact=exact)
    np.testing.assert_allclose(
        state.half_points(), exact(mesh.x_half(), mesh.dt / 2), atol=1e-14
    )


def test_integrate_zero_ic_stays_zero():
    form = registry_get("nls")
    mesh = MeshParams(a=0.0, b=2.0, N=8, dt=0.05, T=0.5)
    res = integrate(form, "simple", lambda x: np.zeros(4), mesh, observers=(), init_method="box")
    assert res.status == "completed"
    assert np.abs(res.state.values).max() == 0.0


def test_integrate_divergence_is_status_not_error():
    # mixed-derivative KG is unconditionally unstable: blow-up expected
    form = registry_get("mixed_kg")
    ic, exact = mixed_kg_cosine(form.param("a"))
    mesh = MeshParams(a=-1.0, b=1.0, N=40, dt=1e-3, T=1.0)
    res = integrate(form, "simple", ic, mesh, observers=(), exact=exact, blowup=1e8)
    assert res.status == "diverged"
    assert res.diverged_at is not None


def test_wave_energy_constant_field():
    form = registry_get("wave")
    mesh = MeshParams(a=0.0, b=1.0, N=10, dt=0.1, T=1.0)
    values = np.zeros((20, 3))
    values[:, 1] = 1.0  # v == 1, w == 0
    assert total_energy(form, MeshState(values), mesh) == pytest.approx(0.5)


def test_energy_of_anonymous_form_comes_from_its_gradient():
    # no stored potential: S is derived from P, and L = 0 leaves E = S = z.Pz / 2
    P = np.array([[2.0, 0.5], [0.5, -1.0]])
    form = MultiSymplecticForm("anon", ("a", "b"), np.zeros((2, 2)), np.zeros((2, 2)), P)
    mesh = MeshParams(a=0.0, b=1.0, N=4, dt=0.1, T=0.1)
    values = np.random.default_rng(5).standard_normal((8, 2))
    z = values[0::2]
    expected = 0.5 * np.einsum("ij,jk,ik->", z, P, z) * mesh.dx
    assert total_energy(form, MeshState(values), mesh) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("name", ["wave", "linear_kg"])
def test_energy_depends_on_the_matrices_not_the_name(name):
    # every form uses S(z) - z.L z_x / 2, whatever it is called
    form = registry_get(name)
    copy = MultiSymplecticForm(f"{name}_copy", form.names, form.K, form.L, form.P, form.terms)
    mesh = MeshParams(a=0.0, b=1.0, N=8, dt=0.1, T=0.1)
    values = np.random.default_rng(6).standard_normal((16, form.d))
    assert total_energy(form, MeshState(values), mesh) == total_energy(copy, MeshState(values), mesh)


@pytest.mark.parametrize("name", ["dirac", "nls"])
def test_nonlinear_diamonds_solve_step3_equations(name):
    # at amplitude 1e-6 the cubic terms are about 1e-12 of the linear ones,
    # so both integrator paths must reproduce Step 3's one-diamond maps of
    # the zero linearization
    form = registry_get(name)
    lin = linearize(form, np.zeros(form.d))
    rng = np.random.default_rng(41)
    n = 8

    def gap(got, want):
        got, want = got.reshape(n, -1), want.reshape(n, -1)
        return (np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)).max()

    for dt, dx in ((0.1, 0.2), (0.2, 0.1)):
        bl = build_blocks_simple(lin, dt, dx)
        Zb, Zl, Zr = 1e-6 * rng.standard_normal((3, n, form.d))
        want = Zb @ bl.B.T + Zl @ bl.Am.T + Zr @ bl.Ap.T
        assert gap(solve_diamonds(form, Zb, Zl, Zr, dt, dx), want) <= 1e-9
        for r in (1, 2, 3):
            tab = gauss_tableau(r)
            bl = build_blocks_rk(lin, tab, dt, dx)
            zb, zl = 1e-6 * rng.standard_normal((2, n, r, form.d))
            zt, zr = solve_diamond_rk(form, tab, zb, zl, dt, dx)
            b, l = zb.reshape(n, -1), zl.reshape(n, -1)
            assert gap(zt, l @ bl.Clt.T + b @ bl.Cbt.T) <= 1e-9, (dt, dx, r)
            assert gap(zr, l @ bl.Clr.T + b @ bl.Cbr.T) <= 1e-9, (dt, dx, r)


@pytest.mark.parametrize(
    "scheme,observers", [("simple", ("energy", "bogus")), ("rk:2", ("norms", "bogus")), ("rk:2", ("energy",))]
)
def test_integrate_rejects_observers_the_scheme_cannot_record(scheme, observers):
    def ic(x):
        raise AssertionError("the run started before the observers were checked")

    mesh = MeshParams(a=0.0, b=1.0, N=8, dt=0.1, T=0.1)
    with pytest.raises(ValueError, match=f"'{observers[-1]}'"):
        integrate(registry_get("dirac"), scheme, ic, mesh, observers=observers)


def test_an_exact_start_needs_the_equations_it_solves():
    # a form named "dirac" with m and lam but twice the mass matrix is not the
    # registered dirac, whose breather would not solve it
    dirac = registry_get("dirac")
    doubled = dataclasses.replace(dirac, P=2.0 * dirac.P)
    with pytest.raises(ValueError, match="no builtin initial condition 'breather' for form 'dirac'"):
        builtin_initial_condition("breather", doubled)
    # a form with dirac's equations under other labels gets it, at its own constants
    relabelled = dataclasses.replace(registry_get("dirac", m=2.0), names=("a", "b", "c", "d"))
    ic, exact = builtin_initial_condition("breather", relabelled)
    assert np.array_equal(exact(0.3, 0.2), dirac_breather(2.0, 1.0)[1](0.3, 0.2))


@pytest.mark.parametrize("scheme,recorded", [("simple", "energies"), ("rk:2", "norms")])
def test_integrate_records_the_schemes_own_observer_by_default(scheme, recorded):
    form = registry_get("dirac")
    ic, exact = dirac_breather(form.param("m"), form.param("lam"))
    res = integrate(form, scheme, ic, MeshParams(a=-12.0, b=12.0, N=40, dt=0.2, T=0.4), exact=exact)
    records = {"energies": res.energies, "norms": res.norms}
    assert len(records.pop(recorded)) == len(res.times) == 2
    assert list(records.values()) == [None] and res.snapshots == []


@pytest.mark.parametrize("scheme", ["simple", "rk:2"])
def test_init_method_picks_the_start_of_either_scheme(scheme):
    form = registry_get("dirac")
    ic, exact = dirac_breather(form.param("m"), form.param("lam"))
    mesh = MeshParams(a=-24.0, b=24.0, N=81, dt=0.2, T=0.2)

    def final(res):
        return res.state.values if res.edge_state is None else res.edge_state

    runs = {
        method: final(integrate(form, scheme, ic, mesh, observers=(), exact=exact, init_method=method))
        for method in ("auto", "exact", "box")
    }
    assert np.array_equal(runs["auto"], runs["exact"])
    # the box start runs and lands near, but not on, the exact start
    assert not np.array_equal(runs["box"], runs["exact"])
    assert np.abs(runs["box"] - runs["exact"]).max() < 0.1
    with pytest.raises(ValueError, match="no exact solution"):
        integrate(form, scheme, ic, mesh, observers=(), init_method="exact")


def test_convergence_order_simple_and_rk1():
    # error in the physical solution u under dx halving at fixed dt/dx;
    # the auxiliary derivative fields are one order lower at vertices
    form = registry_get("linear_kg")
    ic, exact = linear_kg_plane_wave()
    L = 2 * np.pi
    for scheme in ("simple", "rk:1"):
        errs = []
        for N in (16, 32, 64):
            dx = L / N
            dt = 0.5 * dx
            mesh = MeshParams(a=0.0, b=L, N=N, dt=dt, T=(N // 2) * dt)
            res = integrate(form, scheme, ic, mesh, observers=(), exact=exact)
            tend = mesh.nt * mesh.dt
            if scheme == "simple":
                u = res.state.integer_points()[:, 0]
                uex = exact(mesh.x_int(), tend)[:, 0]
                errs.append(np.abs(u - uex).max())
            else:
                tab = gauss_tableau(1)
                xi = mesh.x_int()
                worst = 0.0
                for i in range(N):
                    c = tab.c[0]
                    ref = exact(xi[i] + 0.5 * dx * c, tend + 0.5 * dt * c)
                    worst = max(worst, abs(res.edge_state[2 * i, 0, 0] - ref.reshape(-1)[0]))
                errs.append(worst)
        order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
        assert min(order) >= 1.9, (scheme, errs)


def test_rk_diamond_against_dense_stage_solve():
    # independent oracle: assemble the r=1 collocation equations directly
    form = registry_get("wave")
    t1 = gauss_tableau(1)
    dt, dx = 0.2, 0.1
    rng = np.random.default_rng(21)
    zl = rng.standard_normal(3)
    zb = rng.standard_normal(3)
    Ktil = form.K / dt - form.L / dx
    Ltil = form.K / dt + form.L / dx
    P = form.P
    # single stage Z: P Z = Ktil * 2 (Z - zb) + Ltil * 2 (Z - zl)
    A = P - 2.0 * Ktil - 2.0 * Ltil
    rhs = -2.0 * Ktil @ zb - 2.0 * Ltil @ zl
    Z = np.linalg.solve(A, rhs)
    zt_ref = 2.0 * Z - zb
    zr_ref = 2.0 * Z - zl
    zt, zr = solve_diamond_rk(form, t1, zb[None, :], zl[None, :], dt, dx)
    np.testing.assert_allclose(zt.reshape(-1), zt_ref, atol=1e-12)
    np.testing.assert_allclose(zr.reshape(-1), zr_ref, atol=1e-12)


def _rk_diamond_by_lm(form, tab, zb, zl, dt, dx, oracle):
    """The collocation diamond in slope form, solved by scipy's LM.

    With x = x_b + (s - t) dx/2 and time t_b + (s + t) dt/2 over the unit
    square, K z_time + L z_x = grad S reads Ltil z_s + Ktil z_t = grad S.
    The stages Z[i, j] at (c_i, c_j) carry the slopes V = z_s and W = z_t:
    Z[i, j] = zb[i] + sum_k A[j, k] W[i, k] = zl[j] + sum_k A[i, k] V[k, j];
    the tops are zt[i] = zb[i] + sum_j b_j W[i, j] and
    zr[j] = zl[j] + sum_i b_i V[i, j].  Returns them and the largest
    equation residual; grad S is ``oracle.grad``.
    """
    r, A, b = tab.r, tab.A, tab.b
    Ktil, Ltil = form.K / dt - form.L / dx, form.K / dt + form.L / dx

    def equations(x):
        Z, V, W = x.reshape(3, r, r, form.d)
        return np.concatenate([
            Z - zb[:, None] - np.einsum("jk,ikd->ijd", A, W),
            Z - zl[None, :] - np.einsum("ik,kjd->ijd", A, V),
            dt * (V @ Ltil.T + W @ Ktil.T - oracle.grad(form, Z)),
        ]).ravel()

    start = np.concatenate([np.repeat(zb[:, None], r, axis=1).ravel(), np.zeros(2 * r * r * form.d)])
    x = root(equations, start, method="lm", options={"xtol": 1e-15, "ftol": 1e-15}).x
    Z, V, W = x.reshape(3, r, r, form.d)
    zt = zb + np.einsum("j,ijd->id", b, W)
    zr = zl + np.einsum("i,ijd->jd", b, V)
    return zt, zr, np.abs(equations(x)).max()


@pytest.mark.parametrize("r", [1, 2, 3])
def test_rk_nonlinear_diamond_against_scipy_root(r, terms_oracle):
    form, tab = registry_get("dirac"), gauss_tableau(r)
    dt, dx = 0.2, 0.3
    zb, zl = 0.5 * np.random.default_rng(50 + r).standard_normal((2, 10, r, form.d))
    zt, zr = solve_diamond_rk(form, tab, zb, zl, dt, dx)
    for i in range(10):
        ref_t, ref_r, worst = _rk_diamond_by_lm(form, tab, zb[i], zl[i], dt, dx, terms_oracle)
        assert worst < 1e-13  # the oracle converged
        got, ref = np.concatenate([zt[i], zr[i]]), np.concatenate([ref_t, ref_r])
        assert np.abs(got - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())


def test_rk_zero_inputs_zero_outputs():
    form = registry_get("dirac")
    t2 = gauss_tableau(2)
    z = np.zeros((2, 4))
    zt, zr = solve_diamond_rk(form, t2, z, z, 0.1, 0.1)
    assert np.abs(zt).max() == 0.0 and np.abs(zr).max() == 0.0


def test_rk_integrate_box_fallback_zero_ic():
    # no exact solution supplied: edges come from the box half-step fallback
    form = registry_get("nls")
    mesh = MeshParams(a=0.0, b=2.0, N=8, dt=0.01, T=0.05)
    res = integrate(form, "rk:1", lambda x: np.zeros(4), mesh, observers=("norms",))
    assert res.status == "completed"
    assert np.abs(res.edge_state).max() == 0.0
    assert res.times[0] == 0.0 and res.times[-1] == pytest.approx(mesh.T)
    assert len(res.norms) == len(res.times) and not res.norms.any()


def test_rk_singular_stage_matrix_raises():
    form = registry_get("kdv")
    t2 = gauss_tableau(2)
    with pytest.raises(SingularUpdateError, match="singular"):
        solve_diamond_rk(form, t2, np.zeros((2, 4)), np.zeros((2, 4)), 0.1, 0.1)


@pytest.mark.parametrize("name,r", [("dirac", 2), ("wave", 1), ("wave", 2)])
def test_rk_batch_equals_row_by_row(name, r):
    # dirac runs the Newton path, wave the linear one
    form = registry_get(name)
    tab = gauss_tableau(r)
    rng = np.random.default_rng(40 + r)
    zb, zl = 0.3 * rng.standard_normal((2, 7, r, form.d))
    zt, zr = solve_diamond_rk(form, tab, zb, zl, 0.2, 0.3)
    assert zt.shape == zr.shape == (7, r, form.d)
    for i in range(7):
        one_t, one_r = solve_diamond_rk(form, tab, zb[i], zl[i], 0.2, 0.3)
        assert np.array_equal(one_t, zt[i]) and np.array_equal(one_r, zr[i])
    first_t, first_r = solve_diamond_rk(form, tab, zb[:1], zl[:1], 0.2, 0.3)
    assert np.array_equal(first_t, zt[:1]) and np.array_equal(first_r, zr[:1])


def _dirac_rk_setup():
    form = registry_get("dirac")
    ic, exact = dirac_breather(form.param("m"), form.param("lam"))
    mesh = MeshParams(a=-12.0, b=12.0, N=40, dt=0.2, T=1.0)
    return form, ic, exact, mesh


def test_rk_run_matches_per_diamond_loop():
    form, ic, exact, mesh = _dirac_rk_setup()
    tab = gauss_tableau(2)
    res = integrate(form, tab, ic, mesh, observers=(), exact=exact)
    N = mesh.N
    edges = init_edges_rk(form, tab, ic, mesh, exact=exact)
    for _ in range(mesh.nt):
        for first in (True, False):
            new = edges.copy()
            for i in range(N):
                left, bottom = ((2 * i - 1) % (2 * N), 2 * i) if first else (2 * i, 2 * i + 1)
                new[left], new[bottom] = solve_diamond_rk(
                    form, tab, edges[bottom], edges[left], mesh.dt, mesh.dx
                )
            edges = new
    assert res.status == "completed"
    assert np.abs(res.edge_state - edges).max() <= 1e-13


def test_rk_run_checks_consistency_once_per_half_step(monkeypatch):
    form, ic, exact, mesh = _dirac_rk_setup()
    calls = []
    original = spectral._pivot_inverse

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(spectral, "_pivot_inverse", counted)
    res = integrate(form, "rk:2", ic, mesh, observers=(), exact=exact)
    assert res.status == "completed"
    assert 0 < len(calls) <= 2 * mesh.nt


def test_init_edges_rk_pointwise_fallbacks():
    form, ic, exact, mesh = _dirac_rk_setup()
    tab = gauss_tableau(2)
    vectorised = init_edges_rk(form, tab, ic, mesh, exact=exact)
    scalar_only = init_edges_rk(form, tab, ic, mesh, exact=lambda x, t: exact(float(x), t))
    np.testing.assert_array_equal(scalar_only, vectorised)
    # without an exact solution the nodes interpolate between the data and
    # the box half-step in the cell the edge belongs to
    half = init_half_step(form, ic, mesh, method="box").half_points()
    boxed = init_edges_rk(form, tab, ic, mesh)
    xi, dx = mesh.x_int(), mesh.dx
    for k, c in enumerate(tab.c):
        for i in range(mesh.N):
            rising = (1 - c) * ic(xi[i] + 0.5 * dx * c) + c * half[i]
            falling = (1 - c) * ic(xi[i] + dx - 0.5 * dx * c) + c * half[i]
            np.testing.assert_allclose(boxed[2 * i, k], rising, atol=1e-14)
            np.testing.assert_allclose(boxed[2 * i + 1, k], falling, atol=1e-14)


def _dense_box_newton(form, ic, mesh):
    # the box step of init_half_step, solved with a dense (N d)^2 Jacobian
    N, d = mesh.N, form.d
    K, L = form.K, form.L
    dt2, dx = mesh.dt / 2.0, mesh.dx
    bot = ic(mesh.x_half())
    bm = np.roll(bot, 1, axis=0)

    def residual(U):
        um = np.roll(U, 1, axis=0)
        ctr = 0.25 * (U + um + bot + bm)
        return (
            0.5 * (U + um - bot - bm) @ K.T / dt2
            + 0.5 * (U + bot - um - bm) @ L.T / dx
            - eval_grad_S(form, ctr)
        )

    U = bot.copy()
    for _ in range(30):
        JS = eval_jac_S(form, 0.25 * (U + np.roll(U, 1, axis=0) + bot + bm))
        J = np.zeros((N * d, N * d))
        for i in range(N):
            p = (i - 1) % N
            J[i * d : (i + 1) * d, i * d : (i + 1) * d] = K / (2 * dt2) + L / (2 * dx) - 0.25 * JS[i]
            J[i * d : (i + 1) * d, p * d : (p + 1) * d] = K / (2 * dt2) - L / (2 * dx) - 0.25 * JS[i]
        step = np.linalg.solve(J, residual(U).reshape(-1)).reshape(N, d)
        U = U - step
        if np.abs(step).max() <= 1e-15 * (1.0 + np.abs(U).max()):
            break
    return U


@pytest.mark.parametrize("name", ["nls", "dirac"])
def test_box_start_matches_dense_newton(name):
    form = registry_get(name)
    if name == "nls":
        ic = nls_two_soliton_ic()
        mesh = MeshParams(a=-24.0, b=24.0, N=96, dt=1e-3, T=1e-3)
    else:
        ic, _ = dirac_breather(form.param("m"), form.param("lam"))
        mesh = MeshParams(a=-12.0, b=12.0, N=40, dt=0.2, T=0.2)
    half = init_half_step(form, ic, mesh, method="box").half_points()
    ref = _dense_box_newton(form, ic, mesh)
    assert np.abs(half - ref).max() <= 1e-13


def test_box_start_singular_jacobian_raises():
    # odd d makes the skew L singular, so the sawtooth mode of an even mesh
    # is a kernel vector of the box Jacobian
    form = registry_get("wave")
    mesh = MeshParams(a=0.0, b=1.0, N=16, dt=0.05, T=0.5)

    def ic(x):
        return np.stack([np.sin(2 * np.pi * x), np.cos(2 * np.pi * x), 0 * x], axis=-1)

    with pytest.raises(NewtonError, match="singular Jacobian"):
        init_half_step(form, ic, mesh, method="box")


def test_box_start_even_mesh_with_singular_L_raises_before_factorising(monkeypatch):
    form = registry_get("wave")  # d = 3: the skew L is singular
    calls = []
    original = integrator.splu

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(integrator, "splu", counted)

    def ic(x):
        return np.stack([np.sin(2 * np.pi * x), np.cos(2 * np.pi * x), 0 * x], axis=-1)

    even = MeshParams(a=0.0, b=1.0, N=16, dt=0.05, T=0.5)
    with pytest.raises(NewtonError, match="L is singular and N = 16 is even.*exact start or an odd N"):
        init_half_step(form, ic, even, method="box")
    assert calls == []
    odd = MeshParams(a=0.0, b=1.0, N=15, dt=0.05, T=0.5)
    state = init_half_step(form, ic, odd, method="box")
    assert calls and np.isfinite(state.values).all()


# -- chord iteration of the nonlinear diamond solve ------------------------------


def _nls_start(dt):
    form = registry_get("nls")
    mesh = MeshParams(a=-24.0, b=24.0, N=480, dt=dt, T=dt)
    values = init_half_step(form, nls_two_soliton_ic(), mesh, method="box").values
    return form, mesh, values


def _dirac_start():
    form = registry_get("dirac")
    ic, exact = dirac_breather(form.param("m"), form.param("lam"), 0.5)
    mesh = MeshParams(a=-24.0, b=24.0, N=160, dt=0.2, T=0.2)
    return form, mesh, init_half_step(form, ic, mesh, exact=exact).values


def _half_step_corners(values):
    # first half-step of integrate: the diamond on cell i has half point i-1 on its left
    evens, odds = values[0::2], values[1::2]
    return evens, np.roll(odds, 1, axis=0), odds


def _relative_gap(a, b):
    return np.abs(a - b).max() / (1.0 + np.abs(b).max())


def _diamond_by_mpmath(form, zb, zl, zr, dt, dx, start):
    # the diamond equation solved with 40 significant digits
    with mpmath.workdps(40):
        K, L, P = (mpmath.matrix(M.tolist()) for M in (form.K, form.L, form.P))
        zb, zl, zr = (mpmath.matrix(v.tolist()) for v in (zb, zl, zr))

        def equation(*zt):
            zt = mpmath.matrix(zt)
            avg = (zt + zb + zl + zr) / 4
            grad = P * avg
            for term in form.terms:
                grad[term.row - 1] += term.coeff * mpmath.fprod(avg[j] ** e for j, e in enumerate(term.exponents))
            return list(K * (zt - zb) / dt + L * (zr - zl) / dx - grad)

        return np.array([float(x) for x in mpmath.findroot(equation, start.tolist())])


@pytest.mark.parametrize("case", ["nls-2.5e-6", "nls-4e-5", "dirac"])
def test_chord_solve_matches_newton_only(case, terms_oracle):
    form, mesh, values = _dirac_start() if case == "dirac" else _nls_start(float(case[4:]))
    Zb, Zl, Zr = _half_step_corners(values)
    for half in range(2):
        chord = solve_diamonds(form, Zb, Zl, Zr, mesh.dt, mesh.dx)
        newton = _newton_diamonds(form, Zb, Zl, Zr, mesh.dt, mesh.dx, terms_oracle)
        # both stop a row on its step alone: the largest gap measured is
        # 1.0e-15 (nls at dt = 2.5e-6), against 5.5e-14 on dirac where Newton
        # stopped the simple scheme's rows on a residual test
        assert _relative_gap(chord, newton) <= 1e-14
        # where the two differ most, the chord is within 1e-13 of a 40-digit solve
        gap = np.abs(chord - newton).max(axis=1)
        for i in np.argsort(gap)[-2:]:
            exact = _diamond_by_mpmath(form, Zb[i], Zl[i], Zr[i], mesh.dt, mesh.dx, newton[i])
            assert np.abs(chord[i] - exact).max() <= 1e-13 * (1.0 + np.abs(exact).max())
        # the second half-step runs from the first one's tops
        Zb, Zl, Zr = values[1::2], chord, np.roll(chord, -1, axis=0)


def _newton_rows(residual, jacobian, Z0):
    """Plain Newton on each row alone, sharing nothing with the library's
    solve: a fresh Jacobian at every step, np.linalg.solve, and a stop once
    the step taken is below 1e-13 (1 + |z|).  ``residual(i, z)`` and
    ``jacobian(i, z)`` are row i's; raises AssertionError on a row that does
    not stop within 50 steps."""
    out = np.array(Z0, dtype=float)
    for i, z in enumerate(out):
        for _ in range(50):
            delta = np.linalg.solve(jacobian(i, z), residual(i, z))
            z -= delta
            if np.linalg.norm(delta) < 1e-13 * (1.0 + np.linalg.norm(z)):
                break
        else:
            raise AssertionError(f"Newton did not stop on row {i}")
    return out


def _newton_diamonds(form, Zb, Zl, Zr, dt, dx, oracle):
    """The simple scheme's diamond equation K (z - zb)/dt + L (zr - zl)/dx =
    grad S((z + zb + zl + zr)/4) solved by _newton_rows from zb, as
    solve_diamonds takes and returns its rows; grad S and its Jacobian are
    ``oracle``'s."""
    Zb, Zl, Zr = (np.array(Z, dtype=float, ndmin=2) for Z in (Zb, Zl, Zr))
    K, L = form.K, form.L

    def residual(i, z):
        avg = 0.25 * (z + Zb[i] + Zl[i] + Zr[i])
        return K @ (z - Zb[i]) / dt + L @ (Zr[i] - Zl[i]) / dx - oracle.grad(form, avg)

    def jacobian(i, z):
        return K / dt - 0.25 * oracle.jac(form, 0.25 * (z + Zb[i] + Zl[i] + Zr[i]))

    return _newton_rows(residual, jacobian, Zb)


def _newton_stages(form, tableau, zb_stack, zl_stack, dt, dx, oracle):
    """The collocation stage system Q Z = Db zb + Dl zl of Step 3's blocks
    (build_blocks_rk of the form linearized at zero), with grad S(Z) in place
    of (I (x) P) Z, solved by _newton_rows from stages equal to the bottom
    stack; returns the top and right stacks as solve_diamond_rk does.  grad S
    and its Jacobian are ``oracle``'s."""
    r, d = tableau.r, form.d
    single = np.ndim(zb_stack) <= 2
    zb, zl = (np.asarray(z, dtype=float).reshape(-1, r * d) for z in (zb_stack, zl_stack))
    bl = build_blocks_rk(linearize(form, np.zeros(d)), tableau, dt, dx)
    A = bl.Q - np.kron(np.eye(r * r), form.P)
    rhs = zb @ bl.Db.T + zl @ bl.Dl.T

    def residual(i, z):
        return oracle.grad(form, z.reshape(r * r, d)).reshape(-1) + A @ z - rhs[i]

    def jacobian(i, z):
        blocks = oracle.jac(form, z.reshape(r * r, d))
        return A + np.block([[blocks[s] if s == t else np.zeros((d, d)) for t in range(r * r)] for s in range(r * r)])

    Z0 = np.repeat(zb.reshape(-1, r, 1, d), r, axis=2).reshape(len(zb), -1)
    Z = _newton_rows(residual, jacobian, Z0).reshape(-1, r, r, d)
    zb, zl = zb.reshape(-1, r, d), zl.reshape(-1, r, d)
    beta, alpha = tableau.beta, tableau.alpha
    zt = (1.0 - alpha) * zb + np.einsum("j,nijk->nik", beta, Z)
    zr = (1.0 - alpha) * zl + np.einsum("i,nijk->njk", beta, Z)
    return (zt[0], zr[0]) if single else (zt, zr)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(["nls", "dirac"]),
    scheme=st.sampled_from(["simple", "rk:1", "rk:2"]),
    amplitude=st.floats(0.01, 2.0),
    dt_over_dx=st.floats(0.01, 1.0),
    rows=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_chord_solve_properties(name, scheme, amplitude, dt_over_dx, rows, seed, terms_oracle):
    form = registry_get(name)
    dx = 0.2
    dt = dt_over_dx * dx
    rng = np.random.default_rng(seed)
    if scheme == "simple":
        corners = amplitude * rng.standard_normal((3, rows, form.d))

        def solve(*corners):
            return solve_diamonds(form, *corners, dt, dx)

        newton = _newton_diamonds(form, *corners, dt, dx, terms_oracle)
    else:
        tab = parse_scheme(scheme)
        # random NLS edges put stage values up to 1e3 (v and w are slopes
        # across inconsistent edges); above amplitude 0.5 Newton fails on
        # some of these draws, with or without the chord
        corners = 0.25 * amplitude * rng.standard_normal((2, rows, tab.r, form.d))

        def solve(*corners):
            # the top and right stacks of each diamond, one after the other
            return np.concatenate(solve_diamond_rk(form, tab, *corners, dt, dx), axis=-2)

        newton = np.concatenate(_newton_stages(form, tab, *corners, dt, dx, terms_oracle), axis=-2)
    batch = solve(*corners)
    assert _relative_gap(batch, newton) <= 1e-12
    for i in range(rows):
        one = solve(*(Z[i] for Z in corners))
        assert np.array_equal(one[0] if scheme == "simple" else one, batch[i])


def _pivot_is_singular(form, dt, dx):
    """Whether Step 3 refuses the form's simple pivot at dt and dx; where it
    does, the form gets no diamond kernel either."""
    try:
        integrator._step3_blocks(form, "simple", dt, dx)
    except SingularUpdateError:
        with pytest.raises(SingularUpdateError):
            integrator._diamond_kernel(form, dt, dx)
        return True
    return False


def _diamond_kernel_forms(random_term_form):
    rng = np.random.default_rng(2323)
    forms = [f for f in map(registry_get, registry_names()) if not f.is_linear]
    assert len(forms) == 10
    return forms + [random_term_form(rng, d, skew=True) for d in range(3, 9) for _ in range(4)]


@pytest.mark.parametrize("dt,dx", [(0.1, 0.2), (1.0, 1.0)])
def test_generated_diamond_kernel_matches_the_diamond_equation(dt, dx, random_term_form, magnitude_form, terms_oracle):
    # unit steps leave unit entries of K/dt and L/dx, which the kernel adds
    # and subtracts without a product
    rng = np.random.default_rng(2424)
    for form in _diamond_kernel_forms(random_term_form):
        Z, Zb, Zl, Zr = (integrator._rows(rng.standard_normal((7, form.d))) for _ in range(4))
        if _pivot_is_singular(form, dt, dx):
            continue
        kernel, mag = integrator._diamond_kernel(form, dt, dx), magnitude_form(form)
        got = kernel.residual(Z, *kernel.corners(Zb, Zl, Zr))
        avg = 0.25 * (Z + Zb + Zl + Zr)
        ref = (Z - Zb) @ form.K.T / dt + (Zr - Zl) @ form.L.T / dx - terms_oracle.grad(form, avg)
        bound = (np.abs(Z) + np.abs(Zb)) @ mag.K.T / dt + (np.abs(Zr) + np.abs(Zl)) @ mag.L.T / dx
        bound += terms_oracle.grad(mag, np.abs(avg))
        assert np.all(np.abs(got - ref) <= 1e-14 * (1.0 + bound))
        pivot_inv = integrator._step3_blocks(form, "simple", dt, dx).pivot_inv
        delta, norm = kernel.step(got)
        assert np.all(np.abs(delta - got @ pivot_inv.T) <= 1e-14 * (1.0 + np.abs(got) @ np.abs(pivot_inv).T))
        assert np.all(np.abs(norm - np.linalg.norm(delta, axis=1)) <= 1e-14 * norm)


def test_generated_diamond_kernel_rows_equal_one_row_calls(random_term_form):
    rng = np.random.default_rng(2525)
    for form in _diamond_kernel_forms(random_term_form):
        Z, Zb, Zl, Zr = (integrator._rows(rng.standard_normal((9, form.d))) for _ in range(4))
        if _pivot_is_singular(form, 0.1, 0.2):
            continue
        kernel = integrator._diamond_kernel(form, 0.1, 0.2)
        c, s = kernel.corners(Zb, Zl, Zr)
        res = kernel.residual(Z, c, s)
        step = kernel.step(res)
        for i in range(len(Z)):
            one = [integrator._rows(X[i]) for X in (Z, Zb, Zl, Zr)]
            c1, s1 = kernel.corners(*one[1:])
            assert np.array_equal(c1[0], c[i]) and np.array_equal(s1[0], s[i])
            res1 = kernel.residual(one[0], c1, s1)
            assert np.array_equal(res1[0], res[i])
            delta1, norm1 = kernel.step(res1)
            assert np.array_equal(delta1[0], step[0][i]) and norm1[0] == step[1][i]
        # an empty batch has empty parts
        empty = np.zeros((0, form.d))
        c0, s0 = kernel.corners(empty, empty, empty)
        assert c0.shape == s0.shape == kernel.residual(empty, c0, s0).shape == (0, form.d)
        delta0, norm0 = kernel.step(empty)
        assert delta0.shape == (0, form.d) and norm0.shape == (0,)


def test_singular_update_matrix_refuses_the_solve(terms_oracle):
    # K/dt - P/4 = [[-1, 1], [-1, 1]] at dt = 1: Step 3 refuses the
    # nonlinear solve as it refuses a linear one
    form = MultiSymplecticForm(
        "pivot", ("a", "b"), [[0.0, 1.0], [-1.0, 0.0]], np.zeros((2, 2)), np.diag([4.0, -4.0]),
        (PolynomialTerm(1, 1.0, (3, 0)),),
    )
    Zb, Zl, Zr = 0.5 + 0.1 * np.random.default_rng(5).standard_normal((3, 6, 2))
    messages = []
    for _ in range(2):  # the second call raises from the kept message
        with pytest.raises(SingularUpdateError) as info:
            solve_diamonds(form, Zb, Zl, Zr, 1.0, 0.1)
        messages.append(str(info.value))
    assert messages == [
        "update pivot K/dt - P/4 is singular for 'pivot' at dt=1; "
        "the form may be structurally inconsistent, or its entries cancel"
    ] * 2
    # at dt = 0.5 the pivot is regular and the chord solves the rows
    assert integrator._diamond_kernel(form, 0.5, 0.1).step is not None
    chord = solve_diamonds(form, Zb, Zl, Zr, 0.5, 0.1)
    np.testing.assert_allclose(chord, _newton_diamonds(form, Zb, Zl, Zr, 0.5, 0.1, terms_oracle), rtol=1e-12)


def _solve_both(form, tableau):
    """The outcome of each scheme's solve on rows of 0.1: "solved" or the
    error's type and message."""
    outcomes = []
    for solve in (
        lambda: solve_diamonds(form, *np.full((3, 4, form.d), 0.1), 0.1, 0.1),
        lambda: solve_diamond_rk(form, tableau, *np.full((2, 3, 2, form.d), 0.1), 0.1, 0.1),
    ):
        try:
            solve()
            outcomes.append("solved")
        except (NewtonError, SingularUpdateError) as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


spectral_pivot_inverse = spectral._pivot_inverse
generate_kernel = msform._generate_kernel


def test_what_a_form_makes_once_is_dropped_with_it(monkeypatch):
    # kdv's pivots are singular, so Step 3 refuses both schemes' solves;
    # dirac and nls solve
    tableau = gauss_tableau(2)
    pivots, kernels = [], []
    monkeypatch.setattr(spectral, "_pivot_inverse", lambda M: pivots.append(M) or spectral_pivot_inverse(M))
    monkeypatch.setattr(msform, "_generate_kernel", lambda f, name: kernels.append(name) or generate_kernel(f, name))
    gc.collect()
    stored = len(msform._MADE)
    for name, expected in (("kdv", [SingularUpdateError] * 2), ("dirac", ["solved"] * 2), ("nls", ["solved"] * 2)):
        form = registry_get(name)
        first = _solve_both(form, tableau)
        assert [o if o == "solved" else o[0] for o in first] == expected
        # one pivot decision per scheme and at most one kernel per name,
        # however often it solves; kdv makes none, since Step 3 refuses it
        # and its linearization at zero is P itself
        made = Counter(kernels)
        assert len(pivots) == 2 and max(made.values(), default=0) <= 1
        assert not made if name == "kdv" else made
        for _ in range(2):
            assert _solve_both(form, tableau) == first
        assert len(pivots) == 2 and Counter(kernels) == made
        if name == "kdv":
            # each lookup of a singular pivot raises a new error with the first's message
            errors = []
            for _ in range(2):
                with pytest.raises(SingularUpdateError) as info:
                    integrator._step3_blocks(form, "simple", 0.1, 0.1)
                errors.append(info.value)
            del info
            assert errors[0] is not errors[1] and str(errors[0]) == str(errors[1])
            assert "'kdv'" in str(errors[0]) and len(pivots) == 2
            del errors
        ref = weakref.ref(form)
        del form
        gc.collect()
        assert ref() is None, name
        assert len(msform._MADE) == stored
        pivots.clear()
        kernels.clear()


def test_singular_newton_matrix_is_a_newton_error():
    # K = [[0, 1], [-1, 0]], L = P = 0 and S = -a^2 b at dt = 1: the pivot K
    # is regular, but Newton's matrix K - J_S/4 at a = 2 has a zero row.  From
    # corners (2, b) the chord's first step raises the residual from
    # 4 (1 + b^2)^(1/2) to (25 + 64 b^2)^(1/2), and its second step is longer
    # than its first, so the row re-linearises from the start, where that
    # matrix is singular
    form = MultiSymplecticForm(
        "newton", ("a", "b"), [[0.0, 1.0], [-1.0, 0.0]], np.zeros((2, 2)), np.zeros((2, 2)),
        (PolynomialTerm(1, -2.0, (1, 1)), PolynomialTerm(2, -1.0, (2, 0))),
    )
    rows = np.tile([2.0, 0.3], (3, 1))
    with pytest.raises(NewtonError) as info:
        solve_diamonds(form, rows, rows, rows, 1.0, 0.1)
    assert str(info.value) == "singular Newton matrix in the diamond solve"
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


@pytest.mark.parametrize("name", ["kdv", "camassa_holm", "bbm", "hunter_saxton_1", "hunter_saxton_2"])
def test_a_run_on_a_singular_pivot_ends_before_its_start(name):
    # these forms are structurally inconsistent: the run stops with Step 3's
    # message, before the box start, in both schemes
    form = registry_get(name)
    mesh = MeshParams(a=0.0, b=1.0, N=11, dt=0.05, T=0.5)

    def ic(x):
        return np.outer(0.1 * np.sin(2 * np.pi * x), np.ones(form.d))

    for scheme, message in (
        ("simple", f"update pivot K/dt - P/4 is singular for '{name}' at dt=0.05; "),
        ("rk:2", f"collocation stage matrix Q is singular for '{name}'; "),
    ):
        with pytest.raises(SingularUpdateError) as info:
            integrate(form, scheme, ic, mesh, init_method="box")
        assert str(info.value).startswith(message)


def test_unknown_init_method_is_refused():
    mesh = MeshParams(a=0.0, b=1.0, N=10, dt=0.1, T=0.2)
    with pytest.raises(ValueError) as info:
        integrate(registry_get("wave"), "simple", lambda x: np.zeros((len(x), 3)), mesh, init_method="nope")
    assert str(info.value) == "unknown init method 'nope'"


def test_nonlinear_solve_of_an_empty_batch():
    form = registry_get("nls")
    Z = np.zeros((0, 4))
    assert solve_diamonds(form, Z, Z, Z, 0.1, 0.1).shape == (0, 4)
    zt, zr = solve_diamond_rk(form, gauss_tableau(2), np.zeros((0, 2, 4)), np.zeros((0, 2, 4)), 0.1, 0.1)
    assert zt.shape == zr.shape == (0, 2, 4)


def _diamond_by_lm(form, zb, zl, zr, dt, dx):
    # evolution rows scaled by dt and constraint rows by dx, so each is O(1)
    K, L = form.K, form.L
    D = np.where(np.abs(K).sum(axis=1) > 0, dt, dx)

    def f(zt):
        avg = 0.25 * (zt + zb + zl + zr)
        return D * (K @ (zt - zb) / dt + L @ (zr - zl) / dx - eval_grad_S(form, avg))

    def jac(zt):
        return D[:, None] * (K / dt - 0.25 * eval_jac_S(form, 0.25 * (zt + zb + zl + zr)))

    return root(f, zb, jac=jac, method="lm", options={"xtol": 1e-15, "ftol": 1e-15}).x


def test_chord_batch_with_newton_rows_matches_scipy_root(monkeypatch):
    form, mesh, values = _nls_start(4e-5)
    Zb, Zl, Zr = (Z[::12] for Z in _half_step_corners(values))
    amp = np.ones(len(Zb))
    amp[::4] = 20.0  # there the chord contracts too slowly and re-linearises
    Zb, Zl, Zr = (amp[:, None] * Z for Z in (Zb, Zl, Zr))
    jacobian_rows = _record_jacobians(monkeypatch)
    got = solve_diamonds(form, Zb, Zl, Zr, mesh.dt, mesh.dx)
    # those rows re-linearise once, and their own matrix solves them
    assert len(jacobian_rows) == 1 and 0 < jacobian_rows[0] < len(Zb)
    for i in range(len(Zb)):
        ref = _diamond_by_lm(form, Zb[i], Zl[i], Zr[i], mesh.dt, mesh.dx)
        assert np.abs(got[i] - ref).max() <= 1e-10 * (1.0 + np.abs(ref).max())
        # each row re-linearises and stops on its own, and every product is
        # a column or stacked product, so it is its one-row call bit for bit
        assert np.array_equal(solve_diamonds(form, Zb[i], Zl[i], Zr[i], mesh.dt, mesh.dx)[0], got[i])


def _record_jacobians(monkeypatch):
    """The number of points of each integrator.eval_jac_S call from here on."""
    calls = []
    original = integrator.eval_jac_S

    def recorded(form, z):
        calls.append(len(z))
        return original(form, z)

    monkeypatch.setattr(integrator, "eval_jac_S", recorded)
    return calls


def test_chord_needs_no_jacobian_on_the_bounded_nls_run(monkeypatch):
    form, mesh, values = _nls_start(2.5e-6)
    calls = _record_jacobians(monkeypatch)
    run = MeshParams(mesh.a, mesh.b, mesh.N, mesh.dt, 20 * mesh.dt)
    res = integrate(form, "simple", nls_two_soliton_ic(), run, observers=(),
                    exact=lambda x, t: values[1::2], init_method="exact")
    assert res.status == "completed" and res.state.step == 20
    assert calls == []


def test_layer_counts_on_the_dirac_breather_run(monkeypatch):
    # about 28 of the 160 rows of a half-step re-linearise, once each
    form, mesh, values = _dirac_start()
    ic, exact = dirac_breather(form.param("m"), form.param("lam"), 0.5)
    run = MeshParams(mesh.a, mesh.b, mesh.N, mesh.dt, 10 * mesh.dt)
    jacobians, residuals = _record_jacobians(monkeypatch), []
    kernel = integrator._diamond_kernel

    def counted_kernel(*args):
        made = kernel(*args)
        return dataclasses.replace(made, residual=lambda *a: residuals.append(1) or made.residual(*a))

    monkeypatch.setattr(integrator, "_diamond_kernel", counted_kernel)

    def per_solve(scheme, name):
        """Jacobian and kernel residual calls per call of the solve ``name``."""
        solve, solves = getattr(integrator, name), []
        jacobians.clear(), residuals.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integrator, name, lambda *args: solves.append(1) or solve(*args))
            assert integrate(form, scheme, ic, run, observers=(), exact=exact).status == "completed"
        assert len(solves) == 20
        return len(jacobians) / len(solves), len(residuals) / len(solves)

    # the chord, then Newton on the rows it left, took 2.0 and 7.0
    jacobians_per_solve, residuals_per_solve = per_solve("simple", "solve_diamonds")
    assert 0 < jacobians_per_solve <= 1.1 and residuals_per_solve <= 5.1
    # and 3.0 Jacobians per collocation solve
    jacobians_per_solve, _ = per_solve("rk:2", "solve_diamond_rk")
    assert 0 < jacobians_per_solve <= 1.0


def test_relinearised_rows_equal_their_one_row_calls(monkeypatch):
    # the first half-step of the breather run in both schemes, where some of
    # the rows step with their own matrix
    form, mesh, values = _dirac_start()
    ic, exact = dirac_breather(form.param("m"), form.param("lam"), 0.5)
    tableau = gauss_tableau(2)
    edges = init_edges_rk(form, tableau, ic, mesh, exact=exact)
    jacobian_rows = _record_jacobians(monkeypatch)
    for solve, corners in (
        (lambda *c: solve_diamonds(form, *c, mesh.dt, mesh.dx), _half_step_corners(values)),
        (lambda *c: np.concatenate(solve_diamond_rk(form, tableau, *c, mesh.dt, mesh.dx), axis=-2),
         (edges[0::2], np.roll(edges[1::2], 1, axis=0))),
    ):
        jacobian_rows.clear()
        batch = solve(*corners)
        assert len(jacobian_rows) == 1 and 0 < jacobian_rows[0] < len(batch)
        for i in range(len(batch)):
            one = solve(*(Z[i] for Z in corners))
            assert np.array_equal(one.reshape(batch[i].shape), batch[i])


@pytest.mark.parametrize("case", ["nls-2.5e-6", "nls-4e-5", "dirac"])
def test_predicted_start_solves_to_the_bottom_start_solution(case):
    if case == "dirac":
        form, mesh, z0 = _dirac_start()
        ic = dirac_breather(form.param("m"), form.param("lam"), 0.5)[0]
    else:
        form, mesh, z0 = _nls_start(float(case[4:]))
        ic = nls_two_soliton_ic()
    run = MeshParams(mesh.a, mesh.b, mesh.N, mesh.dt, mesh.dt)
    z1 = integrate(form, "simple", ic, run, observers=(), exact=lambda x, t: z0[1::2], init_method="exact").state.values
    # the start integrate takes for the second step
    guess = 2.0 * z1 - z0
    Zb, Zl, Zr = _half_step_corners(z1)
    for half in range(2):
        bottom = solve_diamonds(form, Zb, Zl, Zr, mesh.dt, mesh.dx)
        predicted = solve_diamonds(form, Zb, Zl, Zr, mesh.dt, mesh.dx, guess[half::2])
        assert _relative_gap(predicted, bottom) <= 1e-12
        Zb, Zl, Zr = z1[1::2], bottom, np.roll(bottom, -1, axis=0)


# the bounded run of acceptance 10 (box start) after 400 steps, computed by
# the solver without the time predictor, mask or generated kernel: energies
# at t = 0, 1e-3/4, ..., 1e-3 and (row, state) pairs of the zig-zag state
NLS_400_ENERGIES = [11.502058708287914, 11.554470240236887, 11.576030135192505, 11.577153753830792,
                    11.577285761463163]
NLS_400_ROWS = {
    284: [1.2434543725754357, -2.211064787147553, -0.3407298720633771, 4.5046954428223],
    285: [1.2143042729322766, -1.9812705783918572, -0.826339395133698, 4.68683967945106],
    300: [0.26842900818641213, -0.13244835163714472, -0.7019839106231719, 0.5956032590518575],
    450: [-1.603105235980918e-06, -2.1255935681472757e-06, 0.08503727661155602, -0.06528905731560627],
    650: [0.12419464912730922, -0.01075423259689682, 0.29580046956386497, -0.11925792168025245],
    700: [-0.1592624588023482, -0.38681439617542857, 0.09516673247203489, 1.0529382787087753],
}


def test_bounded_nls_run_keeps_its_400_step_values():
    form = registry_get("nls")
    mesh = MeshParams(a=-24.0, b=24.0, N=480, dt=2.5e-6, T=400 * 2.5e-6)
    res = integrate(form, "simple", nls_two_soliton_ic(), mesh, observers=("energy",), init_method="box")
    assert res.status == "completed" and res.state.step == 400
    np.testing.assert_allclose(res.energies, NLS_400_ENERGIES, rtol=1e-9, atol=0)
    rows = list(NLS_400_ROWS)
    ref = np.array([NLS_400_ROWS[i] for i in rows])
    assert np.abs(res.state.values[rows] - ref).max() <= 1e-9 * np.abs(ref).max()


@pytest.mark.parametrize("scheme", ["simple", "rk:2"])
def test_doubling_K_and_dt_leaves_the_dirac_breather_run_unchanged(scheme):
    # 2K z_t + L z_x = grad S is solved by z(x, t/2): with dt -> 2dt and
    # T -> 2T the run takes the same steps, and since K/dt keeps its bits
    # it ends in the same state bit for bit
    form = registry_get("dirac")
    ic, exact = dirac_breather(form.param("m"), form.param("lam"), 0.5)
    doubled = dataclasses.replace(form, K=2.0 * form.K)
    states = []
    for f, dt, start in ((form, 0.2, exact), (doubled, 0.4, lambda x, t: exact(x, t / 2.0))):
        mesh = MeshParams(a=-24.0, b=24.0, N=160, dt=dt, T=10 * dt)
        res = integrate(f, scheme, ic, mesh, observers=(), exact=start)
        assert res.status == "completed"
        states.append(res.state.values if scheme == "simple" else res.edge_state)
    assert np.array_equal(states[0], states[1])


def test_nonfinite_row_reaches_newton_and_leaves_the_others_alone(monkeypatch):
    form, mesh, values = _nls_start(4e-5)
    Zb, Zl, Zr = (Z[::40].copy() for Z in _half_step_corners(values))
    Zl[3, 1] = np.nan
    solved = []
    solve_nonlinear = integrator._solve_nonlinear

    def recorded_solve(*args):
        Z, res = solve_nonlinear(*args)
        solved.append(Z.copy())
        return Z, res

    monkeypatch.setattr(integrator, "_solve_nonlinear", recorded_solve)
    jacobian_rows = _record_jacobians(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NewtonError, match=r"rows \[3\]"):
            solve_diamonds(form, Zb, Zl, Zr, mesh.dt, mesh.dx)
    # the NaN row's chord step is not finite, so it re-linearises alone, and
    # its own step is not finite either, so it stops there
    assert jacobian_rows == [1]
    for i in range(len(Zb)):
        if i != 3:
            assert np.array_equal(solve_diamonds(form, Zb[i], Zl[i], Zr[i], mesh.dt, mesh.dx)[0], solved[0][i])


@pytest.mark.filterwarnings("error")
def test_rows_that_finish_early_raise_no_warning():
    # zero rows are solved at once with a zero step; the NLS rows go on, so
    # the full-batch chord meets the finished rows' 0 / 0 rates
    form, mesh, values = _nls_start(2.5e-6)
    Zb, Zl, Zr = (np.concatenate([np.zeros((5, 4)), Z]) for Z in _half_step_corners(values))
    Zt = solve_diamonds(form, Zb, Zl, Zr, mesh.dt, mesh.dx)
    assert np.array_equal(Zt[:5], np.zeros((5, 4)))


def test_nonfinite_values_fail_convergence_tests():
    nls = registry_get("nls")
    Z = np.zeros((3, 4))
    Z[1, 0] = np.nan
    with pytest.raises(NewtonError, match=r"rows \[1\]"):
        solve_diamonds(nls, Z, Z, Z, 0.1, 0.1)
    zb = np.zeros((3, 2, 4))
    zb[2, 0, 1] = np.nan
    with pytest.raises(NewtonError, match=r"rows \[2\]"):
        solve_diamond_rk(registry_get("dirac"), gauss_tableau(2), zb, zb, 0.1, 0.1)
    # cubic terms overflow at this amplitude: the box Newton meets inf and NaN
    mesh = MeshParams(a=0.0, b=2.0, N=8, dt=0.05, T=0.5)
    with np.errstate(all="ignore"), pytest.raises(NewtonError, match="box initialization"):
        init_half_step(nls, lambda x: np.full(4, 1e200), mesh, method="box")


@pytest.mark.parametrize("dt", [1e-7, 1e-8, 1e-9, 1e-10])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_collocation_solve_accepts_small_time_steps(r, dt):
    # the stage residual carries Q's K/dt entries, so the acceptance
    # tolerance scales with them, as the simple scheme's does
    zb, zl = 0.5 * np.random.default_rng(0).standard_normal((2, 6, r, 4))
    zt, zr = solve_diamond_rk(registry_get("dirac"), gauss_tableau(r), zb, zl, dt, 0.1)
    assert np.isfinite(zt).all() and np.isfinite(zr).all()


def test_truncated_solves_are_refused(monkeypatch):
    form, mesh, values = _dirac_start()
    zb, zl = 0.5 * np.random.default_rng(0).standard_normal((2, 6, 2, 4))
    monkeypatch.setattr(integrator, "_MAX_ITER", 1)
    with pytest.raises(NewtonError, match="did not converge"):
        solve_diamond_rk(form, gauss_tableau(2), zb, zl, 0.2, 0.1)
    with pytest.raises(NewtonError, match="did not converge"):
        solve_diamonds(form, *_half_step_corners(values), mesh.dt, mesh.dx)


@pytest.mark.parametrize("scheme,init", [("simple", "exact"), ("simple", "box"), ("rk:2", "exact"), ("rk:2", "box")])
def test_integrate_rejects_nonfinite_initial_state(scheme, init):
    form = registry_get("nls")
    mesh = MeshParams(a=0.0, b=2.0, N=8, dt=0.05, T=0.5)

    def nan(x, t=0.0):
        return np.full((np.size(x), 4), np.nan)

    exact = nan if init == "exact" else None
    with pytest.raises(ValueError, match="not finite"):
        integrate(form, scheme, nan, mesh, observers=(), exact=exact, init_method=init)


@pytest.mark.parametrize("scheme", ["simple", "rk:1"])
def test_integrate_overflow_is_divergence(scheme):
    # no finite bound: only the non-finite test can stop the unstable run
    form = registry_get("mixed_kg")
    ic, exact = mixed_kg_cosine(form.param("a"))
    mesh = MeshParams(a=-1.0, b=1.0, N=40, dt=1e-3, T=1.0)
    with np.errstate(all="ignore"):
        res = integrate(
            form, scheme, lambda x: 1e300 * ic(x), mesh, observers=("norms",),
            exact=lambda x, t: 1e300 * exact(x, t), blowup=np.inf,
        )
    assert res.status == "diverged"
    assert res.diverged_at < mesh.T
    # both schemes sample t = 0, so a diverged run still reports its start
    assert res.times[0] == 0.0 and len(res.norms) == len(res.times)
    assert np.isfinite(res.norms[0])


def test_discrete_conservation_random_pairs():
    rng = np.random.default_rng(31)
    for name in ("wave", "linear_kg", "dirac"):
        form = registry_get(name)
        lin = linearize(form, np.zeros(form.d))
        for _ in range(100):
            pair = random_tangent_pair(lin, 0.01, 0.1, rng)
            assert abs(verify_discrete_conservation(lin, 0.01, 0.1, pair)) <= 1e-10


def test_discrete_conservation_identical_tangent_is_exactly_zero():
    rng = np.random.default_rng(33)
    lin = linearize(registry_get("wave"), np.zeros(3))
    xi, _ = random_tangent_pair(lin, 0.01, 0.1, rng)
    assert verify_discrete_conservation(lin, 0.01, 0.1, (xi, xi)) == 0.0


def test_conservation_rejects_bad_tangent():
    rng = np.random.default_rng(34)
    lin = linearize(registry_get("wave"), np.zeros(3))
    xi, eta = random_tangent_pair(lin, 0.01, 0.1, rng)
    xi = dict(xi)
    xi["t"] = xi["t"] + 1.0
    with pytest.raises(ValueError, match="tangent"):
        verify_discrete_conservation(lin, 0.01, 0.1, (xi, eta))


def test_dirac_short_run_energy():
    form = registry_get("dirac")
    ic, exact = dirac_breather(form.param("m"), form.param("lam"))
    mesh = MeshParams(a=-24.0, b=24.0, N=160, dt=0.2, T=2.0)
    res = integrate(form, "simple", ic, mesh, observers=("energy",), exact=exact)
    assert res.status == "completed"
    drift = np.abs(res.energies - res.energies[0]).max() / abs(res.energies[0])
    assert drift <= 1e-2


def test_nls_two_soliton_ic_derivative_consistency():
    ic = nls_two_soliton_ic()
    xs = np.linspace(-15.0, 15.0, 11)
    h = 1e-6
    z = ic(xs)
    dp = (ic(xs + h)[:, 0] - ic(xs - h)[:, 0]) / (2 * h)
    dq = (ic(xs + h)[:, 1] - ic(xs - h)[:, 1]) / (2 * h)
    np.testing.assert_allclose(z[:, 2], dp, atol=1e-6)
    np.testing.assert_allclose(z[:, 3], dq, atol=1e-6)
