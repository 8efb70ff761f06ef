import math
import multiprocessing

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from diamondstab import spectral
from diamondstab.integrator import gauss_tableau, solve_diamond_rk, solve_diamonds
from diamondstab.msform import (
    LinearizedForm,
    linearize,
    nls_constant_amplitude_linearization,
    registry_get,
)
from diamondstab.spectral import (
    Criterion,
    SingularUpdateError,
    SymbolFamily,
    assemble_full_update_matrix,
    assemble_full_update_matrix_rk,
    assemble_symbol_family_rk,
    assemble_symbol_family_simple,
    build_blocks_rk,
    build_blocks_simple,
    build_m1_m2,
    spectral_verdict,
    stability_boundary_sweep,
    symbol_family,
)


def lin_for(name):
    form = registry_get(name)
    return linearize(form, np.zeros(form.d))


def greedy_residual(ev_a, ev_b):
    used = np.zeros(len(ev_b), bool)
    worst = 0.0
    for lam in ev_a:
        d = np.abs(ev_b - lam)
        d[used] = np.inf
        j = int(np.argmin(d))
        used[j] = True
        worst = max(worst, d[j])
    return worst


@pytest.mark.parametrize("dt,dx", [(0.2, 0.1), (0.01, 0.05)])
def test_wave_blocks_printed_entries(dt, dx):
    bl = build_blocks_simple(lin_for("wave"), dt, dx)
    B = [[1, dt / 2, 0], [0, 1, 0], [0, 0, -1]]
    Am = [[0, dt / 4, -dt * dt / (4 * dx)], [0, 0, -dt / dx], [-4 / dx, 0, -1]]
    Ap = [[0, dt / 4, dt * dt / (4 * dx)], [0, 0, dt / dx], [4 / dx, 0, -1]]
    assert np.abs(bl.B - B).max() <= 1e-12
    assert np.abs(bl.Am - Am).max() <= 1e-12
    assert np.abs(bl.Ap - Ap).max() <= 1e-12


def test_zero_P_blocks_reduce_to_transport():
    K = np.array([[0.0, -1.0], [1.0, 0.0]])
    L = np.array([[0.0, 0.5], [-0.5, 0.0]])
    lin = LinearizedForm("toy", ("a", "b"), K, L, np.zeros((2, 2)), np.zeros(2))
    dt, dx = 0.05, 0.2
    bl = build_blocks_simple(lin, dt, dx)
    np.testing.assert_allclose(bl.B, np.eye(2), atol=1e-14)
    ref = dt / dx * np.linalg.solve(K, L)
    np.testing.assert_allclose(bl.Am, ref, atol=1e-14)
    np.testing.assert_allclose(bl.Ap, -ref, atol=1e-14)


def test_advection_blocks_raise_singular():
    with pytest.raises(SingularUpdateError, match="inconsistent"):
        build_blocks_simple(lin_for("advection"), 0.1, 0.1)


def test_similarity_wave_float_paths():
    # floating-point noise floor for the defective wave spectrum sits near
    # sqrt(machine eps); the acceptance suite re-runs this in exact/extended
    # arithmetic at the 1e-8 tolerance
    lin = lin_for("wave")
    M = assemble_full_update_matrix(lin, 0.05, 0.1, 8)
    fam = assemble_symbol_family_simple(build_blocks_simple(lin, 0.05, 0.1), 8)
    ev_F = np.concatenate([np.linalg.eigvals(fam.symbol(k)) for k in range(8)])
    assert greedy_residual(np.linalg.eigvals(M), ev_F) < 1e-6


def test_zero_blocks_give_zero_family():
    fam = SymbolFamily(np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 4)), 8)
    assert np.abs(fam.symbol(3)).max() == 0.0


def test_m1_corner_block_is_Am():
    lin = lin_for("wave")
    N, d = 4, 3
    bl = build_blocks_simple(lin, 0.05, 0.1)
    M1, M2 = build_m1_m2(lin, 0.05, 0.1, N)
    np.testing.assert_array_equal(M1[0:d, (2 * N - 1) * d :], bl.Am)
    np.testing.assert_array_equal(M2[(2 * N - 1) * d :, 0:d], bl.Ap)


def test_full_matrix_matches_one_integrate_step():
    form = registry_get("wave")
    lin = linearize(form, np.zeros(3))
    N = 4
    dt, dx = 0.05, 0.1
    M = assemble_full_update_matrix(lin, dt, dx, N)
    rng = np.random.default_rng(2)
    state = rng.standard_normal((2 * N, 3))
    ref = (M @ state.reshape(-1)).reshape(2 * N, 3)
    vals = state.copy()
    evens, odds = vals[0::2], vals[1::2]
    vals[0::2] = solve_diamonds(form, evens, np.roll(odds, 1, axis=0), odds, dt, dx)
    evens, odds = vals[0::2], vals[1::2]
    vals[1::2] = solve_diamonds(form, odds, evens, np.roll(evens, -1, axis=0), dt, dx)
    assert np.abs(vals - ref).max() < 1e-10


def test_identity_family_stable_under_strict():
    d = 4
    fam = SymbolFamily(np.eye(d), np.zeros((d, d)), np.zeros((d, d)), 16)
    v = spectral_verdict(fam, Criterion("strict"))
    assert v.stable and abs(v.dominant_all - 1.0) < 1e-14


def test_frequency_symmetry():
    for name in ("wave", "linear_kg", "dirac", "good_boussinesq"):
        fam = assemble_symbol_family_simple(build_blocks_simple(lin_for(name), 0.05, 0.1), 12)
        for k in range(1, 6):
            a = np.sort(np.abs(np.linalg.eigvals(fam.symbol(k))))
            b = np.sort(np.abs(np.linalg.eigvals(fam.symbol(12 - k))))
            np.testing.assert_allclose(a, b, atol=1e-10)


# -- collocation blocks ------------------------------------------------------


def test_rk_blocks_alpha_values():
    for r, expected in ((1, 2.0), (2, 0.0), (3, 2.0)):
        assert abs(gauss_tableau(r).alpha - expected) < 1e-12


def _stage_solve_oracle(stage_matrix, form, tab, zb, zl, dt, dx):
    """One collocation diamond by a dense stage solve.  Stage Z[i, j] (spatial
    node i, temporal node j) solves Peff Z[i, j] = Ktil (F Z[i, :] - mu zb[i])_j
    + Ltil (F Z[:, j] - mu zl[j])_i, i.e. Q Z = -(mu_j Ktil zb[i] + mu_i Ltil zl[j])."""
    r, d = tab.r, form.d
    Ktil, Ltil = form.K / dt - form.L / dx, form.K / dt + form.L / dx
    rhs = np.array([
        [-(tab.mu[j] * Ktil @ zb[i] + tab.mu[i] * Ltil @ zl[j]) for j in range(r)] for i in range(r)
    ])
    Q = stage_matrix(linearize(form, np.zeros(d)), tab.F, dt, dx)
    Z = np.linalg.solve(Q, rhs.reshape(-1)).reshape(r, r, d)
    zt = (1.0 - tab.alpha) * zb + np.einsum("j,ijc->ic", tab.beta, Z)
    zr = (1.0 - tab.alpha) * zl + np.einsum("i,ijc->jc", tab.beta, Z)
    return zt, zr


def test_rk_blocks_match_diamond_solver(stage_matrix):
    dt, dx = 0.2, 0.1
    rng = np.random.default_rng(4)
    for name in ("wave", "linear_kg"):
        form = registry_get(name)
        for r in (1, 2, 3):
            tab = gauss_tableau(r)
            bl = build_blocks_rk(lin_for(name), tab, dt, dx)
            zb, zl = rng.standard_normal((2, 5, r, form.d))
            zt, zr = solve_diamond_rk(form, tab, zb, zl, dt, dx)
            for n in range(5):
                bt = bl.Clt @ zl[n].reshape(-1) + bl.Cbt @ zb[n].reshape(-1)
                br = bl.Clr @ zl[n].reshape(-1) + bl.Cbr @ zb[n].reshape(-1)
                np.testing.assert_allclose(zt[n].reshape(-1), bt, atol=1e-12)
                np.testing.assert_allclose(zr[n].reshape(-1), br, atol=1e-12)
                ref_t, ref_r = _stage_solve_oracle(stage_matrix, form, tab, zb[n], zl[n], dt, dx)
                scale = np.abs(np.concatenate([ref_t, ref_r])).max()
                np.testing.assert_allclose(zt[n], ref_t, rtol=0, atol=1e-12 * scale, err_msg=f"{name} r={r}")
                np.testing.assert_allclose(zr[n], ref_r, rtol=0, atol=1e-12 * scale, err_msg=f"{name} r={r}")


def test_rk_blocks_kdv_singular():
    with pytest.raises(SingularUpdateError, match="high-order"):
        build_blocks_rk(lin_for("kdv"), gauss_tableau(2), 0.1, 0.1)


def test_rk_one_minus_alpha_coefficient_r2():
    bl = build_blocks_rk(lin_for("wave"), gauss_tableau(2), 0.2, 0.1)
    assert abs((1.0 - gauss_tableau(2).alpha) - 1.0) < 1e-12


def test_rk_family_matches_explicit_assembly():
    lin = lin_for("wave")
    bl = build_blocks_rk(lin, gauss_tableau(1), 0.1, 0.2)
    N = 8
    fam = assemble_symbol_family_rk(bl, N)
    M = assemble_full_update_matrix_rk(bl, N)
    ev_F = np.concatenate([np.linalg.eigvals(fam.symbol(k)) for k in range(N)])
    assert greedy_residual(np.linalg.eigvals(M), ev_F) < 1e-6


def _np_kron_rk_blocks(lin, tableau, dt, dx):
    """Q, Db, Dl, Tt and Tr by the np.kron formulas of the stage system."""
    r, d = tableau.r, lin.d
    Ktil, Ltil, Ir = lin.K / dt - lin.L / dx, lin.K / dt + lin.L / dx, np.eye(r)
    Q = np.kron(np.eye(r * r), lin.Peff) - np.kron(Ir, np.kron(tableau.F, Ktil)) - np.kron(tableau.F, np.kron(Ir, Ltil))
    Db = -np.kron(Ir, np.kron(tableau.mu[:, None], Ktil))
    Dl = -np.kron(tableau.mu[:, None], np.kron(Ir, Ltil))
    Tt = np.kron(Ir, np.kron(tableau.beta[None, :], np.eye(d)))
    Tr = np.kron(tableau.beta[None, :], np.eye(r * d))
    return Q, Db, Dl, Tt, Tr


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("name", ["wave", "linear_kg", "dirac", "good_boussinesq"])
def test_block_builders_match_kron_and_block_formulas_bit_for_bit(name, r):
    lin, tab, dt, dx = lin_for(name), gauss_tableau(r), 0.07, 0.13
    Q, Db, Dl, Tt, Tr = _np_kron_rk_blocks(lin, tab, dt, dx)
    bl = build_blocks_rk(lin, tab, dt, dx)
    for got, want in [(bl.Q, Q), (bl.Db, Db), (bl.Dl, Dl)]:
        assert got.tobytes() == want.tobytes()
    Qinv, Idr = np.linalg.inv(Q), np.eye(lin.d * r)
    assert bl.Clt.tobytes() == (Tt @ Qinv @ Dl).tobytes()
    assert bl.Cbt.tobytes() == ((1.0 - tab.alpha) * Idr + Tt @ Qinv @ Db).tobytes()
    assert bl.Clr.tobytes() == ((1.0 - tab.alpha) * Idr + Tr @ Qinv @ Dl).tobytes()
    assert bl.Cbr.tobytes() == (Tr @ Qinv @ Db).tobytes()
    O = np.zeros_like(bl.Clt)
    fam = assemble_symbol_family_rk(bl, 9)
    assert fam.C0.tobytes() == np.block([[bl.Clt @ bl.Cbr, bl.Cbt @ bl.Clt], [bl.Clr @ bl.Cbr, bl.Cbr @ bl.Clt]]).tobytes()
    assert fam.Cp.tobytes() == np.block([[bl.Cbt @ bl.Cbt, O], [bl.Cbr @ bl.Cbt, O]]).tobytes()
    assert fam.Cm.tobytes() == np.block([[O, bl.Clt @ bl.Clr], [O, bl.Clr @ bl.Clr]]).tobytes()
    sb = build_blocks_simple(lin, dt, dx)
    I, O = np.eye(lin.d), np.zeros((lin.d, lin.d))
    X1, Y1 = np.block([[sb.B, sb.Ap], [O, I]]), np.block([[O, sb.Am], [O, O]])
    X2, Y2 = np.block([[I, O], [sb.Am, sb.B]]), np.block([[O, O], [sb.Ap, O]])
    fam = assemble_symbol_family_simple(sb, 9)
    assert fam.C0.tobytes() == (X2 @ X1 + Y2 @ Y1).tobytes()
    assert fam.Cp.tobytes() == (Y2 @ X1).tobytes() and fam.Cm.tobytes() == (X2 @ Y1).tobytes()


def test_rk_lkg_nonzero_modes_bounded_below_cfl():
    lin = lin_for("linear_kg")
    bl = build_blocks_rk(lin, gauss_tableau(2), 0.05, 0.1)
    fam = assemble_symbol_family_rk(bl, 20)
    worst = max(np.abs(np.linalg.eigvals(fam.symbol(k))).max() for k in range(1, 20))
    assert worst <= 1.0 + 1e-9


def test_similarity_all_linear_consistent_forms():
    # advection is excluded (singular pivot).  The identity eig(M) = U_k
    # eig(Lambda_k) is checked through the underlying block-circulant
    # structure, which is exact up to roundoff even where the spectra are
    # too ill-conditioned to compare in floating point (the mixed-derivative
    # symbol has a near-defective unit cluster at matrix norm ~1e5).
    for name in ("wave", "linear_kg", "mixed_kg"):
        lin = lin_for(name)
        d = lin.d
        for N in (4, 8):
            M = assemble_full_update_matrix(lin, 0.05, 0.1, N)
            fam = assemble_symbol_family_simple(build_blocks_simple(lin, 0.05, 0.1), N)
            m = 2 * d
            scale = max(np.abs(fam.C0).max(), np.abs(fam.Cp).max(), np.abs(fam.Cm).max(), 1.0)
            for i in range(N):
                for j in range(N):
                    blk = M[i * m : (i + 1) * m, j * m : (j + 1) * m]
                    off = (j - i) % N
                    ref = {0: fam.C0, 1: fam.Cp, N - 1: fam.Cm}.get(off, np.zeros((m, m)))
                    assert np.abs(blk - ref).max() <= 1e-12 * scale, (name, N, i, j)


def test_rk_zero_coupling_family_constant_in_k():
    d = 3
    fam = SymbolFamily(np.diag([1.0, 2.0, 3.0]), np.zeros((d, d)), np.zeros((d, d)), 6)
    for k in range(6):
        np.testing.assert_array_equal(fam.symbol(k), np.diag([1.0, 2.0, 3.0]))


# -- verdicts and sweeps -----------------------------------------------------


def test_growth_criterion_requires_dt():
    fam = SymbolFamily(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), 4)
    with pytest.raises(ValueError, match="dt"):
        spectral_verdict(fam, Criterion("growth"))


def test_unknown_criterion_kind_is_refused_at_construction():
    with pytest.raises(ValueError, match="unknown criterion kind 'nozer'"):
        Criterion("nozer")


@pytest.mark.parametrize("theta", ["0", "-1", "1", "0.5", "inf", "nan"])
def test_growth_criterion_refuses_theta_that_never_decides(theta):
    # max |lambda| >= 1 for the reciprocal spectra, so theta <= 1 never
    # passes, theta = inf always does and theta = nan decides nothing
    with pytest.raises(ValueError, match="theta"):
        Criterion("growth", theta=float(theta))


def test_nozero_needs_a_nonzero_mode():
    fam = batch_family("linear_kg", 1, dt=0.025, dx=0.05)
    with pytest.raises(ValueError, match="nozero"):
        spectral_verdict(fam, Criterion("nozero"))
    v = spectral_verdict(fam, Criterion("strict"))
    assert v.k_dominant == v.k_dominant_nonzero == 0


def test_lkg_boundary_tracks_dx():
    lin = lin_for("linear_kg")
    res = stability_boundary_sweep(lin, "simple", 4.0, [0.4, 0.2, 0.1], Criterion("nozero"))
    for p in res.points:
        assert p.dt_max is not None
        assert 0.8 <= p.dt_max / p.dx <= 1.0 + 1e-6
    assert res.slope == pytest.approx(1.0, abs=0.1)


def test_nls_growth_pair_at_paper_domain():
    lin = nls_constant_amplitude_linearization(9.0, 2.0)
    crit = Criterion("growth", theta=1.1)
    fam = assemble_symbol_family_simple(build_blocks_simple(lin, 2.5e-6, 0.1), 480)
    assert spectral_verdict(fam, crit, dt=2.5e-6).stable
    fam = assemble_symbol_family_simple(build_blocks_simple(lin, 3.33e-6, 0.1), 480)
    assert not spectral_verdict(fam, crit, dt=3.33e-6).stable


def test_sweep_slope_dominates_step2_exponent():
    # the empirical boundary exponent can only be at least the necessary one
    from diamondstab.pipeline import run_pipeline

    cases = [
        ("wave", Criterion("nozero"), [0.4, 0.2, 0.1]),
        ("linear_kg", Criterion("nozero"), [0.4, 0.2, 0.1]),
        ("dirac", Criterion("nozero"), [0.4, 0.2, 0.1]),
        ("good_boussinesq", Criterion("strict"), [0.4, 0.2, 0.1]),
        ("nls", Criterion("growth", theta=1.1), [0.4, 0.2, 0.1]),
    ]
    for name, crit, dxs in cases:
        report = run_pipeline(registry_get(name), stop_after=2)
        s_lo = report.verdict.s_lo
        res = stability_boundary_sweep(report.lin, "simple", 4.0, dxs, crit)
        assert res.slope is not None
        assert res.slope >= float(s_lo) - 0.15, (name, res.slope, s_lo)


def test_mixed_kg_spectrally_unstable_everywhere():
    lin = lin_for("mixed_kg")
    for dt in (1e-2, 1e-4, 1e-6):
        for dx in (0.2, 0.1, 0.05):
            fam = assemble_symbol_family_simple(build_blocks_simple(lin, dt, dx), 16)
            v = spectral_verdict(fam, Criterion("strict"))
            assert v.dominant_all > 1.0 + 1e-6


# -- the batched verdict against the per-k loop -------------------------------

BATCH_FAMILIES = {
    "wave": ("wave", "simple"),
    "linear_kg": ("linear_kg", "simple"),
    "dirac": ("dirac", "simple"),
    "good_boussinesq": ("good_boussinesq", "simple"),
    "nls_rho9": ("nls_rho9", "simple"),
    "wave_rk2": ("wave", 2),
    "dirac_rk2": ("dirac", 2),
}


def batch_family(name, N, dt=0.05, dx=0.1):
    form, scheme = BATCH_FAMILIES[name]
    lin = nls_constant_amplitude_linearization(9.0, 2.0) if form == "nls_rho9" else lin_for(form)
    return symbol_family(lin, "simple" if scheme == "simple" else gauss_tableau(scheme), dt, dx, N)


def loop_moduli(fam):
    return np.array([np.abs(np.linalg.eigvals(fam.symbol(k))).max() for k in range(fam.N)])


@pytest.mark.parametrize("N", [1, 2, 3, 8, 33, 64, 65, 800])
@pytest.mark.parametrize("name", list(BATCH_FAMILIES))
def test_batched_verdict_matches_per_k_loop(name, N):
    fam = batch_family(name, N)
    v = spectral_verdict(fam, Criterion("strict"))
    per_k, loop = spectral._dominant_moduli(fam), loop_moduli(fam)
    half = N // 2 + 1
    assert len(per_k) == N
    # k <= N/2 are evaluated: the same bits as one eigvals call per k
    np.testing.assert_array_equal(per_k[:half], loop[:half])
    # k > N/2 are mirrored from N - k.  Near k = 0 the wave and linear_kg
    # symbols are nearly defective, and the loop's own values at k and N - k
    # differ by up to 2e-12 (N = 800), so the bound is 1e-11, not 1e-12
    tail = loop[half:]
    assert np.all(np.abs(per_k[half:] - tail) <= 1e-11 * np.maximum(1.0, tail))
    assert v.dominant_all == per_k.max() and v.dominant_all == per_k[v.k_dominant]
    assert 0 <= v.k_dominant <= N // 2
    if N > 1:
        assert v.dominant_nonzero == per_k[1:].max() == per_k[v.k_dominant_nonzero]
        assert 1 <= v.k_dominant_nonzero <= N // 2


def complex_family(N):
    # complex blocks: every k is evaluated, none mirrored
    rng = np.random.default_rng(3)
    m = 4
    C0 = rng.standard_normal((m, m)) + 0.3j * np.eye(m)
    return SymbolFamily(C0, rng.standard_normal((m, m)), rng.standard_normal((m, m)), N)


def pooled_moduli(fam, monkeypatch, chunk):
    """_dominant_moduli on the pool with ``chunk`` phases per eigvals call,
    and how many calls took the pool."""
    calls = []
    pool = spectral._eigvals_pool
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_WORKERS", 2)
        patch.setattr(spectral, "_MIN_CHUNK", chunk)
        patch.setattr(spectral, "_GIL_FREE_SIZE", 0)
        patch.setattr(spectral, "_eigvals_pool", lambda: calls.append(1) or pool())
        return spectral._dominant_moduli(fam), len(calls)


@pytest.mark.parametrize("N", [64, 65, 800])
@pytest.mark.parametrize("name", [*BATCH_FAMILIES, "complex"])
def test_pool_and_serial_paths_give_the_loops_bits(name, N, monkeypatch):
    fam = complex_family(N) if name == "complex" else batch_family(name, N)
    n = spectral._evaluated(fam)
    # the pool forced on, with 8 phases per chunk and with the default rule
    # (several chunks, of at least that many phases, at N = 800 only), then
    # the serial path of one core
    forced, took = pooled_moduli(fam, monkeypatch, 8)
    assert took == 1
    chunk = max(32, 500 // fam.block_size + 1)
    default, took = pooled_moduli(fam, monkeypatch, chunk)
    assert took == (n >= 2 * chunk) and (took or N < 800)
    monkeypatch.setattr(spectral, "_WORKERS", 1)
    monkeypatch.setattr(spectral, "_eigvals_pool", None)  # never called
    serial = spectral._dominant_moduli(fam)
    assert forced.tobytes() == default.tobytes() == serial.tobytes()
    assert serial[:n].tobytes() == loop_moduli(fam)[:n].tobytes()


def test_one_chunk_or_one_core_starts_no_pool(monkeypatch):
    # a witness read of a few k is one chunk: no pool is made, even with
    # several cores, and no thread is started
    monkeypatch.setattr(spectral, "_WORKERS", 2)
    monkeypatch.setattr(spectral, "_pool", None)
    fam = batch_family("good_boussinesq", 800)
    for watch in ([1], [1, 7, 3, 400]):
        spectral._witness(fam, Criterion("growth", theta=1e9), 1.0, watch)
    spectral.spectral_verdict(batch_family("good_boussinesq", 40), Criterion("strict"))
    assert spectral._pool is None
    # with one usable core, neither is a verdict of several chunks
    monkeypatch.setattr(spectral, "_WORKERS", 1)
    spectral.spectral_verdict(fam, Criterion("strict"))
    assert spectral._pool is None


def test_a_non_finite_symbol_raises_the_same_error_on_both_paths(monkeypatch):
    # only the last chunk's k = N/2 symbol is non-finite
    class Broken(SymbolFamily):
        def symbols_at(self, q):
            stack = super().symbols_at(q)
            stack[np.asarray(q) == 0.5] = np.nan
            return stack

    good = batch_family("good_boussinesq", 800)
    fam = Broken(good.C0, good.Cp, good.Cm, good.N)
    errors = []
    for workers in (2, 1):
        monkeypatch.setattr(spectral, "_WORKERS", workers)
        with pytest.raises(np.linalg.LinAlgError) as info:
            spectral.spectral_verdict(fam, Criterion("strict"))
        errors.append(str(info.value))
    assert errors[0] == errors[1] and "infs or NaNs" in errors[0]


def _verdict_in_child(expected: bytes) -> None:
    if spectral._dominant_moduli(batch_family("good_boussinesq", 800)).tobytes() != expected:
        raise SystemExit(1)


def test_forked_child_makes_its_own_pool(monkeypatch):
    # the parent's pool threads are not in the child: without a pool of its
    # own, the child's multi-chunk verdict would wait on them for ever
    monkeypatch.setattr(spectral, "_WORKERS", 2)
    fam = batch_family("good_boussinesq", 800)
    expected = spectral._dominant_moduli(fam).tobytes()
    assert spectral._pool is not None
    child = multiprocessing.get_context("fork").Process(target=_verdict_in_child, args=(expected,))
    child.start()
    child.join(timeout=30)
    alive = child.is_alive()
    if alive:
        child.kill()
        child.join()
    assert not alive and child.exitcode == 0


@pytest.mark.parametrize("criterion", [Criterion("strict"), Criterion("nozero"), Criterion("growth", theta=1.1)],
                         ids=["strict", "nozero", "growth:1.1"])
@pytest.mark.parametrize("name", list(BATCH_FAMILIES))
def test_marginal_frequencies_follow_the_rule(name, criterion):
    for dt in (0.05, 0.5):
        fam = batch_family(name, 33, dt=dt)
        moduli = spectral._dominant_moduli(fam)[: fam.N // 2 + 1]
        floor = 1.1 ** (dt / 2) if criterion.kind == "growth" else 1.0 - 1e-6
        # "on the unit circle" is within 1e-10 of 1, a tenth of the 1e-9 slack
        want = [k for k, m in enumerate(moduli)
                if abs(m - 1.0) > 1e-10 and m > floor and (k > 0 or criterion.kind != "nozero")]
        assert list(spectral_verdict(fam, criterion, dt=dt).k_marginal) == want


@pytest.mark.parametrize("name", ["dirac", "good_boussinesq", "wave_rk2"])
def test_symbols_depend_on_k_over_n_only(name):
    # perfbench's custom_forms check compares the N = 800 verdict with its
    # own N = 8 modes (k = 100 j), which needs these to be the same bits
    small, large = batch_family(name, 8), batch_family(name, 800)
    np.testing.assert_array_equal(small.symbols_at(np.arange(8) / 8), large.symbols_at(np.arange(0, 800, 100) / 800))
    np.testing.assert_array_equal(spectral._dominant_moduli(small), spectral._dominant_moduli(large)[::100])


@pytest.mark.parametrize("name", list(BATCH_FAMILIES))
def test_symbols_at_off_grid_phases_match_another_n(name):
    # phases j / 7 are off the N = 40 grid; they give the bits of the
    # N = 7 family's symbols
    fam, other = batch_family(name, 40), batch_family(name, 7)
    stack = fam.symbols_at(np.arange(7) / 7)
    for j in range(7):
        assert stack[j].tobytes() == other.symbol(j).tobytes()


@pytest.mark.parametrize("name", list(BATCH_FAMILIES))
def test_real_blocks_give_conjugate_symbols_at_mirrored_phases(name):
    # Lambda(1 - q) = conj(Lambda(q)), the identity _dominant_moduli mirrors by
    fam = batch_family(name, 40)
    q = np.random.default_rng(4).uniform(0.0, 1.0, 50)
    scale = max(np.abs(C).max() for C in (fam.C0, fam.Cp, fam.Cm))
    assert np.abs(fam.symbols_at(1.0 - q) - np.conj(fam.symbols_at(q))).max() <= 1e-14 * scale


def test_complex_blocks_evaluate_every_frequency():
    # Lambda_{N-k} = conj(Lambda_k) needs real blocks: here |eig| differs
    # between k and N - k, so a mirrored half would be wrong
    fam = complex_family(70)
    loop = loop_moduli(fam)
    np.testing.assert_array_equal(spectral._dominant_moduli(fam), loop)
    assert np.abs(loop[1:] - loop[1:][::-1]).max() > 1e-3


@pytest.mark.parametrize("name", list(BATCH_FAMILIES))
def test_k0_symbol_is_the_real_sum(name):
    fam = batch_family(name, 40)
    zeta = np.exp(2j * math.pi * 0 / fam.N)
    parent = fam.C0 + zeta * fam.Cp + fam.Cm / zeta
    assert fam.symbol(0).tobytes() == parent.tobytes()
    np.testing.assert_array_equal(fam.symbol(0), (fam.C0 + fam.Cp + fam.Cm).astype(complex))


@pytest.mark.parametrize("dx", [0.1, 0.05, 0.025])
def test_linear_kg_strict_verdict_decided_at_k0(dx):
    # dt = dx / 2 on a periodic domain of length 8: the nearly defective k = 0
    # symbol carries the largest rounded modulus (see the FOUND line on
    # spectral_verdict in CHANGES.md)
    N = round(8.0 / dx)
    v = spectral_verdict(batch_family("linear_kg", N, dt=0.5 * dx, dx=dx), Criterion("strict"))
    assert v.k_dominant == 0
    assert 1 <= v.k_dominant_nonzero <= N // 2
    assert v.dominant_nonzero < v.dominant_all


def test_sweep_point_counts_its_verdicts(monkeypatch):
    # SweepPoint.verdicts counts the dt values decided on the watched
    # frequencies, one _witness call each, replays included;
    # SweepPoint.spectra counts the full spectral_verdict calls
    full: dict[int, int] = {}
    watched: dict[int, int] = {}
    verdict, witness = spectral.spectral_verdict, spectral._witness

    def counted_verdict(family, *args, **kwargs):
        full[family.N] = full.get(family.N, 0) + 1
        return verdict(family, *args, **kwargs)

    def counted_witness(family, *args):
        watched[family.N] = watched.get(family.N, 0) + 1
        return witness(family, *args)

    monkeypatch.setattr(spectral, "spectral_verdict", counted_verdict)
    monkeypatch.setattr(spectral, "_witness", counted_witness)
    res = stability_boundary_sweep(lin_for("wave"), "simple", 4.0, [0.4, 0.2, 0.1], Criterion("strict"))
    assert [p.verdicts for p in res.points] == [watched.get(p.N, 0) for p in res.points]
    assert [p.spectra for p in res.points] == [full.get(p.N, 0) for p in res.points]
    assert all(p.verdicts > 1 and p.spectra >= 1 for p in res.points)
    # the empty watch set passes dt = dx, whose full spectrum refutes it
    assert res.points[0].spectra == 2
    assert sum(p.spectra for p in res.points) < sum(p.verdicts for p in res.points) / 10


# -- the witness step and the stated resolution --------------------------------

WITNESS_FORMS = ["wave", "linear_kg", "dirac", "good_boussinesq"]
WITNESS_SCHEMES = ["simple", 1, 2]
CRITERIA = [Criterion("strict"), Criterion("nozero"), Criterion("growth", theta=1.1)]


def _scheme(scheme):
    return "simple" if scheme == "simple" else gauss_tableau(scheme)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(WITNESS_FORMS),
    scheme=st.sampled_from(WITNESS_SCHEMES),
    dx=st.floats(0.02, 0.5),
    dt_over_dx=st.floats(1e-3, 3.0),
    N=st.integers(2, 80),
    k_share=st.floats(0.0, 1.0),
)
def test_one_symbol_moduli_are_the_verdict_bits(name, scheme, dx, dt_over_dx, N, k_share):
    # the witness step's premise: for k <= N/2, eigvals on Lambda_k alone
    # gives the bits that the stacked verdict computes for k
    fam = symbol_family(lin_for(name), _scheme(scheme), dt_over_dx * dx, dx, N)
    k = round(k_share * (N // 2))
    one = float(np.abs(np.linalg.eigvals(fam.symbol(k))).max())
    assert one == spectral._dominant_moduli(fam)[k] == spectral._moduli_at(fam, [k / N])[0]


def _complex_family(seed, N):
    rng = np.random.default_rng(seed)
    m = 4
    C0 = 0.6 * rng.standard_normal((m, m)) + 0.3j * rng.standard_normal((m, m))
    Cp, Cm = 0.3 * rng.standard_normal((2, m, m))
    return SymbolFamily(C0, Cp, Cm, N)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    source=st.sampled_from(WITNESS_FORMS + ["complex"]),
    scheme=st.sampled_from(WITNESS_SCHEMES),
    dx=st.floats(0.02, 0.5),
    dt_over_dx=st.floats(1e-3, 3.0),
    N=st.integers(2, 40),
    seed=st.integers(0, 2**16),
)
def test_witness_never_overrules_the_full_verdict(source, scheme, dx, dt_over_dx, N, seed):
    dt = dt_over_dx * dx
    if source == "complex":
        fam = _complex_family(seed, N)
    else:
        fam = symbol_family(lin_for(source), _scheme(scheme), dt, dx, N)
    for crit in CRITERIA:
        v = spectral_verdict(fam, crit, dt=dt)
        decided = [k for k in range(N) if spectral._witness(fam, crit, dt, [k]) is not None]
        # unstable wherever the witness says so ...
        assert v.stable is False or decided == []
        # ... and never from k = 0 under "nozero" or from a mirrored k > N/2
        assert all(k < spectral._evaluated(fam) and (k > 0 or crit.kind != "nozero") for k in decided)
        # the deciding frequency of an unstable verdict decides alone
        deciding = v.k_dominant_nonzero if crit.kind == "nozero" else v.k_dominant
        if not v.stable:
            assert deciding in decided


def test_witness_on_complex_blocks_reads_k_above_half():
    # complex blocks evaluate every k, so the witness reads every k too
    fam = _complex_family(5, 12)
    v = spectral_verdict(fam, Criterion("strict"))
    assert not v.stable
    for k in range(12):
        broken = spectral._dominant_moduli(fam)[k] > 1.0 + 1e-9
        assert (spectral._witness(fam, Criterion("strict"), None, [k]) == k) == broken


def _fortyfold_sweep(lin, scheme, length, dxs, crit):
    """The former bisection: 40 halvings of the decade, a full verdict per dt."""
    out = []
    for dx in dxs:
        N = max(2, round(length / dx))

        def stable(dt):
            return spectral_verdict(symbol_family(lin, scheme, dt, dx, N), crit, dt=dt).stable

        hi = float(dx)
        if stable(hi):
            out.append(hi)
            continue
        lo = hi
        while lo > 1e-12:
            lo /= 10.0
            if stable(lo):
                break
        else:
            out.append(None)
            continue
        hi = lo * 10.0
        for _ in range(40):
            mid = math.sqrt(lo * hi)
            lo, hi = (mid, hi) if stable(mid) else (lo, mid)
        out.append(lo)
    return out


# sweeps of the tests above and of acceptance 06
SWEEPS = {
    "acceptance06_L4": ("good_boussinesq", "simple", Criterion("strict"), 4.0, [0.4, 0.2, 0.1, 0.05]),
    "acceptance06_L8": ("good_boussinesq", "simple", Criterion("strict"), 8.0, [0.4, 0.2, 0.1, 0.05]),
    "wave_strict": ("wave", "simple", Criterion("strict"), 4.0, [0.4, 0.2, 0.1]),
    "wave_nozero": ("wave", "simple", Criterion("nozero"), 4.0, [0.4, 0.2, 0.1]),
    "wave_rk2_nozero": ("wave", 2, Criterion("nozero"), 4.0, [0.4, 0.2, 0.1]),
    "linear_kg_nozero": ("linear_kg", "simple", Criterion("nozero"), 4.0, [0.4, 0.2, 0.1]),
    "dirac_nozero": ("dirac", "simple", Criterion("nozero"), 4.0, [0.4, 0.2, 0.1]),
    "nls_growth": ("nls", "simple", Criterion("growth", theta=1.1), 4.0, [0.4, 0.2, 0.1]),
}


def _sweep_inputs(name):
    from diamondstab.pipeline import reference_linearization

    form, scheme, crit, length, dxs = SWEEPS[name]
    return reference_linearization(registry_get(form)), _scheme(scheme), length, dxs, crit


# a bisection resolution that follows the former 40 halvings midpoint for midpoint
FORTY_HALVINGS_RTOL = 2.1e-12


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_fine_resolution_reproduces_forty_halvings(name, monkeypatch):
    # equal bits also show that the witness step changed no verdict
    lin, scheme, length, dxs, crit = _sweep_inputs(name)
    monkeypatch.setattr(spectral, "_SWEEP_RTOL", FORTY_HALVINGS_RTOL)
    res = stability_boundary_sweep(lin, scheme, length, dxs, crit)
    assert [p.dt_max for p in res.points] == _fortyfold_sweep(lin, scheme, length, dxs, crit)


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_default_resolution_brackets_the_fine_boundary(name, monkeypatch):
    lin, scheme, length, dxs, crit = _sweep_inputs(name)
    coarse = stability_boundary_sweep(lin, scheme, length, dxs, crit)
    monkeypatch.setattr(spectral, "_SWEEP_RTOL", FORTY_HALVINGS_RTOL)
    fine = stability_boundary_sweep(lin, scheme, length, dxs, crit)
    for c, f in zip(coarse.points, fine.points):
        assert f.dt_max / (1.0 + 1e-6) <= c.dt_max <= f.dt_max
        assert c.verdicts <= f.verdicts


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_every_dt_max_passes_the_full_verdict(name):
    lin, scheme, length, dxs, crit = _sweep_inputs(name)
    res = stability_boundary_sweep(lin, scheme, length, dxs, crit)
    assert all(p.dt_max is not None for p in res.points)
    for p in res.points:
        assert spectral_verdict(symbol_family(lin, scheme, p.dt_max, p.dx, p.N), crit, dt=p.dt_max).stable


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_watch_set_holds_past_deciders_and_the_last_marginal_frequencies(name, monkeypatch):
    # W at each dt: every k that has decided a dt unstable so far, the
    # k_marginal of the last full verdict before this dx, and those of the
    # full verdicts at this dx
    lin, scheme, length, dxs, crit = _sweep_inputs(name)
    events = []
    verdict, witness = spectral.spectral_verdict, spectral._witness

    def recorded_verdict(family, *args, **kwargs):
        v = verdict(family, *args, **kwargs)
        deciding = v.k_dominant_nonzero if crit.kind == "nozero" else v.k_dominant
        events.append(("verdict", family.N, v.k_marginal, None if v.stable else deciding))
        return v

    def recorded_witness(family, criterion, dt, watch):
        k = witness(family, criterion, dt, watch)
        events.append(("witness", family.N, tuple(watch), k))
        return k

    monkeypatch.setattr(spectral, "spectral_verdict", recorded_verdict)
    monkeypatch.setattr(spectral, "_witness", recorded_witness)
    stability_boundary_sweep(lin, scheme, length, dxs, crit)
    deciders, carried, here, last, N = set(), set(), set(), set(), None
    for kind, n, ks, decided in events:
        if n != N:
            carried, here, N = last, set(), n
        if kind == "witness":
            assert len(set(ks)) == len(ks)
            assert set(ks) == deciders | carried | here, (n, ks)
        else:
            here |= set(ks)
            last = set(ks)
        if decided is not None:
            deciders.add(decided)


def test_watch_set_carry_reads_a_third_of_the_phases(monkeypatch):
    # eigvals phases (one per symbol read) of the linear_kg "nozero" sweep:
    # 3 231 when W kept every k more than 1e-12 off the unit circle and
    # never dropped one, 976 with the 1e-10 band and the carry rule, and
    # 1 301 with the band but every stale k kept
    phases = []
    moduli_at = spectral._moduli_at

    def counted(family, q):
        phases.append(len(q))
        return moduli_at(family, q)

    monkeypatch.setattr(spectral, "_moduli_at", counted)
    dxs = [0.4, 0.2, 0.1, 0.05, 0.025]
    res = stability_boundary_sweep(lin_for("linear_kg"), "simple", 8.0, dxs, Criterion("nozero"))
    assert [p.spectra for p in res.points] == [2, 1, 1, 1, 1]
    assert sum(phases) <= 3231 / 3


# -- reciprocal spectra and the simple / rk:1 equivalence ------------------------


def _self_inversive_defect(ev):
    """How far the characteristic polynomial of these eigenvalues is from
    self-inversive, i.e. from a root set closed under lambda -> 1/conj(lambda).

    With p(z) = sum a_j z^(m-j), a_0 = 1, closure means a_(m-j) =
    a_m conj(a_j) for every j.  Each difference is divided by the
    elementary symmetric function of the moduli that bounds both sides,
    so clusters split by rounding (the repeated lambda = 1) do not count.
    """
    a = np.poly(ev)
    E = np.poly(-np.abs(ev)).real
    m = len(ev)
    return max(abs(a[m - j] - a[m] * np.conj(a[j])) / (E[m - j] + abs(a[m]) * E[j]) for j in range(m + 1))


def _random_linear_form(seed, d):
    # a skew K with a bounded condition number: with a singular K the
    # symbols become so far from normal that eigvals misplaces eigenvalues
    # by up to 5e-3 even at max |lambda| < 1e3
    rng = np.random.default_rng(seed)
    while True:
        K = rng.standard_normal((d, d))
        K = K - K.T
        if np.linalg.cond(K) < 1e2:
            break
    L = rng.standard_normal((d, d))
    P = rng.standard_normal((d, d))
    return LinearizedForm("random", tuple(f"z{i}" for i in range(d)), K, L - L.T, P + P.T, np.zeros(d))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    source=st.sampled_from(["wave", "linear_kg", "dirac", "good_boussinesq", "nls_rho9", "random"]),
    scheme=st.sampled_from(["simple", 1, 2, 3, 4]),
    d_half=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    dx=st.floats(0.03, 0.5),
    dt_over_dx=st.floats(0.01, 1.0),
    N=st.integers(2, 64),
    k_share=st.floats(0.0, 1.0),
)
def test_symbol_spectra_are_reciprocal(source, scheme, d_half, seed, dx, dt_over_dx, N, k_share):
    # the nonzero eigenvalues of every symbol pair up as (lambda, 1/conj(lambda)),
    # stable or not; an independent check of build_blocks_* and
    # assemble_symbol_family_*.  Checked where max |lambda| <= 110, the range
    # measured when the structure was found: beyond it eigvals resolves the
    # small eigenvalues only to about eps (max |lambda|)^2 relative
    if source == "random":
        lin = _random_linear_form(seed, 2 * d_half)
    elif source == "nls_rho9":
        lin = nls_constant_amplitude_linearization(9.0, 2.0)
    else:
        lin = lin_for(source)
    fam = symbol_family(lin, _scheme(scheme), dt_over_dx * dx, dx, N)
    ev = np.linalg.eigvals(fam.symbol(round(k_share * (N // 2))))
    assume(np.abs(ev).max() <= 110.0)
    assert _self_inversive_defect(ev) <= 1e-9


def _power_trace_gap(S, R):
    """max over j = 1..m of |tr S^j - tr R^j|, relative to the entrywise
    1-norm of the powers (the scale of the rounding in a computed trace)."""
    gap, Sj, Rj = 0.0, np.eye(len(S)), np.eye(len(R))
    for _ in range(len(S)):
        Sj, Rj = Sj @ S, Rj @ R
        scale = max(np.abs(Sj).sum(), np.abs(Rj).sum())
        gap = max(gap, abs(np.trace(Sj) - np.trace(Rj)) / scale)
    return gap


# mixed_kg has an ill-conditioned pivot; its powers lose about 4 more digits
TRACE_GAP = {"mixed_kg": 1e-10}


@pytest.mark.parametrize(
    "name", ["wave", "linear_kg", "dirac", "good_boussinesq", "nls", "mixed_kg", "ostrovsky", "improved_boussinesq"]
)
def test_simple_and_rk1_symbols_have_equal_power_traces(name):
    # the simple scheme is the one-stage Gauss collocation scheme on other
    # edge variables: the symbols are similar, so tr Lambda^j agree for j = 1..m
    from diamondstab.pipeline import reference_linearization

    lin = reference_linearization(registry_get(name))
    tab = gauss_tableau(1)
    worst = 0.0
    for dt in (0.002, 0.02, 0.2):
        for dx in (0.05, 0.2):
            simple = symbol_family(lin, "simple", dt, dx, 32)
            rk1 = symbol_family(lin, tab, dt, dx, 32)
            for k in range(16):
                worst = max(worst, _power_trace_gap(simple.symbol(k), rk1.symbol(k)))
    assert worst <= TRACE_GAP.get(name, 5e-14), worst


def _covariance_lins():
    """The five forms of the basis checks, linearized as Step 3 reads them."""
    lins = {name: lin_for(name) for name in ("wave", "linear_kg", "good_boussinesq", "dirac")}
    lins["nls"] = nls_constant_amplitude_linearization(9.0)
    return lins


def _changes_of_basis(d, rng):
    """Every elementary shear I +- e_i e_j^T (i != j) and 9 signed permutations."""
    for i in range(d):
        for j in range(d):
            for sign in (1.0, -1.0) if i != j else ():
                T = np.eye(d)
                T[i, j] = sign
                yield T
    for _ in range(9):
        yield np.eye(d)[rng.permutation(d)] * rng.choice([-1.0, 1.0], d)


def test_step3_symbols_do_not_depend_on_the_basis_of_z():
    # z = T w turns K, L and Peff into T^T K T, T^T L T and T^T Peff T; the
    # diamond maps are then T^-1 (map) T on each of the 2r edge blocks of
    # the state, so the symbols satisfy Lambda_w = S^-1 Lambda_z S with
    # S = I_2r (x) T (r = 1 for the simple scheme)
    rng = np.random.default_rng(2601)
    dt, dx, N = 0.01, 0.1, 16
    q = np.arange(N) / N
    cases = 0
    for name, lin in _covariance_lins().items():
        for T in _changes_of_basis(lin.d, rng):
            moved = LinearizedForm(
                name, lin.names, T.T @ lin.K @ T, T.T @ lin.L @ T, T.T @ lin.Peff @ T, np.linalg.solve(T, lin.z_ref)
            )
            for scheme, r in (("simple", 1), (gauss_tableau(1), 1), (gauss_tableau(2), 2)):
                lam_z = symbol_family(lin, scheme, dt, dx, N).symbols_at(q)
                lam_w = symbol_family(moved, scheme, dt, dx, N).symbols_at(q)
                S = np.kron(np.eye(2 * r), T)
                gap = np.abs(lam_w - np.linalg.solve(S, lam_z @ S)).max()
                assert gap <= 1e-11 * np.abs(lam_z).max(), (name, T.tolist(), scheme)
                cases += 1
    assert cases == 423


def _blocks_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(vars(a).values(), vars(b).values()))


@pytest.mark.parametrize("scheme", ["simple", "rk:2"])
def test_step3_is_unchanged_by_doubling_K_and_dt(scheme):
    # K -> 2K with dt -> 2dt leaves K/dt, and with it every block, bit for
    # bit: powers of two scale without rounding
    tableau = "simple" if scheme == "simple" else gauss_tableau(2)
    build = build_blocks_simple if scheme == "simple" else (lambda lin, dt, dx: build_blocks_rk(lin, tableau, dt, dx))
    for name, lin in _covariance_lins().items():
        doubled = LinearizedForm(name, lin.names, 2.0 * lin.K, lin.L, lin.Peff, lin.z_ref)
        assert _blocks_equal(build(doubled, 0.02, 0.1), build(lin, 0.01, 0.1)), name
    lin = lin_for("good_boussinesq")
    doubled = LinearizedForm(lin.name, lin.names, 2.0 * lin.K, lin.L, lin.Peff, lin.z_ref)
    family = symbol_family(doubled, tableau, 0.02, 0.1, 16)
    assert _blocks_equal(family, symbol_family(lin, tableau, 0.01, 0.1, 16))
