"""Acceptance suite: one test (or parametrized family) per criterion.

Each check prints an ``ACCEPTANCE nn PASS/FAIL`` line (visible with -s) and
asserts at the stated tolerance.  Run with::

    pytest -v -s tests/test_acceptance.py
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import root

from diamondstab.integrator import (
    MeshParams,
    gauss_tableau,
    integrate,
    random_tangent_pair,
    solve_diamonds,
    verify_discrete_conservation,
)
from diamondstab.msform import (
    eval_grad_S,
    linearize,
    nls_constant_amplitude_linearization,
    registry_get,
    registry_names,
)
from diamondstab.pipeline import run_pipeline
from diamondstab.solutions import dirac_breather, mixed_kg_cosine, nls_two_soliton_ic
from diamondstab.spectral import (
    Criterion,
    SingularUpdateError,
    assemble_symbol_family_simple,
    build_blocks_rk,
    build_blocks_simple,
    build_m1_m2,
    spectral_verdict,
    stability_boundary_sweep,
)


def report(criterion: int, ok: bool, message: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} {'PASS' if ok else 'FAIL'}: {message}")
    assert ok, f"criterion {criterion}: {message}"


# -- criterion 1: Table-1 classification -------------------------------------

EXPECTED_CATEGORY = {
    "advection": "StructurallyInconsistent",
    "kdv": "StructurallyInconsistent",
    "camassa_holm": "StructurallyInconsistent",
    "bbm": "StructurallyInconsistent",
    "hunter_saxton_1": "StructurallyInconsistent",
    "hunter_saxton_2": "StructurallyInconsistent",
    "mixed_kg": "UnconditionallyUnstable",
    "ostrovsky": "UnconditionallyUnstable",
    "improved_boussinesq": "UnconditionallyUnstable",
    "wave": "ConditionallyStable",
    "linear_kg": "ConditionallyStable",
    "dirac": "ConditionallyStable",
    "good_boussinesq": "ConditionallyStable",
    "nls": "ConditionallyStable",
}


def test_criterion_01_classification_table():
    t0 = time.time()
    rows = {n: run_pipeline(registry_get(n), stop_after=2).classification for n in registry_names()}
    elapsed = time.time() - t0
    mismatches = {k: (rows[k], v) for k, v in EXPECTED_CATEGORY.items() if rows[k] != v}
    counts = {c: sum(1 for v in rows.values() if v == c) for c in sorted(set(rows.values()))}
    report(
        1,
        not mismatches and elapsed < 5.0,
        f"every registered form in its published category "
        f"(counts {counts}, {elapsed:.2f}s)" + (f"; mismatches {mismatches}" if mismatches else ""),
    )


# -- criterion 2: step-2 thresholds (exact rationals) -------------------------

STEP2_EXPECTED = [
    ("wave", Fraction(1)),
    ("linear_kg", Fraction(1)),
    ("dirac", Fraction(1)),
    ("good_boussinesq", Fraction(2)),
    ("nls", Fraction(2)),
    ("mixed_kg", None),
    ("ostrovsky", None),
    ("improved_boussinesq", None),
]

# Published exponents that the rule table does not give on these forms
# (README, "Deviations from published values").
STEP2_PUBLISHED = {"linear_kg": Fraction(2, 3), "dirac": Fraction(1, 2)}

# Hand-derived cycles of weight 2s-2 that fix s_lo = 1, as edge sets
# (src, dst, (a, b)) of variable indices for an edge of weight a*s + b.
# linear_kg (u, v, w = 0, 1, 2) has the same K and L as wave, and its mass
# term only adds the edge u -> v, so the wave cycle survives; dirac
# (p1, q1, p2, q2 = 0, 1, 2, 3) pairs q1, q2 and p1, p2 through two K-pivot
# edges with an L source each.
STEP2_BINDING = {
    "linear_kg": {
        frozenset({(1, 0, (1, 0)), (0, 2, (0, -1)), (2, 1, (1, -1))}),
    },
    "dirac": {
        frozenset({(1, 3, (1, -1)), (3, 1, (1, -1))}),
        frozenset({(0, 2, (1, -1)), (2, 0, (1, -1))}),
    },
}


def _dominant_nonzero_mode(lin, s, dx):
    """Largest |lambda| over the non-zero modes for dt = 0.5*dx**s on a periodic domain of length 8."""
    family = assemble_symbol_family_simple(build_blocks_simple(lin, 0.5 * dx**s, dx), round(8 / dx))
    return spectral_verdict(family, Criterion("nozero")).dominant_nonzero


@pytest.mark.parametrize("name,expected", STEP2_EXPECTED, ids=[n for n, _ in STEP2_EXPECTED])
def test_criterion_02_step2_thresholds(name, expected):
    result = run_pipeline(registry_get(name), stop_after=2)
    lin, verdict = result.lin, result.verdict
    got = None if verdict.unconditionally_unstable else verdict.s_lo
    ok = got == expected
    message = f"{name}: s_lo = {got} (expected {expected})"
    if name in STEP2_PUBLISHED:
        published = STEP2_PUBLISHED[name]
        # the zero-weight self-loops bind at every s; only s-dependent cycles count
        cycles = [c for c in verdict.binding if c.weight.a != 0]
        binding = {frozenset((e.src, e.dst, (e.index.a, e.index.b)) for e in c.edges) for c in cycles}
        names = result.graph.names
        # the Step-3 spectra are an independent oracle: growth past 1 that
        # rises as dx halves at the published exponent, none at s = 1
        grow = [_dominant_nonzero_mode(lin, published, dx) for dx in (0.05, 0.025)]
        flat = [_dominant_nonzero_mode(lin, 1, dx) for dx in (0.05, 0.025)]
        ok = ok and binding == STEP2_BINDING[name] and 1 < grow[0] < grow[1] and max(flat) <= 1 + 1e-9
        message = (
            f"{name}: s_lo = {got} (expected {expected}; published {published}, see README); binding "
            f"{', '.join('->'.join(names[n] for n in c.nodes) + f' [{c.weight.label()}]' for c in cycles)}; "
            f"max |lambda| at s = {published}: {grow[0]:.3g}, {grow[1]:.3g} "
            f"for dx = 0.05, 0.025; at s = 1: 1 + {max(flat) - 1:.1e}"
        )
    report(2, ok, message)


# -- criterion 3: wave block oracle -------------------------------------------


def test_criterion_03_wave_blocks():
    lin = linearize(registry_get("wave"), np.zeros(3))
    worst = 0.0
    for dt, dx in ((0.2, 0.1), (0.01, 0.05)):
        bl = build_blocks_simple(lin, dt, dx)
        B = [[1, dt / 2, 0], [0, 1, 0], [0, 0, -1]]
        Am = [[0, dt / 4, -dt * dt / (4 * dx)], [0, 0, -dt / dx], [-4 / dx, 0, -1]]
        Ap = [[0, dt / 4, dt * dt / (4 * dx)], [0, 0, dt / dx], [4 / dx, 0, -1]]
        worst = max(
            worst,
            np.abs(bl.B - B).max(),
            np.abs(bl.Am - Am).max(),
            np.abs(bl.Ap - Ap).max(),
        )
    report(3, worst <= 1e-12, f"printed wave blocks reproduced entrywise (max err {worst:.2e})")


# -- criterion 4: similarity check --------------------------------------------


def _frac_matrix(M):
    return [[Fraction(x).limit_denominator(10**12) for x in row] for row in np.asarray(M).tolist()]


def _frac_matmul(A, B):
    n, m, p = len(A), len(B), len(B[0])
    return [[sum(A[i][k] * B[k][j] for k in range(m)) for j in range(p)] for i in range(n)]


def _frac_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def _frac_inv(A):
    n = len(A)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(A)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _exact_blocks(lin, dt: Fraction, dx: Fraction):
    K = _frac_matrix(lin.K)
    L = _frac_matrix(lin.L)
    P = _frac_matrix(lin.Peff)
    d = len(K)

    def lincomb(c1, M1, c2, M2):
        return [[c1 * M1[i][j] + c2 * M2[i][j] for j in range(d)] for i in range(d)]

    A0 = lincomb(1 / dt, K, Fraction(-1, 4), P)
    inv = _frac_inv(A0)
    B = _frac_matmul(inv, lincomb(1 / dt, K, Fraction(1, 4), P))
    Am = _frac_matmul(inv, lincomb(1 / dx, L, Fraction(1, 4), P))
    Ap = _frac_matmul(inv, lincomb(-1 / dx, L, Fraction(1, 4), P))
    return B, Am, Ap


def _frac_block(parts):
    """2x2 block matrix of equally-sized Fraction matrices."""
    (tl, tr), (bl, br) = parts
    top = [rt + rr for rt, rr in zip(tl, tr)]
    bottom = [rb + rr for rb, rr in zip(bl, br)]
    return top + bottom


def test_criterion_04_similarity():
    """eig(M) equals the union over k of eig(Lambda_k).

    The identity is established in exact rational arithmetic: the mesh-stacked
    full-step matrix M = M2 M1 is verified to be block circulant with blocks
    exactly equal to (C0, C+, C-) from the symbol-family path, which makes the
    two spectra identical sets; the greedy eigenvalue match is then evaluated
    in extended precision (double-precision eigensolvers sit at the sqrt(eps)
    noise floor for the defective wave spectrum, above the 1e-8 tolerance).
    """
    from mpmath import mp

    mp.dps = 30
    dt, dx = Fraction(1, 20), Fraction(1, 10)
    worst_match = 0.0
    t0 = time.time()
    for name in ("wave", "linear_kg", "dirac"):
        form = registry_get(name)
        d = form.d
        lin = linearize(form, np.zeros(d))
        Bx, Am, Ap = _exact_blocks(lin, dt, dx)

        # production float blocks agree with the exact ones
        bl = build_blocks_simple(lin, float(dt), float(dx))
        for exact, approx in ((Bx, bl.B), (Am, bl.Am), (Ap, bl.Ap)):
            assert np.abs(np.array(exact, dtype=float) - approx).max() <= 1e-12

        Z = [[Fraction(0)] * d for _ in range(d)]
        I = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
        X1 = _frac_block(((Bx, Ap), (Z, I)))
        Y1 = _frac_block(((Z, Am), (Z, Z)))
        X2 = _frac_block(((I, Z), (Am, Bx)))
        Y2 = _frac_block(((Z, Z), (Ap, Z)))
        C0 = _frac_add(_frac_matmul(X2, X1), _frac_matmul(Y2, Y1))
        Cp = _frac_matmul(Y2, X1)
        Cm = _frac_matmul(X2, Y1)

        for N in (4, 8, 16):
            # exact mesh-stacked product M = M2 M1, blockwise (cells of size 2d)
            m1_blocks = {(i, i): X1 for i in range(N)} | {((i) % N, (i - 1) % N): Y1 for i in range(N)}
            m2_blocks = {(i, i): X2 for i in range(N)} | {(i, (i + 1) % N): Y2 for i in range(N)}
            m_row0 = {}
            for i in range(N):
                for j in range(N):
                    acc = None
                    for k in range(N):
                        a = m2_blocks.get((i, k))
                        b = m1_blocks.get((k, j))
                        if a is None or b is None:
                            continue
                        term = _frac_matmul(a, b)
                        acc = term if acc is None else _frac_add(acc, term)
                    offset = (j - i) % N
                    if offset == 0:
                        expected = C0
                    elif offset == 1:
                        expected = Cp
                    elif offset == N - 1:
                        expected = Cm
                    else:
                        expected = [[Fraction(0)] * 2 * d for _ in range(2 * d)]
                    got = acc if acc is not None else [[Fraction(0)] * 2 * d for _ in range(2 * d)]
                    assert got == expected, f"{name} N={N}: block ({i},{j}) breaks the circulant identity"
                    if i == 0:
                        m_row0[offset] = got

            # float production M agrees with the exact circulant entries
            M1f, M2f = build_m1_m2(lin, float(dt), float(dx), N)
            Mf = M2f @ M1f
            for off, C in ((0, C0), (1, Cp), (N - 1, Cm)):
                blk = Mf[0 : 2 * d, off * 2 * d : (off + 1) * 2 * d]
                assert np.abs(blk - np.array(C, dtype=float)).max() <= 1e-10

            # literal greedy eigenvalue match in extended precision
            def mp_eigs(C0m, Cpm, Cmm, k):
                zeta = mp.expjpi(mp.mpf(2 * k) / N)
                A = mp.matrix(2 * d, 2 * d)
                for i in range(2 * d):
                    for j in range(2 * d):
                        A[i, j] = (
                            mp.mpf(C0m[i][j].numerator) / C0m[i][j].denominator
                            + zeta * mp.mpf(Cpm[i][j].numerator) / Cpm[i][j].denominator
                            + (1 / zeta) * mp.mpf(Cmm[i][j].numerator) / Cmm[i][j].denominator
                        )
                return mp.eig(A, left=False, right=False)

            ev_M: list = []
            ev_F: list = []
            for k in range(N):
                # side 1: blocks extracted from the stacked M's first block row
                ev_M.extend(mp_eigs(m_row0[0], m_row0[1], m_row0[N - 1], k))
                # side 2: blocks from the symbol-family assembly
                ev_F.extend(mp_eigs(C0, Cp, Cm, k))
            used = [False] * len(ev_F)
            for lam in ev_M:
                best, bj = None, None
                for j, mu in enumerate(ev_F):
                    if used[j]:
                        continue
                    dist = abs(lam - mu)
                    if best is None or dist < best:
                        best, bj = dist, j
                used[bj] = True
                worst_match = max(worst_match, float(best))
    ok = worst_match <= 1e-8 and time.time() - t0 < 60.0
    report(4, ok, f"spectra identical (exact circulant blocks; greedy residual {worst_match:.2e})")


# -- criterion 5: KG/Dirac sufficient condition --------------------------------


@pytest.mark.parametrize("name", ["linear_kg", "dirac"])
def test_criterion_05_kg_dirac_sufficient(name):
    form = registry_get(name)
    lin = linearize(form, np.zeros(form.d))
    worst_stable = 0.0
    for dx, dt in ((0.1, 0.05), (0.3, 0.2)):
        for N in (20, 160):
            fam = assemble_symbol_family_simple(build_blocks_simple(lin, dt, dx), N)
            v = spectral_verdict(fam, Criterion("nozero"))
            worst_stable = max(worst_stable, v.dominant_nonzero)
    unstable_min = np.inf
    for dx in (0.1, 0.3):
        dt = 2.0 * dx
        for N in (20, 160):
            fam = assemble_symbol_family_simple(build_blocks_simple(lin, dt, dx), N)
            v = spectral_verdict(fam, Criterion("nozero"))
            unstable_min = min(unstable_min, v.dominant_nonzero)
    ok = worst_stable <= 1.0 + 1e-9 and unstable_min > 1.0
    report(
        5,
        ok,
        f"{name}: max_k>=1 |lambda| = {worst_stable:.12f} for dt<dx; "
        f"{unstable_min:.3f} > 1 at dt=2dx",
    )


# -- criterion 6: Boussinesq cubic boundary ------------------------------------


def _cubic_constant(res):
    """c of dt_max = c dx^3 fitted with the slope pinned to 3: the geometric
    mean of dt_max / dx^3 over the resolved points."""
    fitted = [(p.dx, p.dt_max) for p in res.points if p.dt_max is not None]
    lx = np.log([p[0] for p in fitted])
    ly = np.log([p[1] for p in fitted])
    return float(np.exp(np.mean(ly - 3.0 * lx)))


def test_criterion_06_boussinesq_cubic_boundary():
    t0 = time.time()
    lin = linearize(registry_get("good_boussinesq"), np.zeros(4))
    crit = Criterion("strict")
    res4 = stability_boundary_sweep(lin, "simple", 4.0, [0.4, 0.2, 0.1, 0.05], crit)
    res8 = stability_boundary_sweep(lin, "simple", 8.0, [0.4, 0.2, 0.1, 0.05], crit)
    ratio = _cubic_constant(res8) / _cubic_constant(res4)
    factor = max(ratio, 1.0 / ratio)
    elapsed = time.time() - t0
    ok = 2.7 <= res4.slope <= 3.3 and 1.6 <= factor <= 2.4 and elapsed < 120.0
    report(
        6,
        ok,
        f"slope {res4.slope:.3f} in [2.7, 3.3]; doubling the domain changes the "
        f"fitted constant by {factor:.2f} (c halves: larger domains admit lower "
        f"frequencies) ({elapsed:.1f}s)",
    )


# -- criterion 7: NLS growth criterion -----------------------------------------


def test_criterion_07_nls_growth_pair():
    """Growth-rate acceptance of the published stable/unstable step pair.

    Evaluated at the experiment's own domain ([-24, 24], dx = 0.1, N = 480):
    the boundary constant scales with the domain length, so at a reduced
    domain both steps sit on the stable side and no split exists; the symbol
    computation at the full domain is sub-second, so no reduction is needed.
    """
    lin = nls_constant_amplitude_linearization(9.0, 2.0)
    crit = Criterion("growth", theta=1.1)
    t0 = time.time()
    fam_ok = assemble_symbol_family_simple(build_blocks_simple(lin, 2.5e-6, 0.1), 480)
    v_ok = spectral_verdict(fam_ok, crit, dt=2.5e-6)
    fam_bad = assemble_symbol_family_simple(build_blocks_simple(lin, 3.33e-6, 0.1), 480)
    v_bad = spectral_verdict(fam_bad, crit, dt=3.33e-6)
    elapsed = time.time() - t0
    ok = v_ok.stable and not v_bad.stable and elapsed < 60.0
    report(
        7,
        ok,
        f"dt=2.5e-6 passes (lambda1^(1/dt) = {v_ok.dominant_all ** (1 / 2.5e-6):.4f}), "
        f"dt=3.33e-6 fails (lambda1 - 1 = {v_bad.dominant_all - 1:.2e}) ({elapsed:.1f}s)",
    )


# -- criterion 8: mixed-KG one-step blow-up -------------------------------------


def test_criterion_08_mixed_kg_one_step():
    form = registry_get("mixed_kg")
    ic, exact = mixed_kg_cosine(form.param("a"))
    mesh = MeshParams(a=-1.0, b=1.0, N=40, dt=1e-4, T=1e-4)
    res = integrate(form, "simple", ic, mesh, observers=(), exact=exact, blowup=1e30)
    xs = mesh.x_int()
    dev = np.abs(res.state.integer_points()[:, 0] - np.cos(np.pi * (xs + mesh.dt))).max()
    report(8, dev > 0.1, f"one-step max-norm deviation {dev:.3f} > 0.1")


# -- criterion 9: Dirac desk-scale run ------------------------------------------


def test_criterion_09_dirac_run():
    form = registry_get("dirac")
    ic, exact = dirac_breather(form.param("m"), form.param("lam"))
    mesh = MeshParams(a=-24.0, b=24.0, N=160, dt=0.2, T=10.0)
    t0 = time.time()
    res = integrate(form, "simple", ic, mesh, observers=("energy",), exact=exact)
    elapsed = time.time() - t0
    drift = np.abs(res.energies - res.energies[0]).max() / abs(res.energies[0])
    ok = res.status == "completed" and drift <= 1e-2 and elapsed < 30.0
    report(9, ok, f"breather run {res.status}; relative energy drift {drift:.2e} ({elapsed:.1f}s)")


# -- criterion 10: NLS divergence run --------------------------------------------


def test_criterion_10_nls_runs():
    form = registry_get("nls")
    ic = nls_two_soliton_ic()
    t0 = time.time()
    mesh_bad = MeshParams(a=-24.0, b=24.0, N=480, dt=3.33e-6, T=0.2)
    res_bad = integrate(form, "simple", ic, mesh_bad, observers=(), init_method="box")
    mesh_ok = MeshParams(a=-24.0, b=24.0, N=480, dt=2.5e-6, T=0.2)
    res_ok = integrate(form, "simple", ic, mesh_ok, observers=("energy",), init_method="box")
    elapsed = time.time() - t0
    drift = np.abs(res_ok.energies - res_ok.energies[0]).max() / abs(res_ok.energies[0])
    bounded = res_ok.status == "completed" and np.abs(res_ok.state.values).max() < 1e2
    ok = res_bad.status == "diverged" and res_bad.diverged_at <= 0.2 and bounded and elapsed < 300.0
    report(
        10,
        ok,
        f"dt=3.33e-6 diverged at t={res_bad.diverged_at:.3f}; dt=2.5e-6 bounded "
        f"(max |z| = {np.abs(res_ok.state.values).max():.2f}, energy drift {drift:.1e}) "
        f"({elapsed:.0f}s)",
    )


# -- criterion 11: collocation singularity ---------------------------------------


def _kernel_witness_residual(Q, lin, F, dt):
    """|Q z| / |z| for z = x (x) x (x) v, with (lam, x) the dominant eigenpair
    of F and v a null vector of Peff - (2 lam / dt) K.  For a structurally
    inconsistent form that pencil is singular for every multiplier, so z
    lies in the kernel of the stage matrix."""
    lam_all, vec_all = np.linalg.eig(F)
    idx = int(np.argmax(np.abs(lam_all)))
    lam, x = lam_all[idx], vec_all[:, idx]
    pencil = lin.Peff.astype(complex) - (2.0 * lam / dt) * lin.K
    _, _, vh = np.linalg.svd(pencil)
    z = np.kron(x, np.kron(x, vh[-1].conj()))
    return float(np.linalg.norm(Q @ z) / np.linalg.norm(z))


def test_criterion_11_rk_singularity(stage_matrix):
    t0 = time.time()
    worst = 0.0
    for name in ("kdv", "camassa_holm", "bbm"):
        form = registry_get(name)
        lin = linearize(form, np.zeros(form.d))
        for r in (1, 2):
            tab = gauss_tableau(r)
            with pytest.raises(SingularUpdateError):
                build_blocks_rk(lin, tab, 0.1, 0.1)
            worst = max(worst, _kernel_witness_residual(stage_matrix(lin, tab.F, 0.1, 0.1), lin, tab.F, 0.1))
    for name in ("wave", "dirac"):
        form = registry_get(name)
        lin = linearize(form, np.zeros(form.d))
        for r in (1, 2):
            build_blocks_rk(lin, gauss_tableau(r), 0.1, 0.1)  # a regular Q: no SingularUpdateError
    elapsed = time.time() - t0
    report(11, worst <= 1e-8 and elapsed < 5.0,
           f"singular stage systems with kernel-witness residual <= {worst:.2e} ({elapsed:.1f}s)")


# -- criterion 12: discrete conservation -----------------------------------------


def test_criterion_12_discrete_conservation():
    rng = np.random.default_rng(2024)
    worst = 0.0
    t0 = time.time()
    for name in ("wave", "linear_kg", "dirac"):
        form = registry_get(name)
        lin = linearize(form, np.zeros(form.d))
        for _ in range(100):
            pair = random_tangent_pair(lin, 0.01, 0.1, rng)
            worst = max(worst, abs(verify_discrete_conservation(lin, 0.01, 0.1, pair)))
    elapsed = time.time() - t0
    report(12, worst <= 1e-10 and elapsed < 5.0,
           f"discrete conservation residual <= {worst:.2e} on 100 pairs x 3 forms ({elapsed:.1f}s)")


# -- criterion 13: brute-force diamond oracle -------------------------------------


def test_criterion_13_diamond_oracle():
    rng = np.random.default_rng(77)
    worst = 0.0
    t0 = time.time()
    for name in ("dirac", "good_boussinesq"):
        form = registry_get(name)
        K, L = form.K, form.L
        dt = dx = 0.1
        for _ in range(50):
            zb, zl, zr = 0.3 * rng.standard_normal((3, form.d))
            zt = solve_diamonds(form, zb, zl, zr, dt, dx)[0]

            def residual(z):
                avg = 0.25 * (z + zb + zl + zr)
                return K @ (z - zb) / dt + L @ (zr - zl) / dx - eval_grad_S(form, avg)

            sol = root(residual, zb, method="hybr", tol=1e-13)
            assert np.abs(residual(sol.x)).max() < 1e-9
            worst = max(worst, np.abs(zt - sol.x).max())
    elapsed = time.time() - t0
    report(13, worst <= 1e-10 and elapsed < 10.0,
           f"independent root-finder agreement <= {worst:.2e} on 50 inputs x 2 forms ({elapsed:.1f}s)")
