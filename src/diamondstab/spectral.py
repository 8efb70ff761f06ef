"""Spectral (frequency-domain) stability analysis of the diamond schemes.

For a linear form the scheme advances the interleaved zig-zag state by two
half-step maps M1, M2 whose product M is block circulant; it is similar to
a block diagonal family Lambda_k = C0 + zeta^k C+ + zeta^-k C-, so the
dominant eigenvalue modulus over all frequencies k decides stability.  The
same construction with dr x dr edge blocks covers the Runge-Kutta
collocation version.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .msform import LinearizedForm, _require_positive

__all__ = [
    "SingularUpdateError",
    "SimpleBlocks",
    "RKBlocks",
    "SymbolFamily",
    "Criterion",
    "SpectralVerdict",
    "SweepPoint",
    "SweepResult",
    "build_blocks_simple",
    "assemble_symbol_family_simple",
    "assemble_full_update_matrix",
    "build_m1_m2",
    "build_blocks_rk",
    "assemble_symbol_family_rk",
    "assemble_full_update_matrix_rk",
    "symbol_family",
    "spectral_verdict",
    "stability_boundary_sweep",
]


class SingularUpdateError(RuntimeError):
    """Raised when the pivot of the local update is singular.

    For the simple scheme the pivot is K/dt - Peff/4, for the collocation
    scheme the stage matrix Q.  ``_pivot_inverse`` below is the one test;
    ``build_blocks_simple`` and ``build_blocks_rk`` apply it and raise this.
    It is the integrators' one rule for whether a diamond can be solved:
    both schemes' solves, linear or nonlinear, ask the builders, and a run
    asks them before its start.  Structural inconsistency makes the pivot
    singular at every step size, but so can cancelling entries of a
    consistent form (det(x K - Peff/4) = 0 for all x).
    """


def _pivot_inverse(M: np.ndarray) -> np.ndarray | None:
    """M^{-1}, or None where M is singular.

    M is singular when, after scaling its rows and then its columns to unit
    max-norm, its smallest singular value over its largest (floored at 1)
    is below 1e-12.  Pivot entries scale like 1/dt against O(1), so a raw
    relative test would misread extreme but invertible scalings as singular.
    The inverse is that of the unscaled M.
    """
    r = np.abs(M).max(axis=1)
    r[r == 0.0] = 1.0
    B = M / r[:, None]
    c = np.abs(B).max(axis=0)
    c[c == 0.0] = 1.0
    sv = np.linalg.svd(B / c[None, :], compute_uv=False)
    if sv[-1] < 1e-12 * max(sv[0], 1.0):
        return None
    return np.linalg.inv(M)


@dataclass(frozen=True)
class SimpleBlocks:
    B: np.ndarray
    Am: np.ndarray  # multiplies the left corner
    Ap: np.ndarray  # multiplies the right corner
    pivot_inv: np.ndarray  # (K/dt - P/4)^{-1}


@dataclass(frozen=True)
class RKBlocks:
    """One-diamond edge map (zt, zr) = [[Clt, Cbt], [Clr, Cbr]] (zl, zb).

    The stages Z (spatial stage i, temporal stage j, then the d components)
    solve Q Z = Db zb + Dl zl.
    """

    Clt: np.ndarray
    Cbt: np.ndarray
    Clr: np.ndarray
    Cbr: np.ndarray
    Q: np.ndarray
    pivot_inv: np.ndarray  # Q^{-1}
    Db: np.ndarray
    Dl: np.ndarray


@dataclass(frozen=True)
class SymbolFamily:
    """Symbols Lambda(q) = C0 + zeta C+ + zeta^-1 C-, zeta = exp(2 pi i q);
    a periodic mesh of N diamonds has the phases q = k/N, k = 0 .. N-1."""

    C0: np.ndarray
    Cp: np.ndarray
    Cm: np.ndarray
    N: int

    @property
    def block_size(self) -> int:
        return self.C0.shape[0]

    def symbols_at(self, q) -> np.ndarray:
        """The (len(q), m, m) stack of Lambda(q), zeta from ``cmath.exp`` per
        phase.  Phases k/N equal as fractions give equal bits (100 j / 800 and j / 8)."""
        zeta = np.array([cmath.exp(2j * math.pi * p) for p in q])[:, None, None]
        return self.C0 + zeta * self.Cp + self.Cm / zeta

    def symbol(self, k: int) -> np.ndarray:
        """Lambda_k = Lambda(k/N)."""
        return self.symbols_at([k / self.N])[0]


def build_blocks_simple(lin: LinearizedForm, dt: float, dx: float) -> SimpleBlocks:
    """Closed-form one-diamond map z_t = B z_b + Am z_l + Ap z_r; dt and dx
    must be finite and positive (ValueError otherwise)."""
    _require_positive(dt=dt, dx=dx)
    K, L, P = lin.K, lin.L, lin.Peff
    inv = _pivot_inverse(K / dt - P / 4.0)
    if inv is None:
        raise SingularUpdateError(
            f"update pivot K/dt - P/4 is singular for {lin.name!r} at dt={dt:g}; "
            "the form may be structurally inconsistent, or its entries cancel"
        )
    return SimpleBlocks(
        B=inv @ (K / dt + P / 4.0),
        Am=inv @ (L / dx + P / 4.0),
        Ap=inv @ (-L / dx + P / 4.0),
        pivot_inv=inv,
    )


def assemble_symbol_family_simple(blocks: SimpleBlocks, N: int) -> SymbolFamily:
    d = blocks.B.shape[0]
    # X1 = [[B, Ap], [0, I]], Y1 = [[0, Am], [0, 0]], X2 = [[I, 0], [Am, B]],
    # Y2 = [[0, 0], [Ap, 0]], filled by slices rather than np.block
    X1, Y1, X2, Y2 = np.zeros((4, 2 * d, 2 * d))
    X1[:d, :d], X1[:d, d:], X1[d:, d:] = blocks.B, blocks.Ap, np.eye(d)
    Y1[:d, d:] = blocks.Am
    X2[:d, :d], X2[d:, :d], X2[d:, d:] = np.eye(d), blocks.Am, blocks.B
    Y2[d:, :d] = blocks.Ap
    return SymbolFamily(C0=X2 @ X1 + Y2 @ Y1, Cp=Y2 @ X1, Cm=X2 @ Y1, N=N)


def build_m1_m2(lin: LinearizedForm, dt: float, dx: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Explicit half-step matrices on the length-2Nd interleaved state."""
    blocks = build_blocks_simple(lin, dt, dx)
    d = lin.d
    M1 = np.zeros((2 * N * d, 2 * N * d))
    M2 = np.zeros((2 * N * d, 2 * N * d))

    def put(M, bi, bj, val):
        M[bi * d : (bi + 1) * d, bj * d : (bj + 1) * d] = val

    for i in range(N):
        put(M1, 2 * i, 2 * i, blocks.B)
        put(M1, 2 * i, 2 * i + 1, blocks.Ap)
        put(M1, 2 * i, (2 * i - 1) % (2 * N), blocks.Am)
        put(M1, 2 * i + 1, 2 * i + 1, np.eye(d))
        put(M2, 2 * i, 2 * i, np.eye(d))
        put(M2, 2 * i + 1, 2 * i + 1, blocks.B)
        put(M2, 2 * i + 1, 2 * i, blocks.Am)
        put(M2, 2 * i + 1, (2 * i + 2) % (2 * N), blocks.Ap)
    return M1, M2


def assemble_full_update_matrix(lin: LinearizedForm, dt: float, dx: float, N: int) -> np.ndarray:
    """Dense full-step matrix M = M2 M1 (oracle-scale cross check)."""
    M1, M2 = build_m1_m2(lin, dt, dx, N)
    return M2 @ M1


# ---------------------------------------------------------------------------
# Runge-Kutta collocation scheme
# ---------------------------------------------------------------------------


def _kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """np.kron of two matrices, each entry the same one product A[i, j] * B[k, l]."""
    (m, n), (p, q) = A.shape, B.shape
    return (A[:, None, :, None] * B[None, :, None, :]).reshape(m * p, n * q)


def build_blocks_rk(lin: LinearizedForm, tableau, dt: float, dx: float) -> RKBlocks:
    """Assemble the stage system and contract it to the edge map blocks.

    Q = I_{r^2} (x) Peff - I_r (x) F (x) Ktil - F (x) I_r (x) Ltil.
    dt and dx must be finite and positive (ValueError otherwise).
    """
    _require_positive(dt=dt, dx=dx)
    r, d = tableau.r, lin.d
    F, mu, beta, alpha = tableau.F, tableau.mu, tableau.beta, tableau.alpha
    Ktil = lin.K / dt - lin.L / dx
    Ltil = lin.K / dt + lin.L / dx
    Ir = np.eye(r)
    Q = _kron(np.eye(r * r), lin.Peff) - _kron(Ir, _kron(F, Ktil)) - _kron(F, _kron(Ir, Ltil))
    Qinv = _pivot_inverse(Q)
    if Qinv is None:
        raise SingularUpdateError(
            f"collocation stage matrix Q is singular for {lin.name!r}; "
            "structural inconsistency carries over to the high-order scheme"
        )
    Db = -_kron(Ir, _kron(mu[:, None], Ktil))  # -mu_j Ktil zb[i]
    Dl = -_kron(mu[:, None], _kron(Ir, Ltil))  # -mu_i Ltil zl[j]
    Tt = _kron(Ir, _kron(beta[None, :], np.eye(d)))  # contracts temporal stages
    Tr = _kron(beta[None, :], np.eye(r * d))  # contracts spatial stages
    Idr = np.eye(d * r)
    return RKBlocks(
        Clt=Tt @ Qinv @ Dl,
        Cbt=(1.0 - alpha) * Idr + Tt @ Qinv @ Db,
        Clr=(1.0 - alpha) * Idr + Tr @ Qinv @ Dl,
        Cbr=Tr @ Qinv @ Db,
        Q=Q,
        pivot_inv=Qinv,
        Db=Db,
        Dl=Dl,
    )


def assemble_symbol_family_rk(blocks: RKBlocks, N: int) -> SymbolFamily:
    """C0 = [[Clt Cbr, Cbt Clt], [Clr Cbr, Cbr Clt]], Cp = [[Cbt Cbt, 0],
    [Cbr Cbt, 0]], Cm = [[0, Clt Clr], [0, Clr Clr]], filled by slices."""
    Clt, Cbt, Clr, Cbr = blocks.Clt, blocks.Cbt, blocks.Clr, blocks.Cbr
    m = Clt.shape[0]
    C0, Cp, Cm = np.zeros((3, 2 * m, 2 * m))
    C0[:m, :m], C0[:m, m:], C0[m:, :m], C0[m:, m:] = Clt @ Cbr, Cbt @ Clt, Clr @ Cbr, Cbr @ Clt
    Cp[:m, :m], Cp[m:, :m] = Cbt @ Cbt, Cbr @ Cbt
    Cm[:m, m:], Cm[m:, m:] = Clt @ Clr, Clr @ Clr
    return SymbolFamily(C0=C0, Cp=Cp, Cm=Cm, N=N)


def assemble_full_update_matrix_rk(blocks: RKBlocks, N: int) -> np.ndarray:
    """Dense Mtil = Mtil2 Mtil1 over the 2N edge stacks (oracle-scale)."""
    m = blocks.Clt.shape[0]
    M1 = np.zeros((2 * N * m, 2 * N * m))
    M2 = np.zeros((2 * N * m, 2 * N * m))

    def put(M, bi, bj, val):
        M[bi * m : (bi + 1) * m, bj * m : (bj + 1) * m] = val

    for i in range(N):
        left, bottom = (2 * i - 1) % (2 * N), 2 * i
        put(M1, left, left, blocks.Clt)
        put(M1, left, bottom, blocks.Cbt)
        put(M1, bottom, left, blocks.Clr)
        put(M1, bottom, bottom, blocks.Cbr)
        left, bottom = 2 * i, 2 * i + 1
        put(M2, left, left, blocks.Clt)
        put(M2, left, bottom, blocks.Cbt)
        put(M2, bottom, left, blocks.Clr)
        put(M2, bottom, bottom, blocks.Cbr)
    return M2 @ M1


# ---------------------------------------------------------------------------
# verdicts and sweeps
# ---------------------------------------------------------------------------


_TOL = 1e-9  # slack of the "strict" and "nozero" thresholds on the dominant modulus
_SWEEP_RTOL = 1e-6  # the sweep bisects until hi / lo <= 1 + _SWEEP_RTOL (about 22 halvings)


@dataclass(frozen=True)
class Criterion:
    """Named stability criterion for the dominant symbol eigenvalues.

    kind "strict": max over all k of |lambda| <= 1 + _TOL.
    kind "nozero": same but excluding the k = 0 symbol (all diamonds
    sharing one error is not a propagating mode).
    kind "growth": lambda_1 ** (1/dt) <= theta, the practical bound for
    schemes whose dominant modulus exceeds 1 by O(dt^2).
    """

    kind: str = "strict"
    theta: float = 1.1

    def __post_init__(self):
        if self.kind not in ("strict", "nozero", "growth"):
            raise ValueError(f"unknown criterion kind {self.kind!r}")
        # the spectra are reciprocal, so lambda_1 >= 1 and theta <= 1 never passes
        if self.kind == "growth" and not (math.isfinite(self.theta) and self.theta > 1.0):
            raise ValueError(f"growth criterion needs a finite theta > 1, got {self.theta!r}")


@dataclass(frozen=True)
class SpectralVerdict:
    """Dominant eigenvalue moduli over all k and over k >= 1, and the k of each.

    For real blocks k_dominant and k_dominant_nonzero are the representative
    k <= N/2 of the conjugate pair {k, N - k}.  At N = 1 there is no k >= 1:
    the "nonzero" fields repeat k = 0, and "nozero" is refused.  k_marginal
    names the evaluated k (see ``_evaluated``) whose modulus may round across
    the threshold at a nearby dt; ``stability_boundary_sweep`` watches them.
    """

    dominant_all: float
    dominant_nonzero: float
    stable: bool
    criterion: Criterion
    k_dominant: int
    k_dominant_nonzero: int
    k_marginal: tuple[int, ...]


# Phases per stacked eigvals call.  One call on the whole (N, m, m) stack is
# no faster than chunks of 16 to 32 and raises peak memory (by about 5 MB at
# N = 800 with m up to 16).
_EIGVALS_CHUNK = 32
# k_marginal: a modulus within _ON_CIRCLE of 1 is a unitary eigenvalue's
# rounding; one below 1 - _MARGIN (under "growth": below half the threshold)
# is too far inside to cross it
_ON_CIRCLE = 1e-12
_MARGIN = 1e-6


def _moduli_at(family: SymbolFamily, q) -> np.ndarray:
    """max |eig(Lambda(q))| per phase q; a stacked ``eigvals`` call gives
    each symbol the bits of a call on that symbol alone."""
    q = np.asarray(q, dtype=float)
    moduli = np.empty(len(q))
    for start in range(0, len(q), _EIGVALS_CHUNK):
        ev = np.linalg.eigvals(family.symbols_at(q[start : start + _EIGVALS_CHUNK]))
        moduli[start : start + len(ev)] = np.abs(ev).max(axis=1)
    return moduli


def _evaluated(family: SymbolFamily) -> int:
    """How many k, from k = 0, a verdict evaluates rather than mirrors.

    Real blocks give Lambda(1 - q) = conj(Lambda(q)), so k <= N/2 suffice;
    complex blocks need every k.
    """
    real = not any(np.iscomplexobj(C) for C in (family.C0, family.Cp, family.Cm))
    return family.N // 2 + 1 if real else family.N


def _dominant_moduli(family: SymbolFamily) -> np.ndarray:
    """max |eig(Lambda_k)| for k = 0 .. N-1; for real blocks the k > N/2 are
    mirrored from N - k."""
    N = family.N
    ks = np.arange(N)
    moduli = _moduli_at(family, ks[: _evaluated(family)] / N)
    return moduli if len(moduli) == N else moduli[np.minimum(ks, N - ks)]


def _within(criterion: Criterion, dominant: float, dt: float | None) -> bool:
    """The criterion's threshold on one dominant modulus: of all k, or of
    k >= 1 under "nozero"."""
    if criterion.kind != "growth":
        return dominant <= 1.0 + _TOL
    if dt is None:
        raise ValueError("growth criterion needs dt")
    # log-space comparison of lambda1**(1/dt) <= theta avoids overflow
    return dominant <= 0.0 or math.log(dominant) / dt <= math.log(criterion.theta)


def _marginal(criterion: Criterion, moduli: np.ndarray, dt: float | None) -> tuple[int, ...]:
    """The k whose modulus is more than _ON_CIRCLE off the unit circle and
    above 1 - _MARGIN, or under "growth" above half the growth threshold
    (lambda ** (1/dt) > sqrt(theta)); never k = 0 under "nozero"."""
    if criterion.kind == "growth":
        floor = math.exp(0.5 * dt * math.log(criterion.theta))
    else:
        floor = 1.0 - _MARGIN
    marginal = (np.abs(moduli - 1.0) > _ON_CIRCLE) & (moduli > floor)
    if criterion.kind == "nozero":
        marginal[0] = False
    return tuple(int(k) for k in np.flatnonzero(marginal))


def spectral_verdict(family: SymbolFamily, criterion: Criterion, dt: float | None = None) -> SpectralVerdict:
    if criterion.kind == "nozero" and family.N < 2:
        raise ValueError(f'criterion "nozero" excludes k = 0 and needs N >= 2, got N={family.N}')
    moduli = _dominant_moduli(family)
    k_all = int(np.argmax(moduli))
    k_nonzero = int(np.argmax(moduli[1:])) + 1 if family.N > 1 else k_all
    dominant_all = float(moduli[k_all])
    dominant_nonzero = float(moduli[k_nonzero])
    stable = _within(criterion, dominant_nonzero if criterion.kind == "nozero" else dominant_all, dt)
    marginal = _marginal(criterion, moduli[: _evaluated(family)], dt)
    return SpectralVerdict(dominant_all, dominant_nonzero, bool(stable), criterion, k_all, k_nonzero, marginal)


def _witness(family: SymbolFamily, criterion: Criterion, dt: float | None, watch) -> int | None:
    """A watched frequency whose symbol alone breaks the criterion, or None.

    The criterion is a threshold on a maximum over k, and ``_moduli_at`` on
    these phases gives the bits that ``_dominant_moduli`` stores for them,
    so a witness means the full verdict is unstable too.  None decides
    nothing.  The first watched k is read alone and the others only when it
    passes; the witness is the largest modulus of the first stack that
    breaks.  Only evaluated k are read (k <= N/2 for real blocks), and never
    k = 0 under "nozero".
    """
    n = _evaluated(family)
    ks = [k for k in watch if k < n and (k > 0 or criterion.kind != "nozero")]
    for stack in (ks[:1], ks[1:]):
        if stack:
            moduli = _moduli_at(family, [k / family.N for k in stack])
            top = int(np.argmax(moduli))
            if not _within(criterion, float(moduli[top]), dt):
                return stack[top]
    return None


@dataclass(frozen=True)
class SweepPoint:
    dx: float
    N: int
    dt_max: float | None
    verdicts: int  # dt values decided on the watched frequencies, replays included
    spectra: int  # full spectral_verdict calls, each confirming a dt_max


@dataclass(frozen=True)
class SweepResult:
    points: tuple[SweepPoint, ...]
    slope: float | None
    log_c: float | None  # intercept of the free log-log fit


def symbol_family(lin: LinearizedForm, scheme, dt: float, dx: float, N: int) -> SymbolFamily:
    """Frequency symbols of one full step; ``scheme`` is "simple" or an RKTableau."""
    if scheme == "simple":
        return assemble_symbol_family_simple(build_blocks_simple(lin, dt, dx), N)
    return assemble_symbol_family_rk(build_blocks_rk(lin, scheme, dt, dx), N)


def _boundary(stable, dx: float) -> float | None:
    """dx when ``stable`` passes it; else a geometric descent by decades to
    the first dt it passes, then a geometric bisection of that decade until
    hi / lo <= 1 + _SWEEP_RTOL, returning lo.  None when no dt > 1e-12 passes."""
    hi = float(dx)
    if stable(hi):
        return hi
    # the first stable dt from above marks the practical boundary and keeps
    # the search clear of the depth where eigenvalue roundoff swamps the
    # growth-rate criterion
    lo = hi
    while lo > 1e-12:
        lo /= 10.0
        if stable(lo):
            break
    else:
        return None
    hi = lo * 10.0
    while hi / lo > 1.0 + _SWEEP_RTOL:
        mid = math.sqrt(lo * hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _require_sweep_lengths(domain_length: float, dx_list) -> None:
    """The sweep's admissibility rule (msform._require_positive): the domain
    length, every dx and every domain_length / dx, from which N is rounded,
    must be finite and positive."""
    _require_positive(domain_length=domain_length, **{f"dx[{i}]": dx for i, dx in enumerate(dx_list)})
    _require_positive(**{f"domain_length / dx[{i}]": domain_length / dx for i, dx in enumerate(dx_list)})


def stability_boundary_sweep(
    lin: LinearizedForm,
    scheme,
    domain_length: float,
    dx_list,
    criterion: Criterion,
) -> SweepResult:
    """Largest stable dt per dx by bisection on [1e-12, dx].

    ``scheme`` is "simple" or an RKTableau.  The domain length, every dx
    and their ratios must be finite and positive (ValueError naming the
    first that is not; _require_sweep_lengths).
    N is derived from the domain length, so domain-size dependence of the
    boundary shows up directly in the fitted constant.  Each dt_max is
    stable under a full
    ``spectral_verdict``, and unless it is dx, the last dt the bisection
    rejected, within a factor 1 + _SWEEP_RTOL above it, breaks the criterion
    at one frequency: it is unstable under the full verdict too.

    Each dt is decided on a watch set W of frequencies alone
    (``_witness``, which reads the k that last decided a dt unstable first):
    unstable when a watched symbol breaks the criterion, which is exact, and
    otherwise provisionally stable.  When the
    search at a dx ends, one full verdict confirms its dt_max.  Each full
    verdict adds its ``k_marginal`` to W, and an unstable one adds its
    deciding k and runs the search at that dx again from dt = dx.  W carries
    across dx.  The search therefore takes the path, and every bit, of a
    bisection with a full verdict per dt wherever the stability of the
    unwatched frequencies changes only once on the path (at a boundary
    below which they are all stable).
    """
    _require_sweep_lengths(domain_length, dx_list)
    points: list[SweepPoint] = []
    watch: list[int] = []  # the k that last decided a dt unstable comes first

    def lead(k: int) -> None:
        if k in watch:
            watch.remove(k)
        watch.insert(0, k)

    for dx in dx_list:
        N = max(2, round(domain_length / dx))
        decided = spectra = 0

        def provisionally_stable(dt: float) -> bool:
            nonlocal decided
            decided += 1
            k = _witness(symbol_family(lin, scheme, dt, dx, N), criterion, dt, watch)
            if k is not None:
                lead(k)
            return k is None

        while (dt_max := _boundary(provisionally_stable, dx)) is not None:
            spectra += 1
            verdict = spectral_verdict(symbol_family(lin, scheme, dt_max, dx, N), criterion, dt=dt_max)
            watch += [k for k in verdict.k_marginal if k not in watch]
            if verdict.stable:
                break
            lead(verdict.k_dominant_nonzero if criterion.kind == "nozero" else verdict.k_dominant)
        points.append(SweepPoint(float(dx), N, dt_max, decided, spectra))

    fitted = [(p.dx, p.dt_max) for p in points if p.dt_max is not None]
    slope = log_c = None
    if len(fitted) >= 2:
        lx = np.log([p[0] for p in fitted])
        ly = np.log([p[1] for p in fitted])
        slope_arr = np.polyfit(lx, ly, 1)
        slope, log_c = float(slope_arr[0]), float(slope_arr[1])
    return SweepResult(tuple(points), slope, log_c)
