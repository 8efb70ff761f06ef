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

from .msform import LinearizedForm

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
    ``build_blocks_simple`` and ``build_blocks_rk`` apply it and raise this,
    and the integrators ask them.  Structural inconsistency makes the pivot
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
    """Closed-form one-diamond map z_t = B z_b + Am z_l + Ap z_r."""
    if not (dt > 0 and dx > 0):
        raise ValueError(f"dt and dx must be positive, got dt={dt!r}, dx={dx!r}")
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
    I, O = np.eye(d), np.zeros((d, d))
    X1 = np.block([[blocks.B, blocks.Ap], [O, I]])
    Y1 = np.block([[O, blocks.Am], [O, O]])
    X2 = np.block([[I, O], [blocks.Am, blocks.B]])
    Y2 = np.block([[O, O], [blocks.Ap, O]])
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


def build_blocks_rk(lin: LinearizedForm, tableau, dt: float, dx: float) -> RKBlocks:
    """Assemble the stage system and contract it to the edge map blocks.

    Q = I_{r^2} (x) Peff - I_r (x) F (x) Ktil - F (x) I_r (x) Ltil.
    """
    if not (dt > 0 and dx > 0):
        raise ValueError(f"dt and dx must be positive, got dt={dt!r}, dx={dx!r}")
    r, d = tableau.r, lin.d
    F, mu, beta, alpha = tableau.F, tableau.mu, tableau.beta, tableau.alpha
    Ktil = lin.K / dt - lin.L / dx
    Ltil = lin.K / dt + lin.L / dx
    Ir = np.eye(r)
    Q = np.kron(np.eye(r * r), lin.Peff) - np.kron(Ir, np.kron(F, Ktil)) - np.kron(F, np.kron(Ir, Ltil))
    Qinv = _pivot_inverse(Q)
    if Qinv is None:
        raise SingularUpdateError(
            f"collocation stage matrix Q is singular for {lin.name!r}; "
            "structural inconsistency carries over to the high-order scheme"
        )
    Db = -np.kron(np.eye(r), np.kron(mu[:, None], Ktil))  # -mu_j Ktil zb[i]
    Dl = -np.kron(mu[:, None], np.kron(np.eye(r), Ltil))  # -mu_i Ltil zl[j]
    Tt = np.kron(np.eye(r), np.kron(beta[None, :], np.eye(d)))  # contracts temporal stages
    Tr = np.kron(beta[None, :], np.eye(r * d))  # contracts spatial stages
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
    O = np.zeros_like(blocks.Clt)
    C0 = np.block([
        [blocks.Clt @ blocks.Cbr, blocks.Cbt @ blocks.Clt],
        [blocks.Clr @ blocks.Cbr, blocks.Cbr @ blocks.Clt],
    ])
    Cp = np.block([
        [blocks.Cbt @ blocks.Cbt, O],
        [blocks.Cbr @ blocks.Cbt, O],
    ])
    Cm = np.block([
        [O, blocks.Clt @ blocks.Clr],
        [O, blocks.Clr @ blocks.Clr],
    ])
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
        # the spectra are reciprocal, so lambda_1 >= 1 and theta <= 1 never passes
        if self.kind == "growth" and not (math.isfinite(self.theta) and self.theta > 1.0):
            raise ValueError(f"growth criterion needs a finite theta > 1, got {self.theta!r}")

    @staticmethod
    def parse(text: str) -> "Criterion":
        if text == "strict":
            return Criterion("strict")
        if text == "nozero":
            return Criterion("nozero")
        kind, colon, theta = text.partition(":")
        if kind == "growth":
            return Criterion("growth", theta=float(theta) if colon else 1.1)
        raise ValueError(f"unknown criterion {text!r}")


@dataclass(frozen=True)
class SpectralVerdict:
    """Dominant eigenvalue moduli over all k and over k >= 1, and the k of each.

    For real blocks k_dominant and k_dominant_nonzero are the representative
    k <= N/2 of the conjugate pair {k, N - k}.  At N = 1 there is no k >= 1:
    the "nonzero" fields repeat k = 0, and "nozero" is refused.
    """

    dominant_all: float
    dominant_nonzero: float
    stable: bool
    criterion: Criterion
    k_dominant: int
    k_dominant_nonzero: int


# Phases per stacked eigvals call.  One call on the whole (N, m, m) stack is
# no faster than chunks of 16 to 32 and raises peak memory (by about 5 MB at
# N = 800 with m up to 16).
_EIGVALS_CHUNK = 32


def _moduli_at(family: SymbolFamily, q) -> np.ndarray:
    """max |eig(Lambda(q))| per phase q; a stacked ``eigvals`` call gives
    each symbol the bits of a call on that symbol alone."""
    q = np.asarray(q, dtype=float)
    moduli = np.empty(len(q))
    for start in range(0, len(q), _EIGVALS_CHUNK):
        ev = np.linalg.eigvals(family.symbols_at(q[start : start + _EIGVALS_CHUNK]))
        moduli[start : start + len(ev)] = np.abs(ev).max(axis=1)
    return moduli


def _dominant_moduli(family: SymbolFamily) -> np.ndarray:
    """max |eig(Lambda_k)| for k = 0 .. N-1.

    Real blocks give Lambda(1 - q) = conj(Lambda(q)), so only k <= N/2 are
    evaluated and k > N/2 are mirrored from N - k; complex blocks evaluate
    every k.
    """
    N = family.N
    real = not any(np.iscomplexobj(C) for C in (family.C0, family.Cp, family.Cm))
    ks = np.arange(N)
    if not real:
        return _moduli_at(family, ks / N)
    return _moduli_at(family, ks[: N // 2 + 1] / N)[np.minimum(ks, N - ks)]


def _within(criterion: Criterion, dominant: float, dt: float | None) -> bool:
    """The criterion's threshold on one dominant modulus: of all k, or of
    k >= 1 under "nozero"."""
    if criterion.kind in ("strict", "nozero"):
        return dominant <= 1.0 + _TOL
    if criterion.kind == "growth":
        if dt is None:
            raise ValueError("growth criterion needs dt")
        # log-space comparison of lambda1**(1/dt) <= theta avoids overflow
        return dominant <= 0.0 or math.log(dominant) / dt <= math.log(criterion.theta)
    raise ValueError(f"unknown criterion kind {criterion.kind!r}")


def spectral_verdict(family: SymbolFamily, criterion: Criterion, dt: float | None = None) -> SpectralVerdict:
    if criterion.kind == "nozero" and family.N < 2:
        raise ValueError(f'criterion "nozero" excludes k = 0 and needs N >= 2, got N={family.N}')
    moduli = _dominant_moduli(family)
    k_all = int(np.argmax(moduli))
    k_nonzero = int(np.argmax(moduli[1:])) + 1 if family.N > 1 else k_all
    dominant_all = float(moduli[k_all])
    dominant_nonzero = float(moduli[k_nonzero])
    stable = _within(criterion, dominant_nonzero if criterion.kind == "nozero" else dominant_all, dt)
    return SpectralVerdict(dominant_all, dominant_nonzero, bool(stable), criterion, k_all, k_nonzero)


def _witness_unstable(family: SymbolFamily, criterion: Criterion, dt: float | None, k: int) -> bool:
    """True when the symbol at frequency k alone breaks the criterion.

    The criterion is a threshold on a maximum over k, and ``_moduli_at`` on
    this one phase gives the bits that ``_dominant_moduli`` stores for it,
    so True here means the full verdict is unstable too.  False decides
    nothing.  Only k <= N/2 are taken, where ``_dominant_moduli`` evaluates
    rather than mirrors, and never k = 0 under "nozero".
    """
    if k > family.N // 2 or (k == 0 and criterion.kind == "nozero"):
        return False
    return not _within(criterion, float(_moduli_at(family, [k / family.N])[0]), dt)


@dataclass(frozen=True)
class SweepPoint:
    dx: float
    N: int
    dt_max: float | None
    verdicts: int  # dt values decided to find dt_max, by the witness or spectral_verdict


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


def stability_boundary_sweep(
    lin: LinearizedForm,
    scheme,
    domain_length: float,
    dx_list,
    criterion: Criterion,
) -> SweepResult:
    """Largest stable dt per dx by bisection on [1e-12, dx].

    ``scheme`` is "simple" or an RKTableau.  N is derived from the domain
    length, so domain-size dependence of the boundary shows up directly in
    the fitted constant.  The geometric bisection stops once hi / lo <=
    1 + _SWEEP_RTOL, so each dt_max lies within that factor below the
    boundary.

    Each unstable verdict names the frequency k that decided it; the next
    dt, at this dx or the next, first tests that one symbol
    (``_witness_unstable``) and computes the full spectrum only when it
    does not decide.  No verdict changes.
    """
    if not (domain_length > 0 and all(dx > 0 for dx in dx_list)):
        raise ValueError(f"domain length and every dx must be positive, got {domain_length!r} and {dx_list!r}")
    points: list[SweepPoint] = []
    witness: int | None = None  # the k that decided the last unstable verdict
    for dx in dx_list:
        N = max(2, round(domain_length / dx))
        calls = 0

        def stable(dt: float) -> bool:
            nonlocal calls, witness
            calls += 1
            fam = symbol_family(lin, scheme, dt, dx, N)
            if witness is not None and _witness_unstable(fam, criterion, dt, witness):
                return False
            verdict = spectral_verdict(fam, criterion, dt=dt)
            if not verdict.stable:
                witness = verdict.k_dominant_nonzero if criterion.kind == "nozero" else verdict.k_dominant
            return verdict.stable

        # locate a stable bracket end by geometric descent from dx: the first
        # stable dt from above marks the practical boundary and keeps the
        # search clear of the depth where eigenvalue roundoff swamps the
        # growth-rate criterion
        hi = float(dx)
        if stable(hi):
            points.append(SweepPoint(float(dx), N, hi, calls))
            continue
        lo = hi
        while lo > 1e-12:
            lo /= 10.0
            if stable(lo):
                break
        else:
            points.append(SweepPoint(float(dx), N, None, calls))
            continue
        hi = lo * 10.0
        while hi / lo > 1.0 + _SWEEP_RTOL:
            mid = math.sqrt(lo * hi)
            if stable(mid):
                lo = mid
            else:
                hi = mid
        points.append(SweepPoint(float(dx), N, lo, calls))

    fitted = [(p.dx, p.dt_max) for p in points if p.dt_max is not None]
    slope = log_c = None
    if len(fitted) >= 2:
        lx = np.log([p[0] for p in fitted])
        ly = np.log([p[1] for p in fitted])
        slope_arr = np.polyfit(lx, ly, 1)
        slope, log_c = float(slope_arr[0]), float(slope_arr[1])
    return SweepResult(tuple(points), slope, log_c)
