"""Diamond-mesh integrators.

The simple scheme advances an interleaved zig-zag state (integer-point and
half-point values per spatial cell) by solving one implicit d-dimensional
system per diamond; all diamonds of a half-step are independent, so the
solves are vectorized across the mesh.  The collocation variant carries r
values per mesh edge and solves an r*r-stage system per diamond.  Runs of
both schemes record ``norms`` and ``snapshots``; only the simple scheme
records ``energy``, since the collocation edge stacks hold no vertex values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import spectral
from .msform import (
    LinearizedForm,
    MultiSymplecticForm,
    _frozen_array,
    _grad_kernel,
    _KernelSource,
    _made_per_mesh,
    _require_positive,
    eval_S,
    eval_grad_S,
    eval_jac_S,
    linearize,
)

__all__ = [
    "RKTableau",
    "gauss_tableau",
    "parse_scheme",
    "MeshParams",
    "MeshState",
    "RunResult",
    "NewtonError",
    "solve_diamonds",
    "solve_diamond_rk",
    "init_half_step",
    "edge_node_x",
    "init_edges_rk",
    "integrate",
    "total_energy",
    "energy_density",
    "random_tangent_pair",
    "verify_discrete_conservation",
]


class NewtonError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Runge-Kutta collocation coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RKTableau:
    """Collocation tableau plus the derived quantities used by the scheme.

    F is the inverse of A, mu its row sums, beta = b^T F and
    alpha = b^T mu; Gauss nodes give alpha = 1 - (-1)^r.  Tableaus compare
    and hash by identity, so one can key a cache.
    """

    r: int
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    F: np.ndarray = field(init=False)
    mu: np.ndarray = field(init=False)
    beta: np.ndarray = field(init=False)
    alpha: float = field(init=False)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        F = spectral._pivot_inverse(A)
        if F is None:
            raise ValueError("collocation matrix A must be invertible")
        object.__setattr__(self, "A", _frozen_array(A))
        object.__setattr__(self, "b", _frozen_array(self.b))
        object.__setattr__(self, "c", _frozen_array(self.c))
        object.__setattr__(self, "F", _frozen_array(F))
        object.__setattr__(self, "mu", _frozen_array(F.sum(axis=1)))
        object.__setattr__(self, "beta", _frozen_array(self.b @ F))
        object.__setattr__(self, "alpha", float(self.b @ F.sum(axis=1)))


@cache
def gauss_tableau(r: int) -> RKTableau:
    """Gauss-Legendre collocation on (0, 1) with r stages: one tableau per r,
    shared by every caller, so its arrays are read-only and a form's store
    (msform._made_per_mesh) keeps one Step-3 entry per r and mesh."""
    if not 1 <= r <= 4:
        raise ValueError("stage count r must be in 1..4")
    nodes, weights = np.polynomial.legendre.leggauss(r)
    c = np.sort((nodes + 1.0) / 2.0)
    b = weights / 2.0
    # a_ij = integral of the j-th Lagrange basis over [0, c_i]
    A = np.empty((r, r))
    for j in range(r):
        coeffs = np.array([1.0])
        for k in range(r):
            if k == j:
                continue
            coeffs = np.convolve(coeffs, np.array([1.0, -c[k]])) / (c[j] - c[k])
        anti = np.polyint(np.poly1d(coeffs))
        for i in range(r):
            A[i, j] = anti(c[i]) - anti(0.0)
    return RKTableau(r=r, A=A, b=b, c=c)


def parse_scheme(text: str):
    """"simple" -> "simple"; "rk:R" -> the R-stage Gauss tableau."""
    if text == "simple":
        return "simple"
    kind, colon, stages = text.partition(":")
    if kind != "rk" or not colon or not stages.isdigit():
        raise ValueError(f"unknown scheme {text!r}; expected 'simple' or 'rk:R'")
    return gauss_tableau(int(stages))


# ---------------------------------------------------------------------------
# mesh containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeshParams:
    """A periodic mesh of N >= 2 cells on [a, b), run in nt = round(T / dt)
    steps (at least one) to t_end = nt dt, the whole step nearest T.  dt,
    T, the domain length b - a and T / dt must be finite and positive
    (msform._require_positive)."""

    a: float
    b: float
    N: int
    dt: float
    T: float

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("need at least two cells")
        _require_positive(dt=self.dt, T=self.T, domain_length=self.b - self.a)
        _require_positive(**{"T / dt": self.T / self.dt})

    @property
    def dx(self) -> float:
        return (self.b - self.a) / self.N

    @property
    def nt(self) -> int:
        return max(1, round(self.T / self.dt))

    @property
    def t_end(self) -> float:
        return self.nt * self.dt

    def x_int(self) -> np.ndarray:
        return self.a + self.dx * np.arange(self.N)

    def x_half(self) -> np.ndarray:
        return self.a + self.dx * (np.arange(self.N) + 0.5)


@dataclass
class MeshState:
    """Zig-zag state: slot 2i holds z at x_i, slot 2i+1 at x_{i+1/2}.

    ``step`` counts completed full steps; the integer slots sit at time
    step*dt and the half slots at step*dt + dt/2.
    """

    values: np.ndarray  # (2N, d)
    step: int = 0

    def integer_points(self) -> np.ndarray:
        return self.values[0::2]

    def half_points(self) -> np.ndarray:
        return self.values[1::2]


@dataclass
class RunResult:
    status: str  # "completed" | "diverged"
    state: MeshState | None
    times: np.ndarray
    energies: np.ndarray | None
    snapshots: list[tuple[float, np.ndarray]]
    diverged_at: float | None = None
    edge_state: np.ndarray | None = None  # collocation runs
    norms: np.ndarray | None = None  # max-abs over the state per sample


# ---------------------------------------------------------------------------
# single-diamond solves (vectorized over diamonds)
# ---------------------------------------------------------------------------

# a row stays with the chord while each step shrinks at least this factor
# and the steps predicted from that rate reach the tolerance within the budget
_CHORD_CONTRACTION = 100.0
_CHORD_BUDGET = 2
# iterations per chord or Newton run (the box start's too), and the diamond
# solves' step tolerance relative to 1 + |Z|
_MAX_ITER = 50
_STEP_TOL = 1e-13


def _step3_blocks(form: MultiSymplecticForm, scheme, dt: float, dx: float):
    """Step 3's one-diamond map of the form linearized at zero, made once per
    form, scheme ("simple" or an RKTableau), dt and dx, and kept for the
    form's last meshes (msform._made_per_mesh).  Where its pivot is
    singular every lookup raises a new SingularUpdateError with the message
    of the first, which is what is kept."""

    def make(form):
        lin = linearize(form, np.zeros(form.d))
        try:
            if scheme == "simple":
                return spectral.build_blocks_simple(lin, dt, dx)
            return spectral.build_blocks_rk(lin, scheme, dt, dx)
        except spectral.SingularUpdateError as exc:
            return str(exc)

    blocks = _made_per_mesh(form, (dt, dx), scheme, make)
    if isinstance(blocks, str):
        raise spectral.SingularUpdateError(blocks)
    return blocks


def _opscale(form: MultiSymplecticForm, dt: float, dx: float) -> float:
    # residual entries scale with the K/dt operator; tolerances follow
    return np.abs(form.K).max() / dt + np.abs(form.L).max() / dx + 1.0


def _row_norms(Z: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, with bits that do not depend on the batch
    size.  The collocation stacks (n, 1, r*r*d) keep each row contiguous and
    are reduced row by row; the simple scheme's (n, d) rows, stored
    components first, are summed one component at a time, since a reduction
    along a strided axis takes another order for one row than for many."""
    if Z.ndim > 2:
        Z = Z.reshape(len(Z), math.prod(Z.shape[1:]))
        return np.sqrt(np.einsum("ij,ij->i", Z, Z))
    sq = (Z * Z).T
    acc = sq[0] + sq[1]
    for col in sq[2:]:
        acc += col
    return np.sqrt(acc, out=acc)


def _take(arrays: tuple, rows) -> tuple:
    return tuple(a[rows] for a in arrays)


def _require_solved(res: np.ndarray, tol: float, *values: np.ndarray) -> None:
    """The acceptance rule of the nonlinear diamond solves of both schemes: a
    row is solved when its residual norm is at most tol (1 + the norm of
    that row across ``values``); NaN never passes.  Raises NewtonError
    naming the first five rows that are not solved."""
    norm = _row_norms(res)
    # norm <= tol * scale with scale >= 1: only rows above tol need the scale,
    # taken from the row norms of the values side by side (cheaper than
    # gathering the rows above tol from each value first)
    bad = np.flatnonzero(~(norm <= tol))
    if bad.size:
        flat = np.concatenate([v.reshape(len(v), -1) for v in values], axis=1)
        scale = np.sqrt(np.einsum("ij,ij->i", flat, flat))
        bad = bad[~(norm[bad] <= tol * (1.0 + scale[bad]))]
    if bad.size:
        raise NewtonError(f"diamond solve did not converge at rows {bad[:5].tolist()}")


def _solve_nonlinear(residual, jacobian, Z0, data, chord, res_tol):
    """The nonlinear diamond solve of both schemes.

    Rows (axis 0 of Z0 and of every array in ``data``) are independent
    diamonds.  ``residual(Z, *data)`` and ``jacobian(Z, *data)`` take the
    iterates of some rows and the same rows of ``data``.  A chord iteration
    from Z0 with ``chord``, which maps a residual to its step through the
    inverse of the Jacobian at z = 0 and returns that step and its row
    norms, runs first (see _chord_iterate for the rule); the scheme's
    pivot is regular, or Step 3 has refused the solve.  The rows it leaves
    go on to Newton from their last chord iterate, or from Z0 where that
    iterate's residual is not below the one at Z0.  The iterates keep Z0's
    memory layout.  Returns the final iterate and its residual.
    """
    Z = np.copy(Z0)
    res = residual(Z, *data)
    res0 = np.copy(res)
    rows = _chord_iterate(residual, Z, res, data, chord)
    if rows.size:
        # Newton starts afresh where the chord raised the residual or overflowed
        back = rows[~(_row_norms(res[rows]) < _row_norms(res0[rows]))]
        Z[back], res[back] = Z0[back], res0[back]
        Z[rows], res[rows] = _newton(
            residual, jacobian, Z[rows], res[rows], _take(data, rows), res_tol
        )
    return Z, res


def _chord_iterate(residual, Z, res, data, chord):
    """Chord (simplified Newton) steps Z -= delta on the whole batch, where
    ``chord(r)`` returns the step delta of the residual r and its row norms.

    A row is solved once the step it took is below tol = _STEP_TOL (1 + |Z|),
    or once its next step would be below tol / _CHORD_CONTRACTION, the error
    a taken step below tol leaves at that contraction; that step is not
    taken.  A row goes to Newton when its step is not finite, when the
    step shrinks less than _CHORD_CONTRACTION-fold from the one before,
    when the steps predicted from that rate would not reach tol within
    _CHORD_BUDGET more steps, or when _MAX_ITER steps have run; the first
    step, with none before it, is checked for finiteness alone.
    Each row decides for itself, so whether it goes to Newton does not
    depend on the rest of the batch.  Every step evaluates the whole batch
    and moves only the rows still active (a mask, not a compacted copy), so
    a finished row's iterate, and with it its residual, stays as it was and
    the arrays keep the layout the scheme chose (the simple scheme stores
    its rows components first).  Updates Z and res in place and returns the
    rows left for Newton.
    """
    n = len(Z)
    active = np.ones(n, dtype=bool)
    newton = np.zeros(n, dtype=bool)
    tol = _STEP_TOL * (1.0 + _row_norms(Z))
    rate, r = np.zeros(n), res
    # on booleans, a > b is a and not b; the loop ends once no row is active
    for k in range(_MAX_ITER):
        delta, step = chord(r)
        np.greater(active, step < tol / _CHORD_CONTRACTION, out=active)  # solved: not taken
        if k == 0:
            fast = np.isfinite(step)
        else:
            # a finished row keeps its last rate: no 0/0 from its zero step
            np.divide(step, prev, out=rate, where=active)
            fast = (rate <= 1.0 / _CHORD_CONTRACTION) & (step * rate**_CHORD_BUDGET < tol)
        newton |= active > fast
        active &= fast
        if not np.count_nonzero(active):
            break
        np.subtract(Z, delta, out=Z, where=active.reshape((n,) + (1,) * (Z.ndim - 1)))
        r = residual(Z, *data)
        tol = _STEP_TOL * (1.0 + _row_norms(Z))
        np.greater(active, step < tol, out=active)  # solved: the step taken was below tol
        if not np.count_nonzero(active):
            break
        prev = step
    newton |= active  # rows still going after _MAX_ITER steps
    res[...] = r
    return np.flatnonzero(newton)


def _newton(residual, jacobian, Z, res, data, res_tol):
    """Newton on rows started at Z with residual res.

    A row stops once its residual is at most res_tol (1 + |Z|) or its own
    step is below _STEP_TOL (1 + |Z|), so its result does not depend on the
    rest of the batch.  Updates Z and res in place and returns them.
    """
    rows = np.arange(len(Z))
    for _ in range(_MAX_ITER):
        Za, ra = Z[rows], res[rows]
        scale = 1.0 + _row_norms(Za)
        live = _row_norms(ra) > res_tol * scale
        rows, Za, ra, scale = rows[live], Za[live], ra[live], scale[live]
        if rows.size == 0:
            break
        da = _take(data, rows)
        try:
            delta = np.linalg.solve(jacobian(Za, *da), ra.reshape(rows.size, -1, 1)).reshape(Za.shape)
        except np.linalg.LinAlgError as exc:
            raise NewtonError("singular Newton matrix in the diamond solve") from exc
        Z[rows] = Za = Za - delta
        res[rows] = residual(Za, *da)
        rows = rows[~(_row_norms(delta) / scale < _STEP_TOL)]
    return Z, res


@dataclass(frozen=True)
class _DiamondKernel:
    """The simple scheme's generated diamond kernel for one form, dt and dx
    (_generate_diamond_kernel).  Its parts take and return (n, d) rows of n
    diamonds and work on their (d, n) transposes, which are C-contiguous
    where the rows are stored components first.

    ``corners(Zb, Zl, Zr)`` returns c = L/dx (Zr - Zl) - K/dt Zb and
    s = Zb + Zl + Zr, ``residual(Z, c, s)`` returns K/dt Z + c -
    grad S((Z + s)/4), and ``step(r)`` returns the chord step pivot^-1 r,
    with the pivot K/dt - P/4, and its Euclidean norm per diamond.
    ``opscale`` scales the solve's tolerances, and ``Kdt`` is K/dt.
    """

    corners: object
    residual: object
    step: object
    opscale: float
    Kdt: np.ndarray


def _generate_diamond_kernel(form: MultiSymplecticForm, dt: float, dx: float, pivot_inv) -> _DiamondKernel:
    """Python source for the parts of _DiamondKernel, built with the
    gradient kernel's expression builder (msform._KernelSource).

    The nonzero entries of K/dt, L/dx and pivot_inv are inlined as
    constants, and each output component is written into one (d, n) array
    by its last operation.  Every product is summed in column order and
    every norm one component at a time, as a fixed chain of elementwise
    operations, so a diamond's bits do not depend on the batch size.
    """
    d, Kdt, Ldx = form.d, form.K / dt, form.L / dx
    names = {x: [f"{x}{j}" for j in range(d)] for x in "zbecrw"}

    src = _KernelSource()
    src.line("b, l, r = Zb.T, Zl.T, Zr.T")
    src.line("c = np.empty(b.shape)")
    src.line("e = r - l")
    src.rows("e", names["e"])
    src.rows("b", names["b"])
    for i in range(d):
        L_part, K_part = src.linear(Ldx[i], names["e"]), src.linear(Kdt[i], names["b"])
        if L_part and K_part:
            src.line(f"np.subtract({src.sum_of(L_part)}, {src.sum_of(K_part)}, c[{i}])")
        else:
            src.store(f"c[{i}]", L_part or src.linear(-Kdt[i], names["b"]))
    src.line("return c.T, (b + l + r).T")
    corners = src.compile("corners", "Zb", "Zl", "Zr")

    src = _KernelSource()
    src.line("z, c = Z.T, C.T")
    src.line("out = np.empty(z.shape)")
    src.line("w = z + S.T")
    src.line(f"w *= {src.const(0.25)}")
    src.rows("w", names["w"])
    src.rows("z", names["z"])
    src.rows("c", names["c"])
    grad = src.grad_S(form, names["w"])
    for i in range(d):
        known = src.linear(Kdt[i], names["z"]) + [(1.0, names["c"][i])]
        if grad[i] is None:
            src.store(f"out[{i}]", known)
        else:
            src.line(f"np.subtract({src.sum_of(known)}, {grad[i]}, out[{i}])")
    src.line("return out.T")
    residual = src.compile("residual", "Z", "C", "S")

    src = _KernelSource()
    src.line("r = R.T")
    src.line("out = np.empty(r.shape)")
    src.rows("r", names["r"])
    for i in range(d):
        src.store(f"out[{i}]", src.linear(pivot_inv[i], names["r"]))
    src.line("sq = out * out")
    src.line(f"norm = {' + '.join(f'sq[{i}]' for i in range(d))}")
    src.line("return out.T, np.sqrt(norm, norm)")
    step = src.compile("step", "R")
    return _DiamondKernel(corners, residual, step, _opscale(form, dt, dx), Kdt)


def _diamond_kernel(form: MultiSymplecticForm, dt: float, dx: float) -> _DiamondKernel:
    """The form's diamond kernel for dt and dx, made once and kept as Step 3's
    blocks are (_step3_blocks); the chord step
    comes from the pivot of Step 3's blocks, so a singular pivot raises
    SingularUpdateError (_step3_blocks) and no kernel is made."""

    def make(form):
        return _generate_diamond_kernel(form, dt, dx, _step3_blocks(form, "simple", dt, dx).pivot_inv)

    return _made_per_mesh(form, (dt, dx), "kernel", make)


def _rows(Z) -> np.ndarray:
    """Z as (n, d) float rows stored components first, copied only where it
    is not already."""
    return np.asarray(np.atleast_2d(Z), dtype=float, order="F")


def solve_diamonds(
    form: MultiSymplecticForm,
    Zb: np.ndarray,
    Zl: np.ndarray,
    Zr: np.ndarray,
    dt: float,
    dx: float,
    _start: np.ndarray | None = None,
) -> np.ndarray:
    """Solve a batch of diamond updates; rows are independent diamonds.

    Step 3's blocks (spectral.build_blocks_simple) decide whether the
    diamonds can be solved: where the pivot K/dt - P/4 is singular they
    raise SingularUpdateError, linear or not.  Linear forms apply their
    one-diamond map z_t = B z_b + Am z_l + Ap z_r; a stacked product gives
    each row the bits of a one-row call.  Nonlinear forms solve the residual
    K/dt Z + c - grad S((Z + s)/4), with the known corners folded into c and
    s, by _solve_nonlinear with res_tol 1e-13 opscale and the inverse of
    that pivot as the chord.  _require_solved accepts each row at 1e-9
    opscale, scaled by its top and corners, and raises NewtonError
    otherwise.  The rows are stored
    components first (each component of the batch is one contiguous
    vector; inputs stored so are not copied), and the corners, the residual
    and the chord step with its row norms come from one kernel generated
    per form, dt and dx (_DiamondKernel), which forms every product and
    norm one component at a time, so each row of a batch equals a one-row
    call bit for bit.  The iteration starts from the bottom values, or from
    ``_start``, which integrate sets to its time predictor 2 z^n - z^(n-1).
    """
    if form.is_linear:
        # (n, d) float rows: a one-diamond call passes vectors
        Zb, Zl, Zr = (np.array(Z, dtype=float, ndmin=2) for Z in (Zb, Zl, Zr))
        bl = _step3_blocks(form, "simple", dt, dx)
        return (np.concatenate([Zb, Zl, Zr], axis=1)[:, None] @ np.hstack([bl.B, bl.Am, bl.Ap]).T)[:, 0]
    # components first: each column of the (n, d) rows is one contiguous
    # vector, and the transposed (d, n) view the kernel takes is C-contiguous
    Zb, Zl, Zr = (_rows(Z) for Z in (Zb, Zl, Zr))
    kernel = _diamond_kernel(form, dt, dx)
    Zt, res = _solve_nonlinear(
        kernel.residual,
        lambda Z, c, s: kernel.Kdt - 0.25 * eval_jac_S(form, 0.25 * (Z + s)),
        Zb if _start is None else _rows(_start),
        kernel.corners(Zb, Zl, Zr), kernel.step, 1e-13 * kernel.opscale,
    )
    _require_solved(res, 1e-9 * kernel.opscale, Zt, Zb, Zl, Zr)
    return Zt


def solve_diamond_rk(
    form: MultiSymplecticForm,
    tableau: RKTableau,
    zb_stack: np.ndarray,
    zl_stack: np.ndarray,
    dt: float,
    dx: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Collocation update of a batch of independent diamonds.

    Inputs are the r-point stacks on the two lower edges (bottom stack
    indexed by the spatial stage, left stack by the temporal stage), either
    (r, d) for one diamond or (N, r, d) for N diamonds; returns the stacks on
    the two upper edges in the same shape.  Stage values Z[n, i, j] solve the
    collocation system; outputs contract the stages with beta = b^T A^{-1}.
    Step 3's edge map (spectral.build_blocks_rk) of the form linearized at
    zero, made once per form, tableau, dt and dx, holds the pivot test: it
    raises SingularUpdateError where the stage matrix Q is singular.  Linear
    forms apply that map.  Nonlinear forms solve the map's stage system
    Q Z = Db zb + Dl zl with grad S(Z), from the form's generated kernel, in
    place of (I (x) P) Z, by the simple
    scheme's solver, _solve_nonlinear, from stages equal to the bottom stack,
    with the inverse of Q (the stage Jacobian at z = 0) as the chord and
    res_tol 0 (Newton stops a row on its step alone).  _require_solved
    accepts each row by the simple scheme's rule, at 1e-9 opscale (the stage
    residual carries Q's K/dt and L/dx entries), scaled by its stages and
    lower edge stacks, and raises NewtonError otherwise.  Each diamond is
    carried as a (1, r*r*d) row, so each output row equals a one-diamond call
    bit for bit.
    """
    r, d = tableau.r, form.d
    single = np.ndim(zb_stack) <= 2
    zb = np.asarray(zb_stack, dtype=float).reshape(-1, r, d)
    zl = np.asarray(zl_stack, dtype=float).reshape(-1, r, d)
    n = len(zb)
    bl = _step3_blocks(form, tableau, dt, dx)
    if form.is_linear:
        # a stacked product applies the map to each row alone
        zb, zl = zb.reshape(n, r * d, 1), zl.reshape(n, r * d, 1)
        zt = (bl.Clt @ zl + bl.Cbt @ zb).reshape(n, r, d)
        zr = (bl.Clr @ zl + bl.Cbr @ zb).reshape(n, r, d)
        return (zt[0], zr[0]) if single else (zt, zr)

    # residual grad S(Z) + (Q - I (x) P) Z - Db zb - Dl zl; P is Peff of the
    # zero linearization, since every polynomial term has degree >= 2
    m = r * r * d
    A = bl.Q - np.kron(np.eye(r * r), form.P)
    rhs = zb.reshape(n, 1, r * d) @ bl.Db.T + zl.reshape(n, 1, r * d) @ bl.Dl.T

    grad_S = _grad_kernel(form)

    def residual(Z, rhs):
        return grad_S(Z.reshape(len(Z), r * r, d).T).T.reshape(Z.shape) + Z @ A.T - rhs

    def jacobian(Z, rhs):
        J = np.repeat(A[None], len(Z), axis=0)
        blocks = eval_jac_S(form, Z.reshape(len(Z), r * r, d))
        for s in range(r * r):
            J[:, s * d : (s + 1) * d, s * d : (s + 1) * d] += blocks[:, s]
        return J

    Z0 = np.repeat(zb[:, :, None, :], r, axis=2).reshape(n, 1, m)
    chord_matrix = bl.pivot_inv.T

    def chord(res):
        delta = res @ chord_matrix
        return delta, _row_norms(delta)

    Z, res = _solve_nonlinear(residual, jacobian, Z0, (rhs,), chord, 0.0)
    _require_solved(res, 1e-9 * _opscale(form, dt, dx), Z, zb, zl)
    Z = Z.reshape(n, r, r, d)
    beta, alpha = tableau.beta, tableau.alpha
    zt = (1.0 - alpha) * zb + beta @ Z
    zr = (1.0 - alpha) * zl + (beta @ Z.reshape(n, r, r * d)).reshape(n, r, d)
    return (zt[0], zr[0]) if single else (zt, zr)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def init_half_step(
    form: MultiSymplecticForm,
    ic,
    mesh: MeshParams,
    method: str = "auto",
    exact=None,
) -> MeshState:
    """Initial zig-zag state: integer points from the initial condition,
    half points either sampled from a supplied exact solution at t = dt/2
    or computed with one implicit box half-step.
    """
    exact = _exact_start(method, exact)
    xi, xh = mesh.x_int(), mesh.x_half()
    d = form.d
    state = np.empty((2 * mesh.N, d))
    state[0::2] = _eval_pointwise(ic, xi, d)
    if exact is not None:
        state[1::2] = _eval_pointwise(lambda x: exact(x, mesh.dt / 2.0), xh, d)
    else:
        state[1::2] = _box_half_step(form, ic, mesh)
    return MeshState(values=state, step=0)


def _exact_start(method: str, exact):
    """The exact solution a run starts from, or None for the box start:
    "auto" takes ``exact`` when supplied, "exact" requires it, "box" ignores it."""
    if method not in ("auto", "exact", "box"):
        raise ValueError(f"unknown init method {method!r}")
    if method == "exact" and exact is None:
        raise ValueError("exact init requested but no exact solution supplied")
    return None if method == "box" else exact


def _eval_pointwise(fn, xs: np.ndarray, d: int) -> np.ndarray:
    try:
        out = np.asarray(fn(xs), dtype=float)
        if out.shape == (len(xs), d):
            return out
    except (TypeError, ValueError):
        pass
    return np.stack([np.asarray(fn(float(x)), dtype=float) for x in xs])


def splu(A):
    """scipy's sparse LU of ``A``.  scipy is imported here, on the first box
    start, because no other path of the package needs it: imported with the
    package, it about tripled the time and doubled the memory that
    ``import diamondstab`` takes."""
    from scipy.sparse import linalg

    return linalg.splu(A)


def _box_half_step(form: MultiSymplecticForm, ic, mesh: MeshParams) -> np.ndarray:
    """One Preissmann-type box step of length dt/2 onto the half-point grid.

    Cell i spans [x_{i-1/2}, x_{i+1/2}]; the unknown top values sit at the
    half positions and couple globally (the box scheme is fully implicit),
    so this is a single Newton solve of size N*d with a sparse Jacobian.
    """
    N, d = mesh.N, form.d
    dt2, dx = mesh.dt / 2.0, mesh.dx
    xh = mesh.x_half()
    bot = _eval_pointwise(ic, xh, d)  # bottom corners at half positions
    _require_finite(bot, "initial condition")
    K, L = form.K, form.L

    def residual(U):
        Um = np.roll(U, 1, axis=0)
        Bm = np.roll(bot, 1, axis=0)
        tavg = 0.5 * (U + Um)
        bavg = 0.5 * (bot + Bm)
        right = 0.5 * (U + bot)
        left = 0.5 * (Um + Bm)
        ctr = 0.25 * (U + Um + bot + Bm)
        return (tavg - bavg) @ (K / dt2).T + (right - left) @ (L / dx).T - eval_grad_S(form, ctr)

    U = bot.copy()
    res = residual(U)
    opscale = _opscale(form, dt2, dx)

    def converged():
        return np.linalg.norm(res) < 1e-11 * opscale * (1.0 + np.linalg.norm(U))

    if N % 2 == 0 and not converged():
        # on the sawtooth U_i = (-1)^i w block row i is (-1)^i (L/dx) w: the
        # eval_jac_S part cancels, so L w = 0 makes every iterate singular
        if spectral._pivot_inverse(L) is None:
            raise NewtonError(
                "box initialization failed: singular Jacobian, because L is singular and "
                f"N = {N} is even; use the exact start or an odd N"
            )
    from scipy.sparse import bsr_matrix

    dself = K / (2 * dt2) + L / (2 * dx)
    dprev = K / (2 * dt2) - L / (2 * dx)
    # cyclic block-bidiagonal Jacobian: block row i couples cells i and i-1
    cells = np.arange(N)
    block_cols = np.stack([cells, (cells - 1) % N], axis=1).reshape(-1)
    for _ in range(_MAX_ITER):
        if converged():
            break
        ctr = 0.25 * (U + np.roll(U, 1, axis=0) + bot + np.roll(bot, 1, axis=0))
        JS = 0.25 * eval_jac_S(form, ctr)
        blocks = np.stack([dself - JS, dprev - JS], axis=1).reshape(2 * N, d, d)
        J = bsr_matrix((blocks, block_cols, 2 * np.arange(N + 1)), shape=(N * d, N * d))
        # SuperLU's column ordering turns an exact zero pivot into a rounding
        # residue (the wave box Jacobian at even N), so small pivots count too
        try:
            lu = splu(J.tocsc())
        except RuntimeError as exc:
            raise NewtonError("box initialization failed: singular Jacobian") from exc
        pivots = np.abs(lu.U.diagonal())
        if not pivots.min() > N * d * np.finfo(float).eps * pivots.max():
            raise NewtonError("box initialization failed: singular Jacobian")
        U = U - lu.solve(res.reshape(-1)).reshape(N, d)
        res = residual(U)
    else:
        raise NewtonError("box initialization did not converge")
    return U


def edge_node_x(mesh: MeshParams, c) -> np.ndarray:
    """x of the collocation nodes c on the edges, shape (2, r, N): [0, k, i]
    on the edge rising from x_i, [1, k, i] on the edge falling into x_{i+1}."""
    xi, half = mesh.x_int(), 0.5 * mesh.dx * np.asarray(c, dtype=float)[:, None]
    return np.stack((xi + half, (xi + mesh.dx) - half))


def init_edges_rk(
    form: MultiSymplecticForm,
    tableau: RKTableau,
    ic,
    mesh: MeshParams,
    exact=None,
) -> np.ndarray:
    """Initial edge stacks (2N, r, d) for the collocation scheme.

    Slot 2i rises from (x_i, 0), slot 2i+1 falls into (x_{i+1}, 0); the r
    collocation nodes of each edge are sampled from the exact solution when
    available, otherwise interpolated between the initial data and one box
    half-step.
    """
    N, r, d = mesh.N, tableau.r, form.d
    dx, dt = mesh.dx, mesh.dt
    state = np.empty((2 * N, r, d))
    rising, falling = edge_node_x(mesh, tableau.c)

    if exact is not None:
        def sample(xs, t):
            return _eval_pointwise(lambda x: exact(x, t), xs, d)
    else:
        half = _box_half_step(form, ic, mesh)

        def sample(xs, t):
            base = _eval_pointwise(ic, xs, d)
            j = np.rint((xs - mesh.a) / dx - 0.5).astype(int) % N
            frac = 2.0 * t / dt
            return (1.0 - frac) * base + frac * half[j]

    for k, c in enumerate(tableau.c):
        t = 0.5 * dt * c
        state[0::2, k] = sample(rising[k], t)
        state[1::2, k] = sample(falling[k], t)
    return state


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------


def integrate(
    form: MultiSymplecticForm,
    scheme,
    ic,
    mesh: MeshParams,
    observers: tuple[str, ...] | None = None,
    exact=None,
    init_method: str = "auto",
    blowup: float = 1e8,
) -> RunResult:
    """Advance the diamond scheme to the time horizon.

    ``scheme`` is "simple" or an RKTableau / "rk:R" string.  Each half-step
    is an independent map over the N diamonds, solved as one batch; after
    the first step, the nonlinear simple-scheme solves start from the time
    predictor 2 z^n - z^(n-1).  Step 3's pivot of the scheme at the mesh's
    dt and dx is asked before the start: where it is singular the run
    raises SingularUpdateError before any work, linear form or not.  A
    value exceeding ``blowup``, or any non-finite value, ends the run with
    status "diverged" (an outcome, not an error).  A non-finite initial
    state is rejected with ValueError.  ``init_method`` ("auto", "exact"
    or "box") picks the start of both schemes alike.  Observers are sampled at t = 0,
    every max(100, nt / 200) full steps and at the horizon.  "norms" and
    "snapshots" work for both schemes; "energy" is a simple-scheme observer
    (the collocation edge stacks hold no vertex values).  Any other observer,
    or "energy" under collocation, raises ValueError before any work.
    ``observers=None`` records "energy" under the simple scheme and "norms"
    under collocation.
    """
    if isinstance(scheme, str):
        scheme = parse_scheme(scheme)
    simple = scheme == "simple"
    accepted = ("energy", "norms", "snapshots") if simple else ("norms", "snapshots")
    observers = (("energy",) if simple else ("norms",)) if observers is None else observers
    for name in observers:
        if name not in accepted:
            raise ValueError(
                f"observer {name!r} is not recorded by the {'simple' if simple else 'collocation'} "
                f"scheme; expected one of: {', '.join(accepted)}"
            )
    start = _exact_start(init_method, exact)
    _step3_blocks(form, scheme, mesh.dt, mesh.dx)
    nt = mesh.nt
    cadence = max(100, math.ceil(nt / 200))
    want_energy = "energy" in observers
    want_snapshots = "snapshots" in observers
    want_norms = "norms" in observers

    times: list[float] = []
    energies: list[float] = []
    snapshots: list[tuple[float, np.ndarray]] = []
    norms: list[float] = []

    # simple: the zig-zag state (2N, d); collocation: 2N edge stacks (2N, r, d)
    if simple:
        values = init_half_step(form, ic, mesh, exact=start).values
    else:
        values = init_edges_rk(form, scheme, ic, mesh, exact=start)
    _require_finite(values, "initial state")

    def sync():
        # the simple scheme steps the two halves of values as their own arrays
        if simple:
            values[0::2], values[1::2] = evens, odds

    def record(step):
        t = step * mesh.dt
        times.append(t)
        sync()
        if want_energy:
            energies.append(total_energy(form, values[0::2], mesh))
        if want_snapshots:
            snapshots.append((t, (values[0::2] if simple else values).copy()))
        if want_norms:
            norms.append(float(np.abs(values).max()))

    def result(status, step, diverged_at=None):
        sync()
        return RunResult(
            status, MeshState(values, step) if simple else None, np.array(times),
            np.array(energies) if want_energy else None, snapshots,
            diverged_at=diverged_at, edge_state=None if simple else values,
            norms=np.array(norms) if want_norms else None,
        )

    if simple:
        # the two halves of the zig-zag state, stored components first as the
        # solves take them, and copied into values where it is recorded
        evens, odds = np.asfortranarray(values[0::2]), np.asfortranarray(values[1::2])
        neighbours = np.empty_like(evens)
    else:
        evens, odds = values[0::2], values[1::2]
        # the diamond on cell i has its left neighbour at i-1 in the first
        # half-step and its right neighbour at i+1 in the second
        cells = np.arange(mesh.N)
        left, right = (cells - 1) % mesh.N, (cells + 1) % mesh.N
    record(0)
    # nonlinear simple-scheme solves start from the time predictor
    # 2 z^n - z^(n-1), the first step from the bottom values
    predict = simple and not form.is_linear
    guess = (None, None)
    for step in range(1, nt + 1):
        if simple:
            # the diamond on cell i has the half point i-1 on its left
            neighbours[1:], neighbours[0] = odds[:-1], odds[-1]
            top = solve_diamonds(form, evens, neighbours, odds, mesh.dt, mesh.dx, guess[0])
            guess_evens = 2.0 * top - evens if predict else None
            evens = top
            if _blown_up(evens, blowup):
                return result("diverged", step, diverged_at=(step - 0.5) * mesh.dt)
            # and the integer point i+1 on its right in the second half-step
            neighbours[:-1], neighbours[-1] = evens[1:], evens[0]
            top = solve_diamonds(form, odds, evens, neighbours, mesh.dt, mesh.dx, guess[1])
            guess = (guess_evens, 2.0 * top - odds if predict else None)
            odds = top
            if _blown_up(odds, blowup):
                return result("diverged", step, diverged_at=step * mesh.dt)
        else:
            # the diamond on cell i takes slot 2i from below and its left
            # neighbour slot 2i-1 in the first half-step, and slots 2i+1
            # (below) and 2i (left) in the second
            zt, zr = solve_diamond_rk(form, scheme, evens, odds[left], mesh.dt, mesh.dx)
            evens[:], odds[:] = zr, zt[right]
            zt, zr = solve_diamond_rk(form, scheme, odds, evens, mesh.dt, mesh.dx)
            evens[:], odds[:] = zt, zr
            if _blown_up(values, blowup):
                return result("diverged", step, diverged_at=step * mesh.dt)
        if step % cadence == 0 or step == nt:
            record(step)
    return result("completed", nt)


def _blown_up(values: np.ndarray, blowup: float) -> bool:
    peak = np.abs(values).max()
    return not math.isfinite(peak) or peak > blowup


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"{what} is not finite")


# ---------------------------------------------------------------------------
# observers
# ---------------------------------------------------------------------------


def energy_density(form: MultiSymplecticForm, z: np.ndarray, dx: float) -> np.ndarray:
    # E = S(z) - z . L z_x / 2 satisfies a local conservation law for any form
    zx = (np.roll(z, -1, axis=0) - np.roll(z, 1, axis=0)) / (2.0 * dx)
    return eval_S(form, z) - 0.5 * np.einsum("ij,ij->i", z, zx @ form.L.T)


def total_energy(form: MultiSymplecticForm, state, mesh: MeshParams) -> float:
    """Riemann-sum energy over the integer points."""
    z = state.integer_points() if isinstance(state, MeshState) else np.asarray(state)
    return float(energy_density(form, z, mesh.dx).sum() * mesh.dx)


# ---------------------------------------------------------------------------
# discrete conservation law
# ---------------------------------------------------------------------------


def random_tangent_pair(lin: LinearizedForm, dt: float, dx: float, rng) -> tuple[dict, dict]:
    """Two tangent fields satisfying the linearized diamond update."""
    blocks = spectral.build_blocks_simple(lin, dt, dx)
    pair = []
    for _ in range(2):
        xi_b, xi_l, xi_r = rng.standard_normal((3, lin.d))
        xi_t = blocks.B @ xi_b + blocks.Am @ xi_l + blocks.Ap @ xi_r
        pair.append({"b": xi_b, "l": xi_l, "r": xi_r, "t": xi_t})
    return tuple(pair)


def verify_discrete_conservation(
    lin: LinearizedForm, dt: float, dx: float, tangent_pair
) -> float:
    """Residual of the discrete symplectic conservation law on a tangent pair.

    Wedge terms are evaluated as antisymmetric bilinear forms
    w_M(xi, eta) = xi^T M eta - eta^T M xi on the two tangents.
    """
    xi, eta = tangent_pair
    A0 = lin.K / dt - lin.Peff / 4.0
    for tang in (xi, eta):
        res = A0 @ tang["t"] - (
            (lin.K / dt + lin.Peff / 4.0) @ tang["b"]
            + (lin.L / dx + lin.Peff / 4.0) @ tang["l"]
            + (-lin.L / dx + lin.Peff / 4.0) @ tang["r"]
        )
        if np.linalg.norm(res) > 1e-10 * (1.0 + np.linalg.norm(tang["t"])):
            raise ValueError("tangent does not satisfy the linearized diamond update")

    def wedge(keys_a, key_b, M):
        a_xi = sum(xi[k] for k in keys_a)
        a_eta = sum(eta[k] for k in keys_a)
        return float(a_xi @ M @ eta[key_b] - a_eta @ M @ xi[key_b])

    t_part = wedge(("l", "t", "r"), "t", lin.K) - wedge(("l", "b", "r"), "b", lin.K)
    x_part = wedge(("t", "r", "b"), "r", lin.L) - wedge(("t", "l", "b"), "l", lin.L)
    return t_part / (4.0 * dt) + x_part / (4.0 * dx)
