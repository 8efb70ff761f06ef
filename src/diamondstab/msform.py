"""Multi-symplectic PDE forms.

A form is a first-order system ``K z_t + L z_x = grad S(z)`` with
skew-symmetric ``K`` and ``L``.  The gradient is split into a linear part
``P z`` and a list of polynomial terms of total degree >= 2, which keeps
every form exactly serializable and makes Jacobians exact.  The potential S
itself is derived from that gradient (``eval_S``), so every validated form,
registered or loaded from JSON, has an energy.

The registry at the bottom ships the standard catalogue of equations used
throughout the stability pipeline (wave, Klein-Gordon variants, advection,
KdV, Camassa-Holm, BBM, Hunter-Saxton, Boussinesq variants, Ostrovsky,
Dirac, Schroedinger).
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PolynomialTerm",
    "MultiSymplecticForm",
    "LinearizedForm",
    "ValidationReport",
    "FormValidationError",
    "UnknownFormError",
    "validate_form",
    "linearize",
    "eval_grad_S",
    "eval_jac_S",
    "eval_S",
    "registry_get",
    "registry_names",
    "load_form_json",
    "form_to_dict",
    "nls_constant_amplitude_linearization",
]


@dataclass(frozen=True)
class PolynomialTerm:
    """One polynomial summand of a gradient component.

    ``row`` is 1-based (matching the JSON schema), ``exponents`` has one
    nonnegative integer per variable.  Degree-1 content belongs in the
    linear part ``P``, so total degree must be >= 2.
    """

    row: int
    coeff: float
    exponents: tuple[int, ...]

    @property
    def degree(self) -> int:
        return int(sum(self.exponents))


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class MultiSymplecticForm:
    """Immutable container for one multi-symplectic system.

    Instances compare by identity (arrays make field-wise equality and
    hashing unhelpful), which also lets evaluation caches key off them.
    ``params`` records the named constants the form was built with.
    """

    name: str
    names: tuple[str, ...]
    K: np.ndarray
    L: np.ndarray
    P: np.ndarray
    terms: tuple[PolynomialTerm, ...] = ()
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "K", _frozen_array(self.K))
        object.__setattr__(self, "L", _frozen_array(self.L))
        object.__setattr__(self, "P", _frozen_array(self.P))
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "terms", tuple(self.terms))

    @property
    def d(self) -> int:
        return len(self.names)

    @property
    def is_linear(self) -> bool:
        return len(self.terms) == 0

    def param(self, key: str) -> float:
        return dict(self.params)[key]


@dataclass(frozen=True)
class LinearizedForm:
    """Constant-coefficient system ``K z_t + L z_x = Peff z`` about z_ref."""

    name: str
    names: tuple[str, ...]
    K: np.ndarray
    L: np.ndarray
    Peff: np.ndarray
    z_ref: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "K", _frozen_array(self.K))
        object.__setattr__(self, "L", _frozen_array(self.L))
        object.__setattr__(self, "Peff", _frozen_array(self.Peff))
        object.__setattr__(self, "z_ref", _frozen_array(self.z_ref))

    @property
    def d(self) -> int:
        return len(self.names)


class UnknownFormError(KeyError):
    pass


class FormValidationError(ValueError):
    def __init__(self, report: "ValidationReport"):
        self.report = report
        super().__init__("; ".join(report.issues))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    issues: tuple[str, ...]


# ---------------------------------------------------------------------------
# gradient / Jacobian evaluation
# ---------------------------------------------------------------------------


import weakref

_TERM_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _compiled_terms(form: MultiSymplecticForm):
    """Stacked exponent/coefficient arrays for vectorized term evaluation.

    Monomials are evaluated by gathering from a table of variable powers, so
    the hot path uses only multiplies (no float pow).
    """
    cached = _TERM_CACHE.get(form)
    if cached is not None:
        return cached
    d = form.d
    n = len(form.terms)
    E = np.array([t.exponents for t in form.terms], dtype=np.intp).reshape(n, d)
    C = np.array([t.coeff for t in form.terms])
    R = np.zeros((n, d))
    for i, t in enumerate(form.terms):
        R[i, t.row - 1] = 1.0
    # derivative exponents: E[t] - e_j clipped at 0 (the factor E[t, j]
    # vanishes exactly where clipping changes the value)
    Ederiv = np.maximum(E[:, None, :] - np.eye(d, dtype=np.intp)[None, :, :], 0)
    cols_g = np.broadcast_to(np.arange(d), (n, d))
    cols_j = np.broadcast_to(np.arange(d), (n, d, d))
    cached = (E, C, R, Ederiv, int(E.max()), cols_g, cols_j)
    _TERM_CACHE[form] = cached
    return cached


def _power_table(z: np.ndarray, max_exp: int) -> np.ndarray:
    pows = np.empty(z.shape + (max_exp + 1,))
    pows[..., 0] = 1.0
    for k in range(1, max_exp + 1):
        pows[..., k] = pows[..., k - 1] * z
    return pows


def eval_grad_S(form: MultiSymplecticForm, z) -> np.ndarray:
    """Evaluate grad S(z) = P z + polynomial terms.

    ``z`` may be a single vector of length d or a batch (..., d); the result
    has the same shape.
    """
    z = np.asarray(z, dtype=float)
    out = z @ form.P.T
    if form.terms:
        E, C, R, _, max_exp, cols_g, _ = _compiled_terms(form)
        pows = _power_table(z, max_exp)
        monos = pows[..., cols_g, E].prod(axis=-1)
        out += (C * monos) @ R
    return out


def _generate_grad_kernel(form: MultiSymplecticForm):
    """grad S as Python source generated from P and the term list.

    The returned function takes its points components first: ``w[j]`` holds
    the j-th component of every point (arrays of one common shape, or
    scalars), and the result stacks the d components of grad S on a new
    first axis.  Component i is the sum of the nonzero P[i, j] w[j] (column
    order) and of its terms, factored: the factor common to all the row's
    terms is taken out, and the rest is summed by coefficient (in order of
    first appearance), each coefficient times its own common factor times
    the sum of the remaining monomials.  So the NLS rows are p (a (p^2 + q^2))
    and q (a (p^2 + q^2)), and every power (by repeated multiplication, as
    in eval_grad_S), monomial, sum and factored row part is formed once.
    Each component is a fixed chain of elementwise operations, so a point's
    bits do not depend on how many points share the call; they differ from
    eval_grad_S's by rounding.  The constants are bound by name as 0-d
    arrays, which multiply arrays faster than Python floats do.
    """
    d = form.d
    lines = [f"    {', '.join(f'w{j}' for j in range(d))}, = w"]
    consts: dict[str, np.ndarray] = {}
    temps: dict[tuple, str] = {}

    def let(key: tuple, expr: str) -> str:
        # one temporary per distinct subexpression, in order of first use
        if key not in temps:
            temps[key] = f"t{len(temps)}"
            lines.append(f"    {temps[key]} = {expr}")
        return temps[key]

    def power(j: int, e: int) -> str:
        return f"w{j}" if e == 1 else let(("pow", j, e), f"{power(j, e - 1)} * w{j}")

    def monomial(exps: tuple) -> str | None:
        factors = [power(j, e) for j, e in enumerate(exps) if e]
        if len(factors) <= 1:
            return factors[0] if factors else None
        return let(("mono", exps), " * ".join(factors))

    def times(factor: str | None, expr: str) -> str:
        return expr if factor is None else f"{factor} * {expr}"

    def scaled(value: float, expr: str | None) -> tuple[str, str]:
        # sign and summand; a unit coefficient multiplies by nothing
        if value in (1.0, -1.0):
            return ("-" if value < 0 else "+"), expr or "1.0"
        key = f"k{len(consts)}"
        consts[key] = np.array(float(value))
        return "+", times(key, expr) if expr else key

    def split(exps_list: list[tuple]) -> tuple[tuple, tuple]:
        common = tuple(min(col) for col in zip(*exps_list))
        return common, tuple(tuple(e - c for e, c in zip(m, common)) for m in exps_list)

    def summed(summands: list[tuple[str, str]]) -> str:
        (sign, first), more = summands[0], summands[1:]
        return ("-" if sign == "-" else "") + first + "".join(f" {s} {x}" for s, x in more)

    def by_coefficient(members: tuple) -> list[tuple[str, str]]:
        groups: dict[float, list[tuple]] = {}
        for coeff, exps in members:
            groups.setdefault(coeff, []).append(exps)
        summands = []
        for coeff, exps_list in groups.items():
            if len(exps_list) == 1:
                summands.append(scaled(coeff, monomial(exps_list[0])))
                continue
            common, rest = split(exps_list)
            total = let(("sum", rest), " + ".join(monomial(m) or "1.0" for m in rest))
            factor = monomial(common)
            summands.append(scaled(coeff, total if factor is None else let(("prod", common, rest), times(factor, total))))
        return summands

    for i in range(d):
        summands = [scaled(form.P[i, j], f"w{j}") for j in np.flatnonzero(form.P[i])]
        members = [(t.coeff, tuple(t.exponents)) for t in form.terms if t.row == i + 1]
        common, rest = split([exps for _, exps in members]) if members else ((), ())
        if len(members) > 1 and any(common):
            inner = tuple(zip((c for c, _ in members), rest))
            part = temps.get(("inner", inner)) or let(("inner", inner), summed(by_coefficient(inner)))
            summands.append(("+", let(("prod", common, inner), times(monomial(common), part))))
        elif members:
            summands += by_coefficient(tuple(members))
        lines.append(f"    g{i} = {summed(summands) if summands else 'np.zeros_like(w0)'}")
    lines.append(f"    return np.array([{', '.join(f'g{i}' for i in range(d))}])")
    namespace = {"np": np, **consts}
    exec("def grad_S(w):\n" + "\n".join(lines), namespace)
    return namespace["grad_S"]


def eval_jac_S(form: MultiSymplecticForm, z) -> np.ndarray:
    """Jacobian of grad S at z; shape (..., d, d)."""
    z = np.asarray(z, dtype=float)
    batch = z.shape[:-1]
    d = form.d
    jac = np.broadcast_to(form.P, batch + (d, d)).copy()
    if form.terms:
        E, C, R, Ederiv, max_exp, _, cols_j = _compiled_terms(form)
        pows = _power_table(z, max_exp)
        # val[..., t, j] = coeff_t * E[t, j] * z ** (E[t] - e_j)
        monos = pows[..., cols_j, Ederiv].prod(axis=-1)
        val = (C[:, None] * E) * monos
        jac += np.einsum("...tj,tr->...rj", val, R)
    return jac


def eval_S(form: MultiSymplecticForm, z) -> np.ndarray:
    """Evaluate the scalar S(z) from its gradient, with S(0) = 0.

    S(z) = integral over tau in [0, 1] of z . grad S(tau z)
         = z.Pz / 2 + sum_t c_t z_{row_t} z^{e_t} / (|e_t| + 1),
    which is exact for the exact polynomial gradients validate_form admits.
    """
    z = np.asarray(z, dtype=float)
    out = 0.5 * np.einsum("...i,...i->...", z, z @ form.P.T)
    if form.terms:
        E, C, R, _, max_exp, cols_g, _ = _compiled_terms(form)
        monos = _power_table(z, max_exp)[..., cols_g, E].prod(axis=-1)
        out += (monos * (z @ R.T)) @ (C / (E.sum(axis=1) + 1))
    return out


def linearize(form: MultiSymplecticForm, z_ref) -> LinearizedForm:
    """Linearize grad S about z_ref: Peff = P + (Jacobian of terms at z_ref)."""
    z_ref = np.asarray(z_ref, dtype=float)
    if z_ref.shape != (form.d,):
        raise ValueError(f"z_ref must have length {form.d}")
    return LinearizedForm(
        name=form.name,
        names=form.names,
        K=form.K,
        L=form.L,
        Peff=eval_jac_S(form, z_ref),
        z_ref=z_ref,
    )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


_CHECK_POINTS, _CHECK_SEED = 10, 0  # validate_form's seeded random points
_FD_STEP = 1e-6  # central-difference step of validate_form's check


def validate_form(form: MultiSymplecticForm) -> ValidationReport:
    """Check the structural invariants of a form.

    Every entry of K, L, P and every term coefficient must be finite, and
    skew-symmetry of K and L is required exactly.  Gradient exactness
    (symmetry of the Jacobian of grad S) is checked analytically and against
    central finite differences, 1e-6 relative, at 10 seeded random points
    evaluated in one batch; the first failing point in draw order is the one
    reported.  Every tolerance test fails on NaN.
    """
    issues: list[str] = []
    d = form.d
    if d < 2:
        issues.append(f"dimension d={d} < 2")
    for label, M in (("K", form.K), ("L", form.L), ("P", form.P)):
        if M.shape != (d, d):
            issues.append(f"{label} has shape {M.shape}, expected {(d, d)}")
        elif len(bad := np.argwhere(~np.isfinite(M))):
            i, j = bad[0]
            issues.append(f"{label}[{i}][{j}] = {M[i, j]} is not finite")
        elif label != "P" and len(bad := np.argwhere(M != -M.T)):
            i, j = bad[0]
            issues.append(f"{label} not skew-symmetric at ({i},{j})")
    for k, t in enumerate(form.terms):
        if not math.isfinite(t.coeff):
            issues.append(f"terms[{k}].coeff = {t.coeff} is not finite")
        if not (1 <= t.row <= d):
            issues.append(f"term row {t.row} out of range 1..{d}")
        if len(t.exponents) != d:
            issues.append(f"term exponents {t.exponents} not length {d}")
        elif any(e < 0 or int(e) != e for e in t.exponents):
            issues.append(f"term exponents {t.exponents} not nonnegative integers")
        elif t.degree < 2:
            issues.append(f"term in row {t.row} has degree {t.degree} < 2")
    if issues:
        return ValidationReport(False, tuple(issues))

    rng = np.random.default_rng(_CHECK_SEED)
    z = 0.5 * rng.standard_normal((_CHECK_POINTS, d))
    # an overflow gives inf or NaN, which the tolerance tests below refuse
    with np.errstate(over="ignore", invalid="ignore"):
        jac = eval_jac_S(form, z)
        tol = 1e-6 * np.maximum(1.0, np.abs(jac).max(axis=(1, 2)))
        # grad S at z +- h e_j for every point and j, shape (2, points, j, d)
        steps = _FD_STEP * np.eye(d)
        grads = eval_grad_S(form, np.stack([z[:, None] + steps, z[:, None] - steps]))
        fd = np.swapaxes(grads[0] - grads[1], 1, 2) / (2 * _FD_STEP)
        asym = np.abs(jac - np.swapaxes(jac, 1, 2))
        fd_ok = np.abs(jac - fd).max(axis=(1, 2)) <= tol
    failing = np.flatnonzero(~(fd_ok & (asym.max(axis=(1, 2)) <= tol)))
    if failing.size:
        p = failing[0]
        if not fd_ok[p]:
            issues.append("analytic Jacobian disagrees with finite differences")
        else:
            i, j = np.unravel_index(np.argmax(asym[p]), (d, d))
            issues.append(
                f"grad S is not exact: Jacobian asymmetric at ({i},{j}) for z={np.round(z[p], 3).tolist()}"
            )
    return ValidationReport(not issues, tuple(issues))


# ---------------------------------------------------------------------------
# JSON ingestion
# ---------------------------------------------------------------------------


def form_to_dict(form: MultiSymplecticForm) -> dict:
    return {
        "name": form.name,
        "d": form.d,
        "names": list(form.names),
        "K": form.K.tolist(),
        "L": form.L.tolist(),
        "P": form.P.tolist(),
        "terms": [
            {"row": t.row, "coeff": t.coeff, "exponents": list(t.exponents)}
            for t in form.terms
        ],
    }


def _json_integer(path, where: str, value) -> int:
    """An integer entry of a JSON form; integral floats such as 2.0 pass."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{path}: {where} = {value!r} is not an integer")


def _json_list(path, where: str, value) -> list:
    """A list entry of a JSON form."""
    if not isinstance(value, list):
        raise ValueError(f"{path}: {where} = {value!r} is not a list")
    return value


def _json_term(path, k: int, term) -> PolynomialTerm:
    """terms[k] of a JSON form: an object with "row", "coeff" and "exponents"."""
    if not isinstance(term, dict):
        raise ValueError(f"{path}: terms[{k}] = {term!r} is not an object")
    for key in ("row", "coeff", "exponents"):
        if key not in term:
            raise ValueError(f"{path}: terms[{k}] has no {key!r}")
    if isinstance(term["coeff"], bool) or not isinstance(term["coeff"], (int, float)):
        raise ValueError(f"{path}: terms[{k}].coeff = {term['coeff']!r} is not a number")
    exponents = _json_list(path, f"terms[{k}].exponents", term["exponents"])
    return PolynomialTerm(
        _json_integer(path, f"terms[{k}].row", term["row"]),
        float(term["coeff"]),
        tuple(_json_integer(path, f"terms[{k}].exponents[{i}]", e) for i, e in enumerate(exponents)),
    )


def load_form_json(path) -> MultiSymplecticForm:
    """Load a form from the documented JSON schema and validate it.

    ``d``, each term's ``row`` and its ``exponents`` must be integers (an
    integral float such as 2.0 is read as one); anything else is refused
    rather than truncated.  ``names``, ``terms`` and each ``exponents`` must
    be lists, and each term an object with a ``row``, a numeric ``coeff``
    and ``exponents``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: the top level is not an object")
    for key in ("d", "names", "K", "L", "P"):
        if key not in data:
            raise ValueError(f"{path}: missing required key {key!r}")
    d = _json_integer(path, "d", data["d"])
    names = tuple(str(n) for n in _json_list(path, "names", data["names"]))
    if len(names) != d:
        raise ValueError(f"{path}: names has length {len(names)}, expected d={d}")
    terms = tuple(_json_term(path, k, t) for k, t in enumerate(_json_list(path, "terms", data.get("terms", []))))
    form = MultiSymplecticForm(
        name=str(data.get("name", "json_form")),
        names=names,
        K=data["K"],
        L=data["L"],
        P=data["P"],
        terms=terms,
    )
    report = validate_form(form)
    if not report.ok:
        raise FormValidationError(report)
    return form


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def _skew(d: int, entries: dict[tuple[int, int], float]) -> np.ndarray:
    M = np.zeros((d, d))
    for (i, j), v in entries.items():
        M[i, j] = v
        M[j, i] = -v
    return M


def _sym(d: int, entries: dict[tuple[int, int], float]) -> np.ndarray:
    M = np.zeros((d, d))
    for (i, j), v in entries.items():
        M[i, j] = v
        M[j, i] = v
    return M


def _wave() -> MultiSymplecticForm:
    """Wave equation u_tt - u_xx = 0 with v = u_t, w = u_x."""
    K = _skew(3, {(0, 1): -1.0})
    L = _skew(3, {(0, 2): 1.0})
    P = np.diag([0.0, 1.0, -1.0])
    return MultiSymplecticForm("wave", ("u", "v", "w"), K, L, P)


def _linear_kg() -> MultiSymplecticForm:
    """Linear Klein-Gordon with quadratic potential u^2/2 (v = u_t, w = u_x).

    With the wave matrices this encodes u_tt - u_xx = -u.
    """
    K = _skew(3, {(0, 1): -1.0})
    L = _skew(3, {(0, 2): 1.0})
    P = np.diag([1.0, 1.0, -1.0])
    return MultiSymplecticForm("linear_kg", ("u", "v", "w"), K, L, P)


def _mixed_kg(a: float = -math.pi**2) -> MultiSymplecticForm:
    """Mixed-derivative (light-cone) Klein-Gordon u_tx = a u."""
    K = _skew(3, {(0, 1): 0.5})
    L = _skew(3, {(0, 2): 1.0})
    P = _sym(3, {(0, 0): -a, (1, 2): 1.0})
    return MultiSymplecticForm(
        "mixed_kg", ("u", "v", "w"), K, L, P, params=(("a", a),)
    )


def _advection() -> MultiSymplecticForm:
    """Advection equation u_t + u_x = 0, z = (phi, u, w)."""
    K = _skew(3, {(0, 1): 1.0})
    L = _skew(3, {(0, 2): 1.0})
    P = _sym(3, {(1, 1): 2.0, (1, 2): -1.0})
    return MultiSymplecticForm("advection", ("phi", "u", "w"), K, L, P)


def _kdv() -> MultiSymplecticForm:
    """KdV equation u_t + u u_x + u_xxx = 0, z = (psi, u, w, p)."""
    K = _skew(4, {(0, 1): 1.0})
    L = np.zeros((4, 4))
    L[0, 3], L[3, 0] = 1.0, -1.0
    L[1, 2], L[2, 1] = -2.0, 2.0
    P = _sym(4, {(1, 3): -1.0, (2, 2): 2.0})
    terms = (PolynomialTerm(2, 1.0, (0, 2, 0, 0)),)
    return MultiSymplecticForm("kdv", ("psi", "u", "w", "p"), K, L, P, terms)


def _camassa_holm() -> MultiSymplecticForm:
    """Camassa-Holm u_t - u_txx + 3 u u_x = 2 u_x u_xx + u u_xxx, z = (u, phi, w, psi, v).

    S = u w / 2 - u v^2 / 2 + v psi.
    """
    K = _skew(5, {(0, 1): 0.5, (0, 4): -0.5})
    L = _skew(5, {(0, 3): -1.0, (1, 2): -0.5})
    P = _sym(5, {(0, 2): 0.5, (3, 4): 1.0})
    terms = (
        PolynomialTerm(1, -0.5, (0, 0, 0, 0, 2)),
        PolynomialTerm(5, -1.0, (1, 0, 0, 0, 1)),
    )
    return MultiSymplecticForm("camassa_holm", ("u", "phi", "w", "psi", "v"), K, L, P, terms)


def _bbm(sigma: float = 1.0) -> MultiSymplecticForm:
    """BBM equation u_t + u u_x + sigma u_xxt = 0, z = (phi, u, v, w, p)."""
    K = _skew(5, {(0, 1): -0.5, (1, 2): -0.5 * sigma})
    L = _skew(5, {(0, 4): -1.0, (1, 3): -0.5 * sigma})
    P = _sym(5, {(1, 4): 1.0, (2, 3): 0.5 * sigma})
    terms = (PolynomialTerm(2, -0.5, (0, 2, 0, 0, 0)),)
    return MultiSymplecticForm(
        "bbm", ("phi", "u", "v", "w", "p"), K, L, P, terms, params=(("sigma", sigma),)
    )


def _hunter_saxton_1() -> MultiSymplecticForm:
    """Hunter-Saxton, first formulation; z = (u, phi, w, v, eta).

    S = -u w - u eta^2 / 2 + v eta.
    """
    K = _skew(5, {(0, 4): -0.5})
    L = _skew(5, {(0, 3): -1.0, (1, 2): 1.0})
    P = _sym(5, {(0, 2): -1.0, (3, 4): 1.0})
    terms = (
        PolynomialTerm(1, -0.5, (0, 0, 0, 0, 2)),
        PolynomialTerm(5, -1.0, (1, 0, 0, 0, 1)),
    )
    return MultiSymplecticForm("hunter_saxton_1", ("u", "phi", "w", "v", "eta"), K, L, P, terms)


def _hunter_saxton_2() -> MultiSymplecticForm:
    """Hunter-Saxton, second formulation; z = (u, beta, w, alpha, phi, gamma, P, r).

    S = -u gamma - u^2 alpha / 2 - alpha w + r^2.
    """
    K = _skew(8, {(0, 1): -0.5, (3, 4): -0.5})
    L = _skew(8, {(1, 2): 1.0, (1, 6): 1.0, (4, 5): 1.0, (6, 7): -2.0})
    P = _sym(8, {(0, 5): -1.0, (2, 3): -1.0, (7, 7): 2.0})
    terms = (
        PolynomialTerm(1, -1.0, (1, 0, 0, 1, 0, 0, 0, 0)),
        PolynomialTerm(4, -0.5, (2, 0, 0, 0, 0, 0, 0, 0)),
    )
    return MultiSymplecticForm(
        "hunter_saxton_2", ("u", "beta", "w", "alpha", "phi", "gamma", "P", "r"), K, L, P, terms
    )


def _improved_boussinesq() -> MultiSymplecticForm:
    """Improved Boussinesq u_tt - u_xx = -u_xxtt + (u^2)_xx, z = (u, v, n, w, p, q)."""
    K = _skew(6, {(0, 3): 1.0, (1, 5): -1.0})
    L = _skew(6, {(0, 4): -1.0, (1, 2): -1.0, (1, 3): -1.0})
    P = np.zeros((6, 6))
    P[0, 0], P[1, 1], P[2, 2] = 1.0, -1.0, -1.0
    P[4, 5] = P[5, 4] = 1.0
    terms = (PolynomialTerm(1, 1.0, (2, 0, 0, 0, 0, 0)),)
    return MultiSymplecticForm("improved_boussinesq", ("u", "v", "n", "w", "p", "q"), K, L, P, terms)


def _ostrovsky(alpha: float = 1.0, beta: float = 1.0, gamma: float = 1.0) -> MultiSymplecticForm:
    """Ostrovsky equation u_tx + (alpha u u_x)_x - beta u_xxxx = gamma u, z = (phi, u, v, w)."""
    K = _skew(4, {(0, 1): -0.5})
    L = _skew(4, {(0, 3): -1.0, (1, 2): -1.0})
    P = _sym(4, {(0, 0): -gamma, (1, 3): 1.0, (2, 2): 1.0 / beta})
    terms = (PolynomialTerm(2, -0.5 * alpha, (0, 2, 0, 0)),)
    return MultiSymplecticForm(
        "ostrovsky", ("phi", "u", "v", "w"), K, L, P, terms,
        params=(("alpha", alpha), ("beta", beta), ("gamma", gamma)),
    )


def _good_boussinesq() -> MultiSymplecticForm:
    """'Good' Boussinesq u_tt - u_xx = -u_xxxx + (u^2)_xx, z = (u, v, p, q)."""
    K = _skew(4, {(0, 1): -1.0})
    L = _skew(4, {(0, 2): -1.0, (1, 3): -1.0})
    P = np.diag([-1.0, 0.0, 1.0, 1.0])
    terms = (PolynomialTerm(1, -2.0, (2, 0, 0, 0)),)
    return MultiSymplecticForm("good_boussinesq", ("u", "v", "p", "q"), K, L, P, terms)


def _dirac(m: float = 1.0, lam: float = 1.0) -> MultiSymplecticForm:
    """Nonlinear Dirac system in real variables z = (p1, q1, p2, q2).

    Real/imaginary split of the coupled system for psi1, psi2 with mass m
    and cubic coupling lam; S = (m/2)(A - B) - (lam/2)(A - B)^2 where
    A = p1^2 + q1^2, B = p2^2 + q2^2.
    """
    K = _skew(4, {(0, 1): -1.0, (2, 3): -1.0})
    L = _skew(4, {(0, 3): -1.0, (1, 2): 1.0})
    P = np.diag([m, m, -m, -m])
    # grad of -(lam/2)(A-B)^2: rows 1..2 get 2*lam*(B-A)*{p1,q1}, rows 3..4 get 2*lam*(A-B)*{p2,q2}
    c = 2.0 * lam
    terms = (
        PolynomialTerm(1, -c, (3, 0, 0, 0)), PolynomialTerm(1, -c, (1, 2, 0, 0)),
        PolynomialTerm(1, c, (1, 0, 2, 0)), PolynomialTerm(1, c, (1, 0, 0, 2)),
        PolynomialTerm(2, -c, (2, 1, 0, 0)), PolynomialTerm(2, -c, (0, 3, 0, 0)),
        PolynomialTerm(2, c, (0, 1, 2, 0)), PolynomialTerm(2, c, (0, 1, 0, 2)),
        PolynomialTerm(3, c, (2, 0, 1, 0)), PolynomialTerm(3, c, (0, 2, 1, 0)),
        PolynomialTerm(3, -c, (0, 0, 3, 0)), PolynomialTerm(3, -c, (0, 0, 1, 2)),
        PolynomialTerm(4, c, (2, 0, 0, 1)), PolynomialTerm(4, c, (0, 2, 0, 1)),
        PolynomialTerm(4, -c, (0, 0, 2, 1)), PolynomialTerm(4, -c, (0, 0, 0, 3)),
    )
    return MultiSymplecticForm(
        "dirac", ("p1", "q1", "p2", "q2"), K, L, P, terms,
        params=(("m", m), ("lam", lam)),
    )


def _nls(a: float = 2.0) -> MultiSymplecticForm:
    """Nonlinear Schroedinger i phi_t + phi_xx + a |phi|^2 phi = 0, z = (p, q, v, w)."""
    K = _skew(4, {(0, 1): 1.0})
    L = _skew(4, {(0, 2): -1.0, (1, 3): -1.0})
    P = np.diag([0.0, 0.0, 1.0, 1.0])
    terms = (
        PolynomialTerm(1, a, (3, 0, 0, 0)), PolynomialTerm(1, a, (1, 2, 0, 0)),
        PolynomialTerm(2, a, (2, 1, 0, 0)), PolynomialTerm(2, a, (0, 3, 0, 0)),
    )
    return MultiSymplecticForm("nls", ("p", "q", "v", "w"), K, L, P, terms, params=(("a", a),))


_REGISTRY = {
    "wave": _wave,
    "linear_kg": _linear_kg,
    "mixed_kg": _mixed_kg,
    "advection": _advection,
    "kdv": _kdv,
    "camassa_holm": _camassa_holm,
    "bbm": _bbm,
    "hunter_saxton_1": _hunter_saxton_1,
    "hunter_saxton_2": _hunter_saxton_2,
    "improved_boussinesq": _improved_boussinesq,
    "ostrovsky": _ostrovsky,
    "good_boussinesq": _good_boussinesq,
    "dirac": _dirac,
    "nls": _nls,
}


def registry_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def registry_get(name: str, **params: float) -> MultiSymplecticForm:
    """Look up a registered form, optionally overriding its named constants."""
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise UnknownFormError(
            f"unknown form {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        ) from None
    constants = tuple(inspect.signature(builder).parameters) if params else ()
    unknown = sorted(set(params) - set(constants))
    if unknown:
        have = ", ".join(constants) or "none"
        raise ValueError(f"form {name!r} has no constant {', '.join(unknown)}; its constants: {have}")
    for key, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"form {name!r}: constant {key} = {value} is not finite")
    return builder(**params)


def nls_constant_amplitude_linearization(rho: float, a: float = 2.0) -> LinearizedForm:
    """Linear Schroedinger system obtained by freezing |phi|^2 = rho.

    Replaces the cubic terms by a*rho*(p, q), which is the neutrally stable
    constant-amplitude linearization used for the spectral analysis (the
    pointwise Jacobian about a non-steady state is not meaningful there).
    """
    base = _nls(a)
    Peff = np.diag([a * rho, a * rho, 1.0, 1.0])
    z_ref = np.array([math.sqrt(rho), 0.0, 0.0, 0.0])
    return LinearizedForm("nls", base.names, base.K, base.L, Peff, z_ref)
