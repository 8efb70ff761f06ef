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
import weakref
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


# what is made once per form: its compiled terms, its generated grad S kernel
# and, in the integrators, Step 3's blocks and the diamond kernel, each under
# its own key; a form does not change, and its entries go when it is freed
_MADE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _made_once(form: MultiSymplecticForm, key, make):
    """make(form), called at the first lookup of this form and key, and kept.
    What make returns must not reference the form, or the form is never
    freed: an outcome to raise again is kept as data, not as the exception."""
    per_form = _MADE.get(form)
    if per_form is None:
        per_form = _MADE[form] = {}
    if key not in per_form:
        per_form[key] = make(form)
    return per_form[key]


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


def _require_constants(name: str, keys, constants) -> None:
    """Raise ValueError naming the form, the keys it lacks and the constants it has."""
    unknown = sorted(set(keys) - set(constants))
    if unknown:
        have = ", ".join(constants) or "none"
        raise ValueError(f"form {name!r} has no constant {', '.join(unknown)}; its constants: {have}")


def _require_positive(**named: float) -> None:
    """The one rule for a step size or a length (dt, dx, T, a domain length):
    raise ValueError naming the first value that is not finite and > 0."""
    for name, value in named.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")


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
        """The named constant ``key``; ValueError when the form has none."""
        params = dict(self.params)
        _require_constants(self.name, [key], params)
        return params[key]


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
    # a KeyError, but its message prints unquoted
    __str__ = Exception.__str__


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


def _term_arrays(form: MultiSymplecticForm):
    """Stacked exponent/coefficient arrays for vectorized term evaluation,
    read through _compiled_terms.

    Monomials are evaluated by gathering from a table of variable powers, so
    the hot path uses only multiplies (no float pow).
    """
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
    return E, C, R, Ederiv, int(E.max()), cols_g, cols_j


def _compiled_terms(form: MultiSymplecticForm):
    """The form's term arrays (_term_arrays), made once."""
    return _made_once(form, "terms", _term_arrays)


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


class _KernelSource:
    """Python source of an elementwise kernel, built one statement at a time.

    Every expression is a fixed chain of elementwise operations on arrays of
    one common shape, so a point's bits do not depend on how many points
    share the call.  ``let`` binds one temporary per distinct subexpression,
    in order of first use; the constants are bound by name as 0-d arrays,
    which multiply arrays faster than Python floats do.  A sum is formed
    left to right, in the order its summands are given; a summand is a sign
    and an expression, and a unit coefficient multiplies by nothing.
    """

    def __init__(self):
        self.lines: list[str] = []
        self.namespace: dict = {"np": np}
        self.temps: dict[tuple, str] = {}

    def line(self, text: str) -> None:
        self.lines.append(f"    {text}")

    def rows(self, array: str, names: list[str]) -> None:
        """Bind names[j] = array[j]."""
        for j, name in enumerate(names):
            self.line(f"{name} = {array}[{j}]")

    def let(self, key: tuple, expr: str) -> str:
        if key not in self.temps:
            self.temps[key] = f"t{len(self.temps)}"
            self.line(f"{self.temps[key]} = {expr}")
        return self.temps[key]

    def const(self, value: float) -> str:
        key = f"k{len(self.namespace) - 1}"
        self.namespace[key] = np.array(float(value))
        return key

    def scaled(self, value: float, expr: str | None) -> tuple[str, str]:
        if value in (1.0, -1.0):
            return ("-" if value < 0 else "+"), expr or "1.0"
        key = self.const(value)
        return "+", f"{key} * {expr}" if expr else key

    @staticmethod
    def summed(summands: list[tuple[str, str]]) -> str:
        (sign, first), more = summands[0], summands[1:]
        return ("-" if sign == "-" else "") + first + "".join(f" {s} {x}" for s, x in more)

    @staticmethod
    def linear(row: np.ndarray, names: list[str]) -> list[tuple[float, str]]:
        """The terms (row[j], names[j]) of sum_j row[j] names[j], over the
        nonzero row[j] in column order."""
        return [(float(row[j]), names[j]) for j in np.flatnonzero(row)]

    def sum_of(self, terms: list[tuple[float, str]]) -> str:
        """The expression of the sum of value * name over ``terms``."""
        return self.summed([self.scaled(value, name) for value, name in terms])

    def store(self, target: str, terms: list[tuple[float, str]]) -> None:
        """target[...] = the sum of value * name over ``terms``, its last
        operation writing into target; an empty sum stores zero."""
        if not terms:
            self.line(f"{target}[...] = 0.0")
            return
        *head, (value, name) = terms
        if head:
            sign, last = self.scaled(value, name)
            self.line(f"np.{'subtract' if sign == '-' else 'add'}({self.sum_of(head)}, {last}, {target})")
        elif value in (1.0, -1.0):
            self.line(f"np.{'positive' if value > 0 else 'negative'}({name}, {target})")
        else:
            self.line(f"np.multiply({self.const(value)}, {name}, {target})")

    def grad_S(self, form: MultiSymplecticForm, w: list[str]) -> list[str | None]:
        """The expression of each component of grad S at the point whose
        components are named ``w``, or None where it is identically zero.

        Component i is the sum of the nonzero P[i, j] w[j] (column order)
        and of its terms, factored: the factor common to all the row's terms
        is taken out, and the rest is summed by coefficient (in order of
        first appearance), each coefficient times its own common factor
        times the sum of the remaining monomials.  So the NLS rows are
        p (a (p^2 + q^2)) and q (a (p^2 + q^2)), and every power (by
        repeated multiplication, as in eval_grad_S), monomial, sum and
        factored row part is formed once.
        """

        def power(j: int, e: int) -> str:
            return w[j] if e == 1 else self.let(("pow", j, e), f"{power(j, e - 1)} * {w[j]}")

        def monomial(exps: tuple) -> str | None:
            factors = [power(j, e) for j, e in enumerate(exps) if e]
            if len(factors) <= 1:
                return factors[0] if factors else None
            return self.let(("mono", exps), " * ".join(factors))

        def times(factor: str | None, expr: str) -> str:
            return expr if factor is None else f"{factor} * {expr}"

        def split(exps_list: list[tuple]) -> tuple[tuple, tuple]:
            common = tuple(min(col) for col in zip(*exps_list))
            return common, tuple(tuple(e - c for e, c in zip(m, common)) for m in exps_list)

        def by_coefficient(members: tuple) -> list[tuple[str, str]]:
            groups: dict[float, list[tuple]] = {}
            for coeff, exps in members:
                groups.setdefault(coeff, []).append(exps)
            summands = []
            for coeff, exps_list in groups.items():
                if len(exps_list) == 1:
                    summands.append(self.scaled(coeff, monomial(exps_list[0])))
                    continue
                common, rest = split(exps_list)
                total = self.let(("sum", rest), " + ".join(monomial(m) or "1.0" for m in rest))
                factor = monomial(common)
                part = total if factor is None else self.let(("prod", common, rest), times(factor, total))
                summands.append(self.scaled(coeff, part))
            return summands

        exprs: list[str | None] = []
        for i in range(form.d):
            summands = [self.scaled(value, name) for value, name in self.linear(form.P[i], w)]
            members = [(t.coeff, tuple(t.exponents)) for t in form.terms if t.row == i + 1]
            common, rest = split([exps for _, exps in members]) if members else ((), ())
            if len(members) > 1 and any(common):
                inner = tuple(zip((c for c, _ in members), rest))
                key = ("inner", inner)
                part = self.temps.get(key) or self.let(key, self.summed(by_coefficient(inner)))
                summands.append(("+", self.let(("prod", common, inner), times(monomial(common), part))))
            elif members:
                summands += by_coefficient(tuple(members))
            exprs.append(self.summed(summands) if summands else None)
        return exprs

    def compile(self, name: str, *args: str):
        exec(f"def {name}({', '.join(args)}):\n" + "\n".join(self.lines), self.namespace)
        return self.namespace[name]


def _generate_grad_kernel(form: MultiSymplecticForm):
    """grad S as Python source generated from P and the term list
    (_KernelSource.grad_S).

    The returned function takes its points components first: ``w[j]`` holds
    the j-th component of every point (arrays of one common shape, or
    scalars), and the result stacks the d components of grad S on a new
    first axis.  Each component is a fixed chain of elementwise operations,
    so a point's bits do not depend on how many points share the call; they
    differ from eval_grad_S's by rounding.
    """
    src = _KernelSource()
    w = [f"w{j}" for j in range(form.d)]
    src.rows("w", w)
    grad = src.grad_S(form, w)
    for i, expr in enumerate(grad):
        src.line(f"g{i} = {expr or 'np.zeros_like(w0)'}")
    src.line(f"return np.array([{', '.join(f'g{i}' for i in range(form.d))}])")
    return src.compile("grad_S", "w")


def _grad_kernel(form: MultiSymplecticForm):
    """The form's generated grad S kernel, made once; it takes and returns
    points components first, and eval_grad_S checks it."""
    return _made_once(form, "grad S", _generate_grad_kernel)


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
         = z.Pz / 2 + sum_t c_t z_{row_t} z^{e_t} / (|e_t| + 1).
    This is S when grad S is exact, which validate_form decides from the
    coefficients (P symmetric, and one coefficient per monomial of S from
    every row it enters, to 1e-12 relative); for any other right-hand side
    there is no S to evaluate.
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


def _sums_agree(a: list[float], b: list[float]) -> bool:
    """Whether sum(a) and sum(b) differ by at most 1e-12 times the sum of
    every |x| in a and b.  The values are divided by the largest |x| first,
    so no sum overflows; an empty list sums to 0."""
    scale = max(map(abs, a + b), default=0.0) or 1.0
    a, b = [x / scale for x in a], [x / scale for x in b]
    return abs(sum(a) - sum(b)) <= 1e-12 * sum(map(abs, a + b))


def _exactness_issues(form: MultiSymplecticForm) -> list[str]:
    """Where grad S = P z + terms is not the gradient of a polynomial S.

    It is one exactly when every monomial m of S gets one coefficient from
    every row j with m_j >= 1: a term (row j, coeff c, exponents e) gives
    S's monomial m = e + e_j the coefficient c / m_j, and a row without such
    a term gives 0.  P[i, j] is the term (row i, P[i, j], e_j), so for P
    this says P is symmetric.  Two coefficients agree by _sums_agree, so
    decimal rounding and cancelling terms pass.
    """
    linear = [(i + 1, form.P[i, j], tuple(int(k == j) for k in range(form.d))) for i, j in zip(*np.nonzero(form.P))]
    # S's monomial -> row index -> the coefficients that row gives it
    parts: dict[tuple[int, ...], dict[int, list[float]]] = {}
    for row, coeff, exponents in linear + [(t.row, t.coeff, t.exponents) for t in form.terms]:
        m = list(exponents)
        m[row - 1] += 1
        parts.setdefault(tuple(m), {}).setdefault(row - 1, []).append(coeff / m[row - 1])
    issues = []
    for m, by_row in parts.items():
        first, *others = [j for j, e in enumerate(m) if e]
        for j in others:
            a, b = by_row.get(first, []), by_row.get(j, [])
            if not _sums_agree(a, b):
                mono = "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(form.names, m) if e)
                issues.append(
                    f"grad S is not exact: S's monomial {mono} has coefficient {sum(a, 0.0)} "
                    f"by row {first + 1} but {sum(b, 0.0)} by row {j + 1}"
                )
                break
    return issues


def validate_form(form: MultiSymplecticForm) -> ValidationReport:
    """Check the structural invariants of a form.

    Variable names must be distinct, every entry of K, L, P and every term
    coefficient finite, and so every Jacobian coefficient c * e_j of a term.
    K and L must be exactly skew-symmetric, and the right-hand side an exact
    gradient, decided from the coefficients (_exactness_issues).
    """
    issues: list[str] = []
    d = form.d
    if d < 2:
        issues.append(f"dimension d={d} < 2")
    for name in dict.fromkeys(n for i, n in enumerate(form.names) if n in form.names[:i]):
        issues.append(f"variable name {name!r} is repeated")
    for label, M in (("K", form.K), ("L", form.L), ("P", form.P)):
        if M.shape != (d, d):
            issues.append(f"{label} has shape {M.shape}, expected {(d, d)}")
        elif not np.isfinite(M).all():
            i, j = np.argwhere(~np.isfinite(M))[0]
            issues.append(f"{label}[{i}][{j}] = {M[i, j]} is not finite")
        elif label != "P" and not np.array_equal(M, -M.T):
            i, j = np.argwhere(M != -M.T)[0]
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
        elif math.isfinite(t.coeff) and not math.isfinite(t.coeff * max(t.exponents)):
            issues.append(f"terms[{k}]: Jacobian coefficient {t.coeff} * {max(t.exponents)} is not finite")
    if not issues:
        issues = _exactness_issues(form)
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


def _json_number(path, where: str, value) -> float:
    """A numeric entry of a JSON form; strings, booleans, null and integers
    beyond the float range are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{path}: {where} = {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{path}: {where} is an integer beyond the float range") from None


def _json_matrix(path, key: str, value, d: int) -> list:
    """K, L or P of a JSON form: a list of d rows, each a list of d numbers."""
    rows = _json_list(path, key, value)
    if len(rows) != d:
        raise ValueError(f"{path}: {key} has {len(rows)} rows, expected d={d}")
    for i, row in enumerate(rows):
        if len(_json_list(path, f"{key}[{i}]", row)) != d:
            raise ValueError(f"{path}: {key}[{i}] has {len(row)} entries, expected d={d}")
        # the JSON decoder gives exact types, so a row of floats passes
        # without a call per entry
        if not {type(entry) for entry in row} <= {float}:
            for j, entry in enumerate(row):
                _json_number(path, f"{key}[{i}][{j}]", entry)
    return rows


def _json_term(path, k: int, term) -> PolynomialTerm:
    """terms[k] of a JSON form: an object with "row", "coeff" and "exponents"."""
    if not isinstance(term, dict):
        raise ValueError(f"{path}: terms[{k}] = {term!r} is not an object")
    for key in ("row", "coeff", "exponents"):
        if key not in term:
            raise ValueError(f"{path}: terms[{k}] has no {key!r}")
    coeff = _json_number(path, f"terms[{k}].coeff", term["coeff"])
    exponents = _json_list(path, f"terms[{k}].exponents", term["exponents"])
    return PolynomialTerm(
        _json_integer(path, f"terms[{k}].row", term["row"]),
        coeff,
        tuple(_json_integer(path, f"terms[{k}].exponents[{i}]", e) for i, e in enumerate(exponents)),
    )


def load_form_json(path) -> MultiSymplecticForm:
    """Load a form from the documented JSON schema and validate it.

    ``d``, each term's ``row`` and its ``exponents`` must be integers (an
    integral float such as 2.0 is read as one); anything else is refused
    rather than truncated.  ``names``, ``terms`` and each ``exponents`` must
    be lists, and each term an object with a ``row``, a numeric ``coeff``
    and ``exponents``.  ``K``, ``L`` and ``P`` must be d lists of d numbers;
    a string, boolean or null entry is named rather than converted.
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
        K=_json_matrix(path, "K", data["K"], d),
        L=_json_matrix(path, "L", data["L"], d),
        P=_json_matrix(path, "P", data["P"], d),
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
    _require_constants(name, params, tuple(inspect.signature(builder).parameters) if params else ())
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
