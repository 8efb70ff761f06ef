"""Structural consistency analysis of the local diamond update.

The local update couples the d scalar equations of a form to the d unknown
top-vertex values.  An unknown enters equation i through the time
derivative (K entry) or through the four-point average on the right-hand
side (linear part P or a polynomial term).  The Dulmage-Mendelsohn
decomposition of the resulting bipartite graph classifies the system as
over-, well- or under-determined; a nonempty over/under block means the
update matrix is singular for every step size.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .msform import LinearizedForm, MultiSymplecticForm

__all__ = [
    "BipartiteSystem",
    "DMBlock",
    "DMReport",
    "SingularityReport",
    "build_equation_unknown_graph",
    "dm_decompose",
    "classify_consistency",
    "check_singularity_simple",
    "check_singularity_rk",
]


@dataclass(frozen=True)
class BipartiteSystem:
    """Equation-unknown bipartite graph of one diamond update.

    ``edges`` holds (equation, unknown) index pairs; ``provenance`` maps each
    edge to "K" (time-derivative induced) or "S" (right-hand-side induced).
    K wins when both apply.
    """

    n: int
    names: tuple[str, ...]
    edges: frozenset[tuple[int, int]]
    provenance: tuple[tuple[tuple[int, int], str], ...]

    def provenance_of(self, edge: tuple[int, int]) -> str:
        return dict(self.provenance)[edge]

    def neighbors(self, eq: int) -> tuple[int, ...]:
        return tuple(sorted(j for i, j in self.edges if i == eq))


@dataclass(frozen=True)
class DMBlock:
    kind: str  # "overdetermined" | "well-determined" | "underdetermined"
    equations: tuple[int, ...]
    unknowns: tuple[int, ...]


@dataclass(frozen=True)
class DMReport:
    """Dulmage-Mendelsohn decomposition plus the consistency verdict.

    ``order`` is the (equation, unknown) elimination order over the
    well-determined part, topologically sorted so that every equation only
    consumes already-solved targets; it doubles as the matching restricted
    to that part.  Consistent iff the over/under blocks are empty.
    """

    names: tuple[str, ...]
    matching: tuple[tuple[int, int], ...]
    blocks: tuple[DMBlock, ...]
    order: tuple[tuple[int, int], ...]
    consistent: bool

    @property
    def over(self) -> tuple[DMBlock, ...]:
        return tuple(b for b in self.blocks if b.kind == "overdetermined")

    @property
    def under(self) -> tuple[DMBlock, ...]:
        return tuple(b for b in self.blocks if b.kind == "underdetermined")

    @property
    def well(self) -> tuple[DMBlock, ...]:
        return tuple(b for b in self.blocks if b.kind == "well-determined")


def _structural_entries(form) -> tuple[np.ndarray, np.ndarray]:
    """(K-pattern, S-pattern) boolean d x d masks of unknown appearances."""
    if isinstance(form, LinearizedForm):
        kpat = form.K != 0.0
        spat = form.Peff != 0.0
        return kpat, spat
    kpat = form.K != 0.0
    spat = form.P != 0.0
    spat = spat.copy()
    for t in form.terms:
        for j, e in enumerate(t.exponents):
            if e >= 1:
                spat[t.row - 1, j] = True
    return kpat, spat


def build_equation_unknown_graph(form: MultiSymplecticForm | LinearizedForm) -> BipartiteSystem:
    """Edge (i, j) iff unknown z_j appears in equation i (K, P or a term)."""
    kpat, spat = _structural_entries(form)
    edges = set()
    prov = {}
    d = kpat.shape[0]
    for i in range(d):
        for j in range(d):
            if kpat[i, j]:
                edges.add((i, j))
                prov[(i, j)] = "K"
            elif spat[i, j]:
                edges.add((i, j))
                prov[(i, j)] = "S"
    return BipartiteSystem(
        n=d,
        names=tuple(form.names),
        edges=frozenset(edges),
        provenance=tuple(sorted(prov.items())),
    )


def _preferred_matching(bip: BipartiteSystem) -> dict[int, int]:
    """Maximum matching that uses as many K-induced edges as possible.

    The 1/dt pivot dominates the update as dx -> 0, so when an equation can
    be solved either through its time derivative or through the averaged
    right-hand side, the time derivative is the meaningful target.  Scoring
    K edges slightly above S edges in an assignment problem yields a
    maximum-cardinality matching maximizing the K count.
    """
    n = bip.n
    big = 4 * n
    score = np.zeros((n, n))
    for (i, j), tag in bip.provenance:
        score[i, j] = big + (1 if tag == "K" else 0)
    rows, cols = linear_sum_assignment(score, maximize=True)
    return {int(i): int(j) for i, j in zip(rows, cols) if score[i, j] > 0}


def dm_decompose(bip: BipartiteSystem) -> DMReport:
    """Standard DM construction from a maximum matching.

    Unknowns reachable by alternating paths from unmatched unknowns form the
    underdetermined block, equations reachable from unmatched equations the
    overdetermined one; the remainder splits into strongly connected fine
    blocks carrying a partial order (solve upstream first).  The block
    partition does not depend on the matching chosen.
    """
    matching = _preferred_matching(bip)
    match_of_un = {un: eq for eq, un in matching.items()}
    adj_eq = {i: set(bip.neighbors(i)) for i in range(bip.n)}
    adj_un: dict[int, set[int]] = {j: set() for j in range(bip.n)}
    for i, j in bip.edges:
        adj_un[j].add(i)

    # overdetermined: alternate free-edge from equations, matched edge back
    over_eqs, over_uns = set(), set()
    stack = [i for i in range(bip.n) if i not in matching]
    while stack:
        eq = stack.pop()
        if eq in over_eqs:
            continue
        over_eqs.add(eq)
        for un in adj_eq[eq]:
            if un not in over_uns:
                over_uns.add(un)
                if un in match_of_un:
                    stack.append(match_of_un[un])

    # underdetermined: start from unmatched unknowns
    under_eqs, under_uns = set(), set()
    stack = [j for j in range(bip.n) if j not in match_of_un]
    while stack:
        un = stack.pop()
        if un in under_uns:
            continue
        under_uns.add(un)
        for eq in adj_un[un]:
            if eq not in under_eqs:
                under_eqs.add(eq)
                if eq in matching:
                    stack.append(matching[eq])

    core_eqs = [i for i in range(bip.n) if i not in over_eqs and i not in under_eqs]
    core_uns = [j for j in range(bip.n) if j not in over_uns and j not in under_uns]

    # fine blocks: SCCs of the directed graph "equation i feeds equation j"
    # where i -> j if the unknown matched to i also appears in j
    pos = {eq: k for k, eq in enumerate(core_eqs)}
    feeds = [
        (pos[eq], pos[other])
        for eq in core_eqs
        for other in adj_un[matching[eq]]
        if other != eq and other in pos
    ]
    well_blocks: list[DMBlock] = []
    order: list[tuple[int, int]] = []
    for eqs in _topological_components(len(core_eqs), feeds):
        eqs = tuple(core_eqs[k] for k in eqs)
        uns = tuple(sorted(matching[e] for e in eqs))
        well_blocks.append(DMBlock("well-determined", eqs, uns))
        order.extend((e, matching[e]) for e in eqs)

    blocks: list[DMBlock] = []
    if over_eqs or over_uns:
        blocks.append(DMBlock("overdetermined", tuple(sorted(over_eqs)), tuple(sorted(over_uns))))
    blocks.extend(well_blocks)
    if under_eqs or under_uns:
        blocks.append(DMBlock("underdetermined", tuple(sorted(under_eqs)), tuple(sorted(under_uns))))

    consistent = not over_eqs and not over_uns and not under_eqs and not under_uns
    assert set(core_uns) == {u for _, u in order}
    return DMReport(
        names=bip.names,
        matching=tuple(sorted(matching.items())),
        blocks=tuple(blocks),
        order=tuple(order),
        consistent=consistent,
    )


def _topological_components(n: int, edges: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Strongly connected components of a digraph on 0..n-1, upstream first.

    ``edges`` must come grouped by source in increasing order, so that they
    are the rows of a CSR matrix.  Kahn's algorithm with a FIFO queue seeded
    in scipy's label order; each component is a sorted tuple of its nodes.
    """
    src, dst = np.array(edges, dtype=int).reshape(-1, 2).T
    adj = csr_matrix((np.ones(len(src)), dst, np.searchsorted(src, np.arange(n + 1))), shape=(n, n))
    ncomp, label = connected_components(adj, directed=True, connection="strong")
    succ: list[list[int]] = [[] for _ in range(ncomp)]
    for ca, cb in zip(label[src].tolist(), label[dst].tolist()):
        if ca != cb and cb not in succ[ca]:
            succ[ca].append(cb)
    indegree = Counter(c for out in succ for c in out)
    order = [c for c in range(ncomp) if indegree[c] == 0]
    for c in order:  # the queue grows while it is read
        for nxt in succ[c]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                order.append(nxt)
    return [tuple(int(v) for v in np.flatnonzero(label == c)) for c in order]


def classify_consistency(form) -> DMReport:
    return dm_decompose(build_equation_unknown_graph(form))


def bipartite_dot(bip: BipartiteSystem, dm: DMReport | None = None) -> str:
    """Graphviz rendering of the equation-unknown graph, blocks color-coded."""
    colors = {"overdetermined": "salmon", "well-determined": "lightblue", "underdetermined": "khaki"}
    eq_color: dict[int, str] = {}
    un_color: dict[int, str] = {}
    if dm is not None:
        for b in dm.blocks:
            for e in b.equations:
                eq_color[e] = colors[b.kind]
            for u in b.unknowns:
                un_color[u] = colors[b.kind]
    lines = ["graph bipartite {", "  rankdir=LR;"]
    for i in range(bip.n):
        c = eq_color.get(i, "white")
        lines.append(f'  eq{i} [label="eq {i + 1}" shape=box style=filled fillcolor="{c}"];')
    for j in range(bip.n):
        c = un_color.get(j, "white")
        lines.append(f'  un{j} [label="{bip.names[j]}^t" style=filled fillcolor="{c}"];')
    for (i, j), tag in bip.provenance:
        style = "solid" if tag == "K" else "dashed"
        lines.append(f"  eq{i} -- un{j} [style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# numerical singularity confirmation: _pivot_inverse is the one test of every
# update pivot (K/dt - Peff/4, the stage matrix Q, the chord matrix, box L)
# ---------------------------------------------------------------------------


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
class SingularityReport:
    singular: bool
    witness_residual: float | None = None


def check_singularity_simple(lin: LinearizedForm, dt: float) -> SingularityReport:
    """Pivot test of the local update matrix K/dt - Peff/4."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return SingularityReport(_pivot_inverse(lin.K / dt - lin.Peff / 4.0) is None)


def rk_stage_matrix(lin: LinearizedForm, F: np.ndarray, dt: float, dx: float) -> np.ndarray:
    """Stage system matrix Q = I_{r^2} (x) Peff - I_r (x) F (x) Ktil - F (x) I_r (x) Ltil."""
    r = F.shape[0]
    d = lin.d
    Ktil = lin.K / dt - lin.L / dx
    Ltil = lin.K / dt + lin.L / dx
    Ir = np.eye(r)
    Q = (
        np.kron(np.eye(r * r), lin.Peff)
        - np.kron(Ir, np.kron(F, Ktil))
        - np.kron(F, np.kron(Ir, Ltil))
    )
    return Q


def check_singularity_rk(lin: LinearizedForm, tableau, dt: float, dx: float) -> SingularityReport:
    """Pivot test of the stage system; builds a kernel witness when the
    simple scheme is structurally inconsistent.

    The witness is z = x (x) x (x) v with (lam, x) an eigenpair of F and v a
    null vector of (Peff - (2 lam / dt) K); for structurally inconsistent
    forms that pencil is singular for every multiplier.
    """
    if dt <= 0 or dx <= 0:
        raise ValueError("dt and dx must be positive")
    F = tableau.F
    Q = rk_stage_matrix(lin, F, dt, dx)
    singular = _pivot_inverse(Q) is None

    witness_residual = None
    if not classify_consistency(lin).consistent:
        lam_all, vec_all = np.linalg.eig(F)
        idx = int(np.argmax(np.abs(lam_all)))
        lam, x = lam_all[idx], vec_all[:, idx]
        pencil = lin.Peff.astype(complex) - (2.0 * lam / dt) * lin.K
        _, _, vh = np.linalg.svd(pencil)
        v = vh[-1].conj()
        z = np.kron(x, np.kron(x, v))
        witness_residual = float(np.linalg.norm(Q @ z) / np.linalg.norm(z))
    return SingularityReport(singular, witness_residual)
