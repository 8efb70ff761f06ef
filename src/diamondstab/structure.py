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

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .msform import LinearizedForm, MultiSymplecticForm

__all__ = [
    "BipartiteSystem",
    "DMBlock",
    "DMReport",
    "build_equation_unknown_graph",
    "dm_decompose",
    "classify_consistency",
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
        return form.K != 0.0, form.Peff != 0.0
    spat = form.P != 0.0
    for t in form.terms:
        for j, e in enumerate(t.exponents):
            if e >= 1:
                spat[t.row - 1, j] = True
    return form.K != 0.0, spat


def build_equation_unknown_graph(form: MultiSymplecticForm | LinearizedForm) -> BipartiteSystem:
    """Edge (i, j) iff unknown z_j appears in equation i (K, P or a term)."""
    kpat, spat = _structural_entries(form)
    prov = {(int(i), int(j)): "K" if kpat[i, j] else "S" for i, j in np.argwhere(kpat | spat)}
    return BipartiteSystem(
        n=kpat.shape[0],
        names=tuple(form.names),
        edges=frozenset(prov),
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
    score = [[0] * n for _ in range(n)]
    for (i, j), tag in bip.provenance:
        score[i][j] = big + (1 if tag == "K" else 0)
    return {i: j for i, j in enumerate(_max_score_assignment(score)) if score[i][j] > 0}


def _max_score_assignment(score: list[list[int]]) -> list[int]:
    """Column of each row in a maximum-score assignment of the square
    integer matrix ``score``, as scipy's ``linear_sum_assignment(score,
    maximize=True)`` chooses it.

    A port of the shortest augmenting path algorithm of scipy's
    rectangular_lsap.cpp (D. F. Crouse, IEEE TAES 52, 2016) on the cost
    -score.  Where several assignments are optimal, the order decides which
    one comes out, so the port keeps scipy's: the rows are added in turn,
    the free columns are scanned from the last down, and a tie in path cost
    goes to an unassigned column.  Integer costs keep the arithmetic exact.
    """
    n = len(score)
    u = [0] * n
    v = [0] * n
    col4row = [-1] * n
    row4col = [-1] * n
    path = [-1] * n
    for cur in range(n):
        # the shortest augmenting path from row cur, Dijkstra on reduced costs
        short = [math.inf] * n
        rows_seen = [cur]
        cols_seen = []
        remaining = list(range(n - 1, -1, -1))
        i, min_val, sink = cur, 0, -1
        while sink < 0:
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val - score[i][j] - u[i] - v[j]
                if r < short[j]:
                    path[j] = i
                    short[j] = r
                if short[j] < lowest or (short[j] == lowest and row4col[j] < 0):
                    lowest = short[j]
                    index = it
            min_val = lowest
            j = remaining[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
                rows_seen.append(i)
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - short[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - short[j]
        j = sink
        while True:  # augment along the path back to row cur
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


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
    adj_eq: dict[int, set[int]] = {i: set() for i in range(bip.n)}
    adj_un: dict[int, set[int]] = {j: set() for j in range(bip.n)}
    for i, j in bip.edges:
        adj_eq[i].add(j)
        adj_un[j].add(i)

    over_eqs, over_uns = _alternating_reach(
        (i for i in range(bip.n) if i not in matching), adj_eq, match_of_un
    )
    under_uns, under_eqs = _alternating_reach(
        (j for j in range(bip.n) if j not in match_of_un), adj_un, matching
    )

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


def _alternating_reach(starts, adj, partner) -> tuple[set[int], set[int]]:
    """Vertices reached by alternating paths from the unmatched ``starts``.

    A path leaves a near vertex by any edge (``adj``) and returns from the
    far vertex by its matched edge (``partner``).  From unmatched equations
    this is the overdetermined block (near = equations); from unmatched
    unknowns, with the roles swapped, the underdetermined one.
    """
    near: set[int] = set()
    far: set[int] = set()
    stack = list(starts)
    while stack:
        v = stack.pop()
        if v in near:
            continue
        near.add(v)
        for w in adj[v]:
            if w not in far:
                far.add(w)
                if w in partner:
                    stack.append(partner[w])
    return near, far


def _topological_components(n: int, edges: list[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Strongly connected components of a digraph on 0..n-1, upstream first.

    The components are labelled as scipy's ``connected_components(...,
    connection="strong")`` labels them (``_strong_components``), each node's
    successors taken in the order of ``edges``.  Kahn's algorithm with a
    FIFO queue seeded in label order; each component is a sorted tuple of
    its nodes.
    """
    succ_of: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        succ_of[a].append(b)
    ncomp, label = _strong_components(succ_of)
    succ: list[list[int]] = [[] for _ in range(ncomp)]
    for a, b in edges:
        ca, cb = label[a], label[b]
        if ca != cb and cb not in succ[ca]:
            succ[ca].append(cb)
    indegree = Counter(c for out in succ for c in out)
    order = [c for c in range(ncomp) if indegree[c] == 0]
    for c in order:  # the queue grows while it is read
        for nxt in succ[c]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                order.append(nxt)
    members: list[list[int]] = [[] for _ in range(ncomp)]
    for v, c in enumerate(label):
        members[c].append(v)
    return [tuple(members[c]) for c in order]


def _strong_components(succ: list[list[int]]) -> tuple[int, list[int]]:
    """(count, label of each node) of the strongly connected components of
    the digraph with successor lists ``succ``, labelled as scipy's
    ``connected_components(..., connection="strong")`` labels them.

    Tarjan's algorithm, with an explicit stack of the nodes on the
    depth-first path and the successors each has left to try.  Roots are
    tried in node order and each node's successors last first, which is the
    order in which scipy's depth-first stack pops them, and components are
    numbered in the order they complete.
    """
    n = len(succ)
    index, low, label = [-1] * n, [0] * n, [-1] * n
    visited, count = 0, 0
    unfinished: list[int] = []  # visited nodes not yet in a component
    for root in range(n):
        if index[root] >= 0:
            continue
        path = [[root, len(succ[root])]]
        index[root] = low[root] = visited
        visited += 1
        unfinished.append(root)
        while path:
            top = path[-1]
            v = top[0]
            if top[1]:
                top[1] -= 1
                w = succ[v][top[1]]
                if index[w] < 0:
                    path.append([w, len(succ[w])])
                    index[w] = low[w] = visited
                    visited += 1
                    unfinished.append(w)
                elif label[w] < 0:
                    low[v] = min(low[v], index[w])
                continue
            path.pop()
            if path:
                u = path[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                while label[v] < 0:
                    label[unfinished.pop()] = count
                count += 1
    return count, label


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
