"""Error-propagation graph analysis for the simple diamond scheme.

Under the mesh coupling dt ~ dx**s, one solved diamond equation amplifies
the error of each source variable by a power of dx whose exponent is affine
in s.  Collecting these exponents as edge weights on the variable graph,
the scheme is unstable exactly when some directed cycle has negative total
weight for the chosen s; the verdict below reports the feasible s range or
a witness cycle that is negative for every s > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .msform import LinearizedForm
from .structure import DMReport

__all__ = [
    "AffineIndex",
    "PropEdge",
    "PropagationGraph",
    "Cycle",
    "Step2Verdict",
    "build_propagation_graph",
    "enumerate_cycles",
    "stability_threshold",
]


@dataclass(frozen=True)
class AffineIndex:
    """Amplification exponent a*s + b."""

    a: int
    b: int

    def value(self, s: float) -> float:
        return self.a * s + self.b

    def __add__(self, other: "AffineIndex") -> "AffineIndex":
        return AffineIndex(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "AffineIndex") -> "AffineIndex":
        return AffineIndex(self.a - other.a, self.b - other.b)

    def label(self) -> str:
        if self.a == 0:
            return str(self.b)
        sa = {1: "s", -1: "-s"}.get(self.a, f"{self.a}s")
        if self.b == 0:
            return sa
        return f"{sa}{self.b:+d}"


# the power of dx each channel of a diamond equation scales like under
# dt ~ dx**s: K z_t like dx**-s, L z_x like dx**-1 and the averaged
# right-hand side P like 1.  A source is amplified by its channel's
# exponent less the pivot's.
_EXPONENT = {"K": AffineIndex(-1, 0), "L": AffineIndex(0, -1), "P": AffineIndex(0, 0)}


@dataclass(frozen=True)
class PropEdge:
    """The error of unknown ``src`` amplified by dx**index in the update of
    unknown ``dst``; both are indices 0..d-1 into the form's variables."""

    src: int
    dst: int
    index: AffineIndex
    equation: int  # row that produced the edge


@dataclass(frozen=True)
class PropagationGraph:
    """Weighted multigraph on the unknowns of one diamond update.

    A node is a variable's index, so ``nodes`` is ``tuple(range(d))``;
    ``names`` are the variables' labels, read only where output is written
    (they need not be distinct).
    """

    nodes: tuple[int, ...]
    edges: tuple[PropEdge, ...]
    names: tuple[str, ...]


@dataclass(frozen=True)
class Cycle:
    """A simple directed cycle: ``nodes`` are variable indices, starting at
    the least one, and ``edges`` the chosen edge out of each in turn."""

    nodes: tuple[int, ...]
    edges: tuple[PropEdge, ...]
    weight: AffineIndex


@dataclass(frozen=True)
class Step2Verdict:
    """Either a feasible interval for s or unconditional instability.

    ``s_hi`` is None for an unbounded interval.  ``binding`` lists the
    cycles whose weight vanishes at s_lo (deciding the boundary is left to
    the spectral stage).  ``witness`` carries cycles negative for all s > 0
    when the feasible set is empty.
    """

    unconditionally_unstable: bool
    s_lo: Fraction | None
    s_hi: Fraction | None
    binding: tuple[Cycle, ...]
    witness: tuple[Cycle, ...]

    @property
    def feasible(self) -> bool:
        return not self.unconditionally_unstable


class InternalPivotError(RuntimeError):
    pass


def build_propagation_graph(lin: LinearizedForm, dm: DMReport) -> PropagationGraph:
    """Emit the weighted edges of all solved update formulas.

    For equation row i solved for target j (in DM order), the pivot is the
    time derivative when K[i, j] != 0 and the averaged right-hand side
    otherwise.  Every variable with an entry in row i sends an edge into j
    through each channel (K, L, P, in that order) where it has one,
    weighted by _EXPONENT[channel] - _EXPONENT[pivot]; the target's own
    pivot channel, the old value at the diamond bottom or the three known
    corners of the average, comes last among its edges.
    """
    if not dm.consistent:
        raise ValueError("propagation graph requires a structurally consistent form")
    channels = {"K": lin.K, "L": lin.L, "P": lin.Peff}
    edges: list[PropEdge] = []
    for eq, target in dm.order:
        if lin.K[eq, target] != 0.0:
            pivot = "K"
        elif lin.Peff[eq, target] != 0.0:
            pivot = "P"
        else:
            raise InternalPivotError(f"equation {eq} has no admissible pivot for variable {lin.names[target]}")
        for src in range(lin.d):
            present = [ch for ch, M in channels.items() if M[eq, src] != 0.0]
            if src == target:
                present.append(present.pop(present.index(pivot)))
            for ch in present:
                edges.append(PropEdge(src, target, _EXPONENT[ch] - _EXPONENT[pivot], eq))
    return PropagationGraph(tuple(range(lin.d)), tuple(edges), lin.names)


def propagation_dot(graph: PropagationGraph) -> str:
    """Graphviz rendering with symbolic edge weights ("s-1", "-1", ...)."""
    lines = ["digraph propagation {"]
    for n in graph.names:
        lines.append(f'  "{n}";')
    for e in graph.edges:
        lines.append(f'  "{graph.names[e.src]}" -> "{graph.names[e.dst]}" [label="{e.index.label()}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def enumerate_cycles(graph: PropagationGraph) -> list[Cycle]:
    """All simple directed cycles, with parallel edges expanded separately.

    Depth-first search from each node in turn, visiting only greater nodes,
    so every cycle starts at its least node and is found once per choice of
    parallel edges.
    """
    out = [[e for e in graph.edges if e.src == n] for n in graph.nodes]
    cycles: list[Cycle] = []

    def extend(root: int, path: list[int], chosen: list[PropEdge]) -> None:
        for e in out[path[-1]]:
            if e.dst == root:
                edges = (*chosen, e)
                weight = sum((x.index for x in edges), AffineIndex(0, 0))
                cycles.append(Cycle(tuple(path), edges, weight))
            elif e.dst > root and e.dst not in path:
                extend(root, path + [e.dst], chosen + [e])

    for root in graph.nodes:
        extend(root, [root], [])
    return cycles


def stability_threshold(cycles: list[Cycle]) -> Step2Verdict:
    """Exact-rational feasible set { s > 0 : every cycle weight >= 0 }."""
    lower = Fraction(0)
    upper: Fraction | None = None
    witness: list[Cycle] = []
    for c in cycles:
        a, b = c.weight.a, c.weight.b
        if a == 0:
            if b < 0:
                witness.append(c)
        elif a > 0:
            lower = max(lower, Fraction(-b, a))
        else:
            bound = Fraction(b, -a)
            if bound <= 0:
                witness.append(c)
            elif upper is None or bound < upper:
                upper = bound
    if witness or (upper is not None and lower > upper):
        return Step2Verdict(True, None, None, (), tuple(witness))
    binding = tuple(
        c for c in cycles if Fraction(c.weight.a) * lower + c.weight.b == 0
    )
    return Step2Verdict(False, lower, upper, binding, ())
