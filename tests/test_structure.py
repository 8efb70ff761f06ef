from collections import Counter

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, maximum_bipartite_matching

from diamondstab import structure
from diamondstab.msform import (
    LinearizedForm,
    MultiSymplecticForm,
    PolynomialTerm,
    linearize,
    registry_get,
    registry_names,
)
from diamondstab.pipeline import reference_linearization
from diamondstab.spectral import SingularUpdateError, _pivot_inverse, build_blocks_rk, build_blocks_simple
from diamondstab.structure import (
    BipartiteSystem,
    _max_score_assignment,
    _preferred_matching,
    _strong_components,
    _topological_components,
    build_equation_unknown_graph,
    classify_consistency,
    dm_decompose,
)
from diamondstab.integrator import gauss_tableau

INCONSISTENT = {"advection", "kdv", "camassa_holm", "bbm", "hunter_saxton_1", "hunter_saxton_2"}
CONSISTENT = set(registry_names()) - INCONSISTENT


def names_of(bip, unknowns):
    return {bip.names[j] for j in unknowns}


def test_wave_bipartite_edges():
    bip = build_equation_unknown_graph(registry_get("wave"))
    assert bip.edges == frozenset({(0, 1), (1, 0), (1, 1), (2, 2)})
    assert bip.provenance_of((0, 1)) == "K"
    assert bip.provenance_of((2, 2)) == "S"


def test_kdv_bipartite_rows():
    bip = build_equation_unknown_graph(registry_get("kdv"))
    rows = {i: names_of(bip, bip.neighbors(i)) for i in range(4)}
    assert rows[0] == {"u"}
    assert rows[1] == {"psi", "p", "u"}
    assert rows[2] == {"w"}
    assert rows[3] == {"u"}


def test_diagonal_form_has_diagonal_edges():
    form = MultiSymplecticForm("diag", ("a", "b", "c"), np.zeros((3, 3)), np.zeros((3, 3)), np.eye(3))
    bip = build_equation_unknown_graph(form)
    assert bip.edges == frozenset({(0, 0), (1, 1), (2, 2)})


def dm_matching(form):
    return dm_decompose(build_equation_unknown_graph(form)).matching


def test_max_matching_sizes():
    assert len(dm_matching(registry_get("wave"))) == 3
    assert len(dm_matching(registry_get("advection"))) == 2
    empty = MultiSymplecticForm(
        "none", ("a", "b"), np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))
    )
    assert dm_matching(empty) == ()


def test_wave_dm_order():
    dm = classify_consistency(registry_get("wave"))
    assert dm.consistent
    solved = [dm.names[u] for _, u in dm.order]
    assert set(solved[:2]) == {"v", "w"} and solved[2] == "u"


def test_hunter_saxton_1_blocks():
    dm = classify_consistency(registry_get("hunter_saxton_1"))
    assert not dm.consistent
    over = dm.over[0]
    under = dm.under[0]
    assert len(over.equations) == 1 and over.unknowns == ()
    assert {dm.names[u] for u in under.unknowns} == {"phi"}


def test_camassa_holm_blocks():
    dm = classify_consistency(registry_get("camassa_holm"))
    assert not dm.consistent
    over = dm.over[0]
    assert {dm.names[u] for u in over.unknowns} == {"u"}
    assert set(over.equations) == {1, 2}
    under = dm.under[0]
    assert {dm.names[u] for u in under.unknowns} == {"phi", "w"}


def test_advection_blocks():
    dm = classify_consistency(registry_get("advection"))
    over = dm.over[0]
    assert {dm.names[u] for u in over.unknowns} == {"u"}
    assert set(over.equations) == {0, 2}
    under = dm.under[0]
    assert {dm.names[u] for u in under.unknowns} == {"phi", "w"}


@pytest.mark.parametrize("name", sorted(CONSISTENT))
def test_consistent_registry(name):
    assert classify_consistency(registry_get(name)).consistent


@pytest.mark.parametrize("name", sorted(INCONSISTENT))
def test_inconsistent_registry(name):
    assert not classify_consistency(registry_get(name)).consistent


@pytest.mark.parametrize("name", registry_names())
def test_verdict_iff_perfect_matching(name):
    bip = build_equation_unknown_graph(registry_get(name))
    dm = dm_decompose(bip)
    # independent oracle: scipy's Hopcroft-Karp on the biadjacency matrix
    eqs, uns = zip(*bip.edges)
    biadj = csr_matrix((np.ones(len(eqs)), (eqs, uns)), shape=(bip.n, bip.n))
    size = int((maximum_bipartite_matching(biadj, perm_type="column") >= 0).sum())
    assert dm.consistent == (size == bip.n)
    assert len(dm.matching) == size


def test_computation_order_is_topological():
    # every equation's sources must be already-solved targets or enter
    # only through known corners (L column) -- checked structurally
    for name in sorted(CONSISTENT):
        form = registry_get(name)
        bip = build_equation_unknown_graph(form)
        dm = dm_decompose(bip)
        solved = set()
        blocks = [b for b in dm.blocks if b.kind == "well-determined"]
        for b in blocks:
            for eq in b.equations:
                for un in bip.neighbors(eq):
                    assert un in solved or un in b.unknowns
            solved.update(b.unknowns)


def _max_matching_size(n, edges, drop_eq=None, drop_un=None):
    kept = np.array([(i, j) for i, j in edges if i != drop_eq and j != drop_un], dtype=int).reshape(-1, 2)
    biadj = csr_matrix((np.ones(len(kept)), (kept[:, 0], kept[:, 1])), shape=(n, n))
    return int((maximum_bipartite_matching(biadj, perm_type="column") >= 0).sum())


def test_dm_coarse_blocks_match_their_matching_definition():
    # independent definition, by scipy's Hopcroft-Karp: an equation is in the
    # overdetermined block iff some maximum matching leaves it free, that is
    # iff deleting it keeps the maximum matching size; an unknown is in the
    # underdetermined block likewise.  The other side of each block is the
    # neighbourhood of that one.
    rng = np.random.default_rng(5)
    nonempty = 0
    for _ in range(300):
        n = int(rng.integers(2, 9))
        edges = {(int(rng.integers(n)), int(rng.integers(n))) for _ in range(int(rng.integers(0, 3 * n)))}
        prov = tuple(sorted((e, "KS"[int(rng.integers(2))]) for e in edges))
        dm = dm_decompose(BipartiteSystem(n, tuple(f"z{i}" for i in range(n)), frozenset(edges), prov))
        size = _max_matching_size(n, edges)
        over_eqs = {i for i in range(n) if _max_matching_size(n, edges, drop_eq=i) == size}
        under_uns = {j for j in range(n) if _max_matching_size(n, edges, drop_un=j) == size}
        over = dm.over[0] if dm.over else None
        under = dm.under[0] if dm.under else None
        assert set(over.equations if over else ()) == over_eqs
        assert set(over.unknowns if over else ()) == {j for i, j in edges if i in over_eqs}
        assert set(under.unknowns if under else ()) == under_uns
        assert set(under.equations if under else ()) == {i for i, j in edges if j in under_uns}
        nonempty += bool(over_eqs or under_uns)
    assert nonempty >= 100, nonempty  # the blocks are exercised, not vacuously empty


def test_dm_blocks_are_block_triangular_on_random_systems():
    # blocks come in solving order: an equation of a well-determined block
    # uses only its own unknowns and those of earlier blocks
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        edges = {(int(rng.integers(n)), int(rng.integers(n))) for _ in range(int(rng.integers(0, 3 * n)))}
        prov = tuple(sorted((e, "KS"[int(rng.integers(2))]) for e in edges))
        bip = BipartiteSystem(n, tuple(f"z{i}" for i in range(n)), frozenset(edges), prov)
        dm = dm_decompose(bip)
        solved = set()
        for b in dm.blocks:
            if b.kind == "well-determined":
                for eq in b.equations:
                    assert set(bip.neighbors(eq)) <= solved | set(b.unknowns)
            solved.update(b.unknowns)
        assert [(e, u) for b in dm.well for e, u in dm.matching if e in b.equations] == list(dm.order)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", registry_names())
def test_dm_blocks_invariant_under_permutation(name, seed):
    form = registry_get(name)
    rng = np.random.default_rng((hash(name) + seed) % 2**32)
    prow = rng.permutation(form.d)
    pcol = rng.permutation(form.d)
    K = form.K[np.ix_(prow, pcol)]
    L = form.L[np.ix_(prow, pcol)]
    P = form.P[np.ix_(prow, pcol)]
    terms = tuple(
        type(t)(int(np.where(prow == t.row - 1)[0][0]) + 1, t.coeff,
                tuple(t.exponents[pcol[j]] for j in range(form.d)))
        for t in form.terms
    )
    permuted = MultiSymplecticForm(
        "perm", tuple(form.names[pcol[j]] for j in range(form.d)), K, L, P, terms
    )
    dm0 = classify_consistency(form)
    dm1 = classify_consistency(permuted)
    assert dm0.consistent == dm1.consistent

    def block_sets(dm, names):
        return sorted(
            (b.kind, tuple(sorted(names[u] for u in b.unknowns)))
            for b in dm.blocks
        )

    assert block_sets(dm0, form.names) == block_sets(dm1, permuted.names)


# -- Step 1's matching and components against scipy ----------------------------


def oracle_preferred_matching(bip):
    """The former matching: scipy's linear_sum_assignment on float scores."""
    n = bip.n
    big = 4 * n
    score = np.zeros((n, n))
    for (i, j), tag in bip.provenance:
        score[i, j] = big + (1 if tag == "K" else 0)
    rows, cols = linear_sum_assignment(score, maximize=True)
    return {int(i): int(j) for i, j in zip(rows, cols) if score[i, j] > 0}


def scipy_strong_components(n, edges):
    """scipy's strong connected_components of the CSR matrix of ``edges``
    (grouped by source): (count, labels)."""
    src, dst = np.array(edges, dtype=int).reshape(-1, 2).T
    adj = csr_matrix((np.ones(len(src)), dst, np.searchsorted(src, np.arange(n + 1))), shape=(n, n))
    return connected_components(adj, directed=True, connection="strong")


def oracle_topological_components(n, edges):
    """The former components: scipy's strong components, then Kahn's order."""
    src, dst = np.array(edges, dtype=int).reshape(-1, 2).T
    ncomp, label = scipy_strong_components(n, edges)
    succ = [[] for _ in range(ncomp)]
    for ca, cb in zip(label[src].tolist(), label[dst].tolist()):
        if ca != cb and cb not in succ[ca]:
            succ[ca].append(cb)
    indegree = Counter(c for out in succ for c in out)
    order = [c for c in range(ncomp) if indegree[c] == 0]
    for c in order:
        for nxt in succ[c]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                order.append(nxt)
    return [tuple(int(v) for v in np.flatnonzero(label == c)) for c in order]


def oracle_classify_consistency(form, monkeypatch):
    """classify_consistency with the former, scipy-backed matching and components."""
    with monkeypatch.context() as m:
        m.setattr(structure, "_preferred_matching", oracle_preferred_matching)
        m.setattr(structure, "_topological_components", oracle_topological_components)
        return classify_consistency(form)


def test_step1_ports_equal_scipy_on_random_inputs():
    # Step 2 follows the matched targets and the topological order, so the
    # ports must pick what scipy picks among equal optima, not just an optimum
    rng = np.random.default_rng(33)
    for _ in range(5000):
        n = int(rng.integers(1, 17))
        density = rng.random()  # from nearly empty, with empty rows, to full
        edges = {(i, j) for i in range(n) for j in range(n) if rng.random() < density}
        prov = tuple(sorted((e, "KS"[int(rng.integers(2))]) for e in edges))
        bip = BipartiteSystem(n, tuple(f"z{i}" for i in range(n)), frozenset(edges), prov)
        assert _preferred_matching(bip) == oracle_preferred_matching(bip)
        score = [[0] * n for _ in range(n)]
        for (i, j), tag in prov:
            score[i][j] = 4 * n + (tag == "K")
        assert _max_score_assignment(score) == linear_sum_assignment(np.array(score, float), maximize=True)[1].tolist()
        # a digraph with self loops, empty rows and successors in random order
        most = int(rng.integers(0, n + 1))
        succ = [rng.permutation(n)[: rng.integers(0, most + 1)].tolist() for _ in range(n)]
        arcs = [(v, w) for v in range(n) for w in succ[v]]
        ncomp, label = scipy_strong_components(n, arcs)
        assert _strong_components(succ) == (ncomp, label.tolist())
        assert _topological_components(n, arcs) == oracle_topological_components(n, arcs)


def test_strong_components_take_a_repeated_edge_once():
    # scipy's connected_components never returns when an edge repeats the
    # one that put its target on top of the depth-first stack
    assert _strong_components([[1, 1], [0]]) == _strong_components([[1], [0]]) == (1, [0, 0])
    assert _strong_components([[2, 1, 1], [], [0]]) == _strong_components([[2, 1], [], [0]])


def with_cubic_terms(lin, rng):
    """The form with ``lin``'s K, L and P and, with probability 1/2, the
    gradient of one or two cubic monomials of S, as perfbench/formgen.py
    draws them."""
    d = lin.d
    terms = []
    if rng.random() < 0.5:
        for _ in range(int(rng.integers(1, 3))):
            e = np.bincount(rng.integers(0, d, size=3), minlength=d)
            c = float(rng.choice([-1.0, 1.0]))
            for i in np.flatnonzero(e):
                de = e.copy()
                de[i] -= 1
                terms.append(PolynomialTerm(int(i) + 1, c * int(e[i]), tuple(de.tolist())))
    return MultiSymplecticForm("gen", lin.names, lin.K, lin.L, lin.Peff, tuple(terms))


def test_step1_reports_equal_the_scipy_backed_reports(monkeypatch, signed_permutation, random_linearization):
    rng = np.random.default_rng(34)
    forms = []
    for name in registry_names():
        form = registry_get(name)
        lin = reference_linearization(form)
        forms += [form, lin]
        forms += [signed_permutation(lin, rng.permutation(lin.d), rng.choice([-1.0, 1.0], lin.d)) for _ in range(8)]
    forms += [with_cubic_terms(random_linearization(rng, 3 + k % 6), rng) for k in range(2000)]  # d = 3 .. 8
    split = 0
    for form in forms:
        dm = classify_consistency(form)
        assert dm == oracle_classify_consistency(form, monkeypatch), form.name
        split += len(dm.well) > 1
    assert split >= 800, split  # the order of several blocks is exercised


def pivot_singular(lin, scheme, dt, dx=0.1):
    """Whether the block builder of ``scheme`` ("simple" or a tableau) finds
    the update pivot singular."""
    try:
        if scheme == "simple":
            build_blocks_simple(lin, dt, dx)
        else:
            build_blocks_rk(lin, scheme, dt, dx)
    except SingularUpdateError:
        return True
    return False


def test_singularity_simple_advection_all_dt():
    lin = linearize(registry_get("advection"), np.zeros(3))
    for dt in (1.0, 0.1, 1e-3):
        assert pivot_singular(lin, "simple", dt)


def test_singularity_simple_wave_nonsingular():
    lin = linearize(registry_get("wave"), np.zeros(3))
    assert not pivot_singular(lin, "simple", 0.1)
    # direct 3x3 determinant: det(K/dt - P/4) = (1/dt^2) * (1/4)... sign aside
    det = np.linalg.det(lin.K / 0.1 - lin.Peff / 4.0)
    assert abs(abs(det) - 25.0) < 1e-9


def test_singularity_simple_kdv():
    lin = linearize(registry_get("kdv"), np.zeros(4))
    assert pivot_singular(lin, "simple", 0.05)


PIVOT_DTS = (1.0, 0.1, 0.01, 1e-3, 1e-4, 1e-6)


@pytest.mark.parametrize("name", sorted(registry_names()))
def test_inconsistent_implies_singular_for_all_dt(name):
    # the one pivot rule calls a pivot singular exactly where DM finds the
    # linearization inconsistent, for both schemes
    lin = linearize(registry_get(name), np.zeros(registry_get(name).d))
    inconsistent = not classify_consistency(lin).consistent
    assert inconsistent == (name in INCONSISTENT)
    for dt in PIVOT_DTS:
        assert pivot_singular(lin, "simple", dt) == inconsistent, dt
        for r in (1, 2):
            assert pivot_singular(lin, gauss_tableau(r), dt) == inconsistent, (dt, r)


def test_cancelling_pivot_is_singular_at_every_dt():
    # DM finds a perfect matching, but det(x K - P/4) vanishes identically
    K = np.array([[0, -1, 0, -1], [1, 0, 1, 0], [0, -1, 0, -1], [1, 0, 1, 0]], dtype=float)
    lin = LinearizedForm("cancel", ("a", "b", "c", "e"), K, np.zeros((4, 4)), np.diag([0.0, 1.0, 0.0, -1.0]), np.zeros(4))
    assert classify_consistency(lin).consistent
    for dt in PIVOT_DTS:
        assert pivot_singular(lin, "simple", dt), dt


def test_accepted_pivot_inverse_is_numpy_inverse():
    rng = np.random.default_rng(3)
    for M in (rng.standard_normal((5, 5)), registry_get("dirac").K / 1e-6 - registry_get("dirac").P / 4):
        inv = _pivot_inverse(M)
        assert inv is not None and np.array_equal(inv, np.linalg.inv(M))


@pytest.mark.parametrize("name,r", [(n, r) for n in ("kdv", "camassa_holm", "bbm") for r in (1, 2)])
def test_rk_singularity_with_witness(name, r, stage_matrix):
    # the builder refuses Q, and a kernel vector z = x (x) x (x) v shows why:
    # F x = lam x and v solves the pencil (Peff - (2 lam / dt) K) v = 0
    form = registry_get(name)
    lin = linearize(form, np.zeros(form.d))
    tab = gauss_tableau(r)
    assert pivot_singular(lin, tab, 0.1)
    lam_all, vec_all = np.linalg.eig(tab.F)
    lam, x = lam_all[0], vec_all[:, 0]
    v = np.linalg.svd(lin.Peff - (2.0 * lam / 0.1) * lin.K)[2][-1].conj()
    z = np.kron(x, np.kron(x, v))
    assert np.linalg.norm(stage_matrix(lin, tab.F, 0.1, 0.1) @ z) <= 1e-8 * np.linalg.norm(z)


@pytest.mark.parametrize("name", ["wave", "dirac"])
def test_rk_nonsingular(name):
    form = registry_get(name)
    lin = linearize(form, np.zeros(form.d))
    for r in (1, 2):
        assert not pivot_singular(lin, gauss_tableau(r), 0.1)


def test_rk_requires_invertible_tableau():
    with pytest.raises(ValueError, match="invertible"):
        from diamondstab.integrator import RKTableau
        RKTableau(r=2, A=np.zeros((2, 2)), b=np.array([0.5, 0.5]), c=np.array([0.2, 0.8]))
