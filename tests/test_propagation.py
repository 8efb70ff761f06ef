import dataclasses
import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import diamondstab
from diamondstab.msform import (
    MultiSymplecticForm,
    form_to_dict,
    linearize,
    load_form_json,
    registry_get,
    registry_names,
)
from diamondstab.pipeline import reference_linearization, run_pipeline
from diamondstab.propagation import (
    AffineIndex,
    Cycle,
    PropagationGraph,
    PropEdge,
    Step2Verdict,
    build_propagation_graph,
    enumerate_cycles,
    propagation_dot,
    stability_threshold,
)
from diamondstab.structure import classify_consistency


def graph_for(name, rho=None):
    return run_pipeline(registry_get(name), rho=rho, stop_after=2).graph


def edge_set(graph):
    return {(e.src, e.dst, (e.index.a, e.index.b)) for e in graph.edges}


def test_wave_edges_match_worked_example():
    # variables u, v, w are nodes 0, 1, 2
    edges = edge_set(graph_for("wave"))
    assert (2, 1, (1, -1)) in edges
    assert (0, 2, (0, -1)) in edges
    assert (1, 0, (1, 0)) in edges
    # index-0 self edges on every variable
    for v in range(3):
        assert (v, v, (0, 0)) in edges
    assert len(edges) == 6


def test_linear_kg_edges_are_wave_plus_mass_edge():
    # same K and L as wave; the mass term adds only u -> v through the average
    edges = edge_set(graph_for("linear_kg"))
    assert edges == edge_set(graph_for("wave")) | {(0, 1, (1, 0))}
    assert len(edges) == 7


def test_dirac_edges_match_rule_table():
    # variables p1, q1, p2, q2 are nodes 0, 1, 2, 3
    edges = edge_set(graph_for("dirac"))
    # every row pivots on its time derivative: an index-0 self edge, an
    # index-s edge from the mass term and an index-(s-1) edge from L
    assert edges == {
        (1, 1, (0, 0)), (0, 1, (1, 0)), (3, 1, (1, -1)),
        (0, 0, (0, 0)), (1, 0, (1, 0)), (2, 0, (1, -1)),
        (3, 3, (0, 0)), (2, 3, (1, 0)), (1, 3, (1, -1)),
        (2, 2, (0, 0)), (3, 2, (1, 0)), (0, 2, (1, -1)),
    }


def test_mixed_kg_edges():
    # variables u, v, w are nodes 0, 1, 2
    edges = edge_set(graph_for("mixed_kg"))
    for e in [(0, 2, (-1, 0)), (2, 0, (0, -1)), (0, 1, (0, -1)), (1, 0, (-1, 0))]:
        assert e in edges


def test_wave_contains_cycle_2s_minus_2():
    cycles = enumerate_cycles(graph_for("wave"))
    weights = {(c.weight.a, c.weight.b) for c in cycles}
    assert (2, -2) in weights
    three = [c for c in cycles if (c.weight.a, c.weight.b) == (2, -2)]
    assert any(set(c.nodes) == {0, 1, 2} for c in three)


def test_improved_boussinesq_cycles():
    # variables u, v, n, w, p, q are nodes 0 to 5
    cycles = enumerate_cycles(graph_for("improved_boussinesq"))
    pairs = {(tuple(sorted(c.nodes)), (c.weight.a, c.weight.b)) for c in cycles}
    assert ((1, 2), (0, -2)) in pairs
    assert ((1, 3, 4), (0, -2)) in pairs


def test_good_boussinesq_least_weight_cycle():
    # just below the threshold s = 2 the binding cycle is the only negative one
    cycles = enumerate_cycles(graph_for("good_boussinesq"))
    least = min(cycles, key=lambda c: c.weight.value(1.9))
    assert (least.weight.a, least.weight.b) == (2, -4)
    assert least.weight.value(1.9) == pytest.approx(-0.2)


def test_empty_graph_has_no_cycles():
    g = PropagationGraph(nodes=(0,), edges=(), names=("x",))
    assert enumerate_cycles(g) == []


def test_parallel_edges_make_distinct_cycles():
    e1 = PropEdge(0, 1, AffineIndex(1, 0), 0)
    e2 = PropEdge(0, 1, AffineIndex(0, -1), 0)
    back = PropEdge(1, 0, AffineIndex(0, 0), 1)
    g = PropagationGraph(nodes=(0, 1), edges=(e1, e2, back), names=("a", "b"))
    cycles = enumerate_cycles(g)
    assert len(cycles) == 2
    assert {(c.weight.a, c.weight.b) for c in cycles} == {(1, 0), (0, -1)}


def brute_force_cycles(graph):
    """Every simple cycle as (nodes, edges), by trying each node sequence
    that starts at its least node and each choice of parallel edges."""
    found = Counter()
    for k in range(1, len(graph.nodes) + 1):
        for seq in itertools.permutations(graph.nodes, k):
            if min(seq) != seq[0]:
                continue
            hops = [
                [e for e in graph.edges if (e.src, e.dst) == (seq[i], seq[(i + 1) % k])]
                for i in range(k)
            ]
            for chosen in itertools.product(*hops):
                found[(seq, chosen)] += 1
    return found


def test_cycles_match_brute_force_on_random_multigraphs():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        edges = tuple(
            PropEdge(
                int(rng.integers(n)), int(rng.integers(n)),
                AffineIndex(int(rng.integers(-2, 3)), int(rng.integers(-2, 3))), i,
            )
            for i in range(int(rng.integers(0, 3 * n + 1)))
        )
        # the labels are never read: every node may carry the same one
        graph = PropagationGraph(tuple(range(n)), edges, ("z",) * n)
        cycles = enumerate_cycles(graph)
        assert Counter((c.nodes, c.edges) for c in cycles) == brute_force_cycles(graph)
        for c in cycles:
            assert (c.weight.a, c.weight.b) == (
                sum(e.index.a for e in c.edges), sum(e.index.b for e in c.edges)
            )


def oracle_enumerate_cycles(graph):
    """The former enumeration: a copied path and edge list per step, and each
    weight summed as AffineIndex from the cycle's edges."""
    out = [[e for e in graph.edges if e.src == n] for n in graph.nodes]
    cycles = []

    def extend(root, path, chosen):
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


def oracle_stability_threshold(cycles):
    """The former threshold, in Fractions throughout."""
    lower = Fraction(0)
    upper = None
    witness = []
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
    binding = tuple(c for c in cycles if Fraction(c.weight.a) * lower + c.weight.b == 0)
    return Step2Verdict(False, lower, upper, binding, ())


def assert_step2_matches_the_oracle(graph):
    cycles = enumerate_cycles(graph)
    assert cycles == oracle_enumerate_cycles(graph)
    assert stability_threshold(cycles) == oracle_stability_threshold(cycles)
    return len(cycles)


def test_step2_matches_the_oracle_on_registered_forms_and_their_signed_permutations(signed_permutation):
    rng = np.random.default_rng(3)
    graphs = 0
    for name in registry_names():
        lin = reference_linearization(registry_get(name))
        for perm in [np.arange(lin.d), np.arange(lin.d)[::-1]] + [rng.permutation(lin.d) for _ in range(6)]:
            moved = signed_permutation(lin, perm, rng.choice([-1.0, 1.0], lin.d))
            dm = classify_consistency(moved)
            if dm.consistent:
                assert_step2_matches_the_oracle(build_propagation_graph(moved, dm))
                graphs += 1
    assert graphs == 8 * 8  # the 8 consistent registered forms, 8 relabellings each


def test_step2_matches_the_oracle_on_random_graphs(random_linearization):
    rng = np.random.default_rng(1)
    counts = []
    while len(counts) < 240:
        lin = random_linearization(rng, 3 + len(counts) % 6)  # d = 3 .. 8
        dm = classify_consistency(lin)
        if dm.consistent:
            counts.append(assert_step2_matches_the_oracle(build_propagation_graph(lin, dm)))
    assert max(counts) >= 5000


def step2_outcome(report):
    """Classification, (s_lo, s_hi), index edges and (nodes, weight) cycles of a report."""
    v = report.verdict
    return (
        report.classification,
        v and (v.s_lo, v.s_hi),
        report.graph and report.graph.edges,
        report.cycles and [(c.nodes, c.weight) for c in report.cycles],
    )


@pytest.mark.parametrize("name", registry_names())
def test_steps_1_2_ignore_the_variable_names(name):
    # names only label the output: a form whose variables all share one name
    # is analysed exactly as the registered form
    form = registry_get(name)
    same = MultiSymplecticForm(form.name, ("z",) * form.d, form.K, form.L, form.P, form.terms, form.params)
    assert step2_outcome(run_pipeline(same, stop_after=2)) == step2_outcome(run_pipeline(form, stop_after=2))


def test_a_form_is_analysed_by_its_equations_not_its_name():
    # dirac named "nls" with the constant a is not the registered NLS: it is
    # linearized at zero under its own labels and analysed as dirac
    dirac = registry_get("dirac")
    renamed = dataclasses.replace(dirac, name="nls", params=(("a", 2.0),))
    report = run_pipeline(renamed, stop_after=2)
    assert step2_outcome(report) == step2_outcome(run_pipeline(dirac, stop_after=2))
    assert report.verdict.s_lo == 1 and report.lin.names == ("p1", "q1", "p2", "q2")
    with pytest.raises(ValueError, match="plane-wave amplitude of the registered nls"):
        run_pipeline(renamed, rho=4.0, stop_after=1)


def test_json_nls_is_linearized_about_the_registered_plane_wave(tmp_path):
    path = tmp_path / "nls.json"
    path.write_text(json.dumps(form_to_dict(registry_get("nls"))))
    copy = reference_linearization(load_form_json(path), 4.0)
    registered = reference_linearization(registry_get("nls"), 4.0)
    assert (copy.name, copy.names) == (registered.name, registered.names)
    for field in ("K", "L", "Peff", "z_ref"):
        assert np.array_equal(getattr(copy, field), getattr(registered, field)), field


def steps_1_2(lin):
    """Step 1's consistency and Step 2's (unstable, s_lo, s_hi) of a linearization."""
    dm = classify_consistency(lin)
    if not dm.consistent:
        return False, None
    v = stability_threshold(enumerate_cycles(build_propagation_graph(lin, dm)))
    return True, (v.unconditionally_unstable, v.s_lo, v.s_hi)


def test_steps_1_2_are_invariant_under_signed_permutations(signed_permutation):
    # z = T w with T a signed permutation maps K, L and Peff to T^T K T, T^T L T
    # and T^T Peff T, a relabelling of the unknowns and of the equations.  Only
    # the verdicts are compared: ties in the DM matching may pick other pivots,
    # so the cycle lists may differ.  (Elementary shears change the verdicts of
    # most forms today: test_steps_1_2_under_elementary_shears.)
    rng = np.random.default_rng(11)
    for name in registry_names():
        lin = reference_linearization(registry_get(name))
        expected = steps_1_2(lin)
        perms = [np.arange(lin.d)[::-1]] + [rng.permutation(lin.d) for _ in range(8)]
        for perm in perms:
            moved = signed_permutation(lin, perm, rng.choice([-1.0, 1.0], lin.d))
            assert steps_1_2(moved) == expected, (name, perm)


def test_steps_1_2_under_elementary_shears():
    # z = T w with T = I +- e_i e_j^T maps K, L and Peff to T^T K T, T^T L T and
    # T^T Peff T, the same system in other unknowns.  Most linearizations
    # change their verdict under some shear (the basis dependence of Steps 1
    # and 2); the count per form is printed, and only the forms that are
    # invariant today are held to it.
    for name in registry_names():
        lin = reference_linearization(registry_get(name))
        expected = steps_1_2(lin)
        changed = total = 0
        for i, j in itertools.permutations(range(lin.d), 2):
            for sign in (1.0, -1.0):
                T = np.eye(lin.d)
                T[i, j] = sign
                sheared = dataclasses.replace(
                    lin, K=T.T @ lin.K @ T, L=T.T @ lin.L @ T, Peff=T.T @ lin.Peff @ T,
                    z_ref=lin.z_ref - sign * lin.z_ref[j] * np.eye(lin.d)[i],
                )
                changed += steps_1_2(sheared) != expected
                total += 1
        print(f"BASIS {name}: {changed}/{total} elementary shears change Steps 1-2")
        if name in ("dirac", "hunter_saxton_1", "hunter_saxton_2"):
            assert changed == 0, name


def test_propagation_dot_draws_one_node_per_variable():
    # the wave matrices with one name for every variable: three nodes, and
    # the six edges between them, not one node with loops
    form = dataclasses.replace(registry_get("wave"), names=("z", "z", "z"))
    graph = run_pipeline(form, stop_after=2).graph
    lines = propagation_dot(graph).splitlines()
    assert [line for line in lines if " -> " not in line and "label" in line] == [
        '  n0 [label="z"];', '  n1 [label="z"];', '  n2 [label="z"];'
    ]
    edges = [line for line in lines if " -> " in line]
    assert edges == [f'  n{e.src} -> n{e.dst} [label="{e.index.label()}"];' for e in graph.edges]
    assert {(e.src, e.dst) for e in graph.edges} == {(0, 0), (1, 1), (2, 2), (2, 1), (0, 2), (1, 0)}


def test_import_leaves_out_networkx():
    src = str(Path(diamondstab.__file__).resolve().parents[1])
    code = "import sys; import diamondstab; print('networkx' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


SCIPY_FOOTPRINT = """
import json, os, sys, tempfile

def loaded():
    return sorted(m for m in sys.modules if m.startswith(("scipy.optimize", "scipy.sparse")))

seen = {}
import diamondstab
seen["import diamondstab"] = loaded()
from diamondstab import msform, spectral
from diamondstab.integrator import MeshParams, init_half_step, integrate
from diamondstab.pipeline import run_pipeline
from diamondstab.solutions import builtin_initial_condition

assert run_pipeline(msform.registry_get("dirac"), dt=0.2, dx=0.3, N=40).spectral_verdict is not None
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "nls.json")
    with open(path, "w") as fh:
        json.dump(msform.form_to_dict(msform.registry_get("nls")), fh)
    report = run_pipeline(msform.load_form_json(path))
assert report.spectral_verdict is not None
seen["run_pipeline to Step 3"] = loaded()
spectral.stability_boundary_sweep(report.lin, "simple", 4.0, [0.4, 0.2], spectral.Criterion("strict"))
seen["stability_boundary_sweep"] = loaded()
dirac = msform.registry_get("dirac")
ic, exact = builtin_initial_condition("breather", dirac)
mesh = MeshParams(a=-24.0, b=24.0, N=160, dt=0.2, T=0.4)
assert integrate(dirac, "simple", ic, mesh, exact=exact, init_method="exact").status == "completed"
seen["exact-start integrate"] = loaded()
init_half_step(dirac, ic, mesh, method="box")
print(json.dumps([seen, "scipy.sparse.linalg" in sys.modules]))
"""


def test_only_the_box_start_imports_scipy():
    # scipy.optimize and scipy.sparse cost every process about 0.6 s and
    # 50 MB; Steps 1-3, sweeps and exact-start runs must not load them
    src = str(Path(diamondstab.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", SCIPY_FOOTPRINT], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    seen, box_loads_splu = json.loads(out.stdout)
    assert seen == {
        "import diamondstab": [],
        "run_pipeline to Step 3": [],
        "stability_boundary_sweep": [],
        "exact-start integrate": [],
    }
    assert box_loads_splu


@pytest.mark.parametrize(
    "name,expected",
    [
        ("wave", Fraction(1)),
        ("good_boussinesq", Fraction(2)),
        ("nls", Fraction(2)),
        ("linear_kg", Fraction(1)),
        ("dirac", Fraction(1)),
    ],
)
def test_thresholds_of_worked_graphs(name, expected):
    verdict = stability_threshold(enumerate_cycles(graph_for(name)))
    assert verdict.feasible
    assert verdict.s_lo == expected
    assert verdict.s_hi is None


@pytest.mark.parametrize("name", ["mixed_kg", "ostrovsky", "improved_boussinesq"])
def test_unconditionally_unstable(name):
    verdict = stability_threshold(enumerate_cycles(graph_for(name)))
    assert verdict.unconditionally_unstable
    # every witness cycle is negative for all s > 0
    for c in verdict.witness:
        for s in (0.1, 1.0, 5.0, 50.0):
            assert c.weight.value(s) < 0


def test_binding_cycles_at_boundary_reported():
    verdict = stability_threshold(enumerate_cycles(graph_for("wave")))
    assert verdict.s_lo == 1
    assert any((c.weight.a, c.weight.b) == (2, -2) for c in verdict.binding)


def test_nls_threshold_insensitive_to_linearization_amplitude():
    # rho = 0 is the linearization about z = 0
    for rho in (None, 0.0, 0.5, 9.0):
        verdict = stability_threshold(enumerate_cycles(graph_for("nls", rho=rho)))
        assert verdict.s_lo == Fraction(2)


def test_edges_invariant_under_positive_rescaling():
    rng = np.random.default_rng(23)
    for name in ("wave", "good_boussinesq", "dirac", "nls"):
        form = registry_get(name)
        lin = linearize(form, np.zeros(form.d))
        base = edge_set(build_propagation_graph(lin, classify_consistency(lin)))
        drow = np.exp(rng.uniform(-1, 1, form.d))
        dcol = np.exp(rng.uniform(-1, 1, form.d))
        scaled = type(lin)(
            name=lin.name,
            names=lin.names,
            K=drow[:, None] * lin.K * dcol[None, :],
            L=drow[:, None] * lin.L * dcol[None, :],
            Peff=drow[:, None] * lin.Peff * dcol[None, :],
            z_ref=lin.z_ref,
        )
        got = edge_set(build_propagation_graph(scaled, classify_consistency(scaled)))
        assert got == base


def test_threshold_monotone_under_added_cycle():
    base = enumerate_cycles(graph_for("wave"))
    v0 = stability_threshold(base)
    extra = Cycle((0,), (), AffineIndex(1, -3))  # forces s >= 3
    v1 = stability_threshold(base + [extra])
    assert v1.s_lo >= v0.s_lo
    always_neg = Cycle((0,), (), AffineIndex(0, -1))
    v2 = stability_threshold(base + [always_neg])
    assert v2.unconditionally_unstable


def test_bounded_above_interval_supported():
    cycles = [
        Cycle((0,), (), AffineIndex(1, -1)),   # s >= 1
        Cycle((1,), (), AffineIndex(-1, 3)),   # s <= 3
    ]
    v = stability_threshold(cycles)
    assert v.feasible and v.s_lo == 1 and v.s_hi == 3
    v_empty = stability_threshold(cycles + [Cycle((2,), (), AffineIndex(-1, 0))])
    assert v_empty.unconditionally_unstable


def test_affine_labels():
    assert AffineIndex(1, -1).label() == "s-1"
    assert AffineIndex(0, -1).label() == "-1"
    assert AffineIndex(-1, 0).label() == "-s"
    assert AffineIndex(2, -2).label() == "2s-2"
    assert AffineIndex(0, 0).label() == "0"
