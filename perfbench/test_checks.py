"""Tests of the benchmark's own checks: every workload's checker accepts the
program's real outputs and rejects a corrupted copy of them.

    python3 -m pytest perfbench/test_checks.py

The workloads run here on shortened horizons and smaller input sets, so the
file takes about half a minute.
"""

import copy
import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import wl_dirac  # noqa: E402
import wl_forms  # noqa: E402
import wl_nls  # noqa: E402
import wl_sweeps  # noqa: E402
from diamondstab import msform, spectral, structure  # noqa: E402


def run_round(wl, seed, scratch=None):
    inputs = wl.make_inputs(seed, scratch)
    state = wl.setup(inputs)
    return inputs, state, {name: call() for name, call in wl.round_ops(state)}


def problems(wl, run, outputs=None):
    inputs, state, clean = run
    return wl.check(inputs, state, clean if outputs is None else outputs).problems


@pytest.fixture(scope="module")
def nls_run():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wl_nls, "STEPS_OK", 20)
        yield run_round(wl_nls, 3)


@pytest.fixture(scope="module")
def dirac_run():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wl_dirac, "T_SHORT", 0.4)
        mp.setattr(wl_dirac, "T_LONG", 4.0)
        yield run_round(wl_dirac, 3)


ALL_SWEEP_CASES = dict(wl_sweeps.CASES)
SWEEP_CASES = {
    "good_boussinesq_L4": ("good_boussinesq", "simple", "strict", 4.0, (0.4, 0.2), 3.0),
    "dirac_nozero": ("dirac", "simple", "nozero", 8.0, (0.4, 0.2), 1.0),
    "wave_rk2_nozero": ("wave", "rk:2", "nozero", 8.0, (0.4, 0.2), 1.0),
}


@pytest.fixture(scope="module")
def sweeps_run():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wl_sweeps, "CASES", SWEEP_CASES)
        yield run_round(wl_sweeps, 3)


@pytest.fixture(scope="module")
def forms_run(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wl_forms, "DIMS", range(3, 6))
        mp.setattr(wl_forms, "QUOTA", {wl_forms.SI: 1, wl_forms.UU: 1, wl_forms.CS: 2})
        yield run_round(wl_forms, 3, tmp_path_factory.mktemp("forms"))


# -- nls_collision ---------------------------------------------------------------


def test_nls_check_accepts_the_program(nls_run):
    assert problems(wl_nls, nls_run) == []


def test_nls_check_rejects_a_perturbed_state(nls_run):
    bad = copy.deepcopy(nls_run[2])
    bad["bounded#1"].state.values[280, 0] += 1e-4  # an integer point inside the left soliton
    assert any("final state has energy" in p for p in problems(wl_nls, nls_run, bad))


def test_nls_check_rejects_a_run_that_did_not_diverge(nls_run):
    bad = dict(nls_run[2], diverging=nls_run[2]["bounded#1"])
    assert any("status completed" in p for p in problems(wl_nls, nls_run, bad))


# -- dirac_breather ----------------------------------------------------------------


def test_dirac_check_accepts_the_program(dirac_run):
    assert problems(wl_dirac, dirac_run) == []


@pytest.mark.parametrize("name,size", [("rk2_short", 1e-3), ("simple_short", 1e-2), ("simple_long", 0.5)])
def test_dirac_check_rejects_a_perturbed_state(dirac_run, name, size):
    bad = copy.deepcopy(dirac_run[2])
    res = bad[name]
    (res.edge_state if res.state is None else res.state.values)[8] += size
    assert any("error" in p for p in problems(wl_dirac, dirac_run, bad))


# -- stability_sweeps --------------------------------------------------------------


def test_sweeps_check_accepts_the_program(sweeps_run):
    assert problems(wl_sweeps, sweeps_run) == []


@pytest.mark.parametrize("name", sorted(SWEEP_CASES))
def test_sweeps_check_rejects_dt_max_scaled_by_2(sweeps_run, name):
    bad = dict(sweeps_run[2])
    res = bad[name]
    points = tuple(dataclasses.replace(p, dt_max=2.0 * p.dt_max) for p in res.points)
    bad[name] = dataclasses.replace(res, points=points)
    assert any(p.startswith(f"{name}: ") and "dense M2 M1 unstable" in p
               for p in problems(wl_sweeps, sweeps_run, bad))


def test_sweeps_known_fault_is_counted_as_failed_not_as_wrong():
    cases = {"linear_kg_strict": ALL_SWEEP_CASES["linear_kg_strict"]}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wl_sweeps, "CASES", cases)
        inputs, state, outputs = run_round(wl_sweeps, 0)
        report = wl_sweeps.check(inputs, state, outputs)
    assert report.problems == []
    assert list(report.failed) == ["linear_kg_strict"]


# -- custom_forms -------------------------------------------------------------------


def test_forms_check_accepts_the_program(forms_run):
    assert problems(wl_forms, forms_run) == []


def _conditionally_stable(outputs, registered):
    names = [n for n, out in outputs.items()
             if out["category"] == wl_forms.CS and n.startswith("gen_") != registered]
    assert names
    return names[0]


@pytest.mark.parametrize("registered", [True, False])
def test_forms_check_rejects_a_wrong_s_lo(forms_run, registered):
    bad = dict(forms_run[2])
    name = _conditionally_stable(bad, registered)
    verdict = bad[name]["verdict"]
    bad[name] = dict(bad[name], verdict=dataclasses.replace(verdict, s_lo=verdict.s_lo + Fraction(1, 2)))
    assert any(p.startswith(f"{name}: ") and "s_lo" in p for p in problems(wl_forms, forms_run, bad))


@pytest.mark.parametrize("registered", [True, False])
def test_forms_check_rejects_a_wrong_category(forms_run, registered):
    bad = dict(forms_run[2])
    name = _conditionally_stable(bad, registered)
    bad[name] = {"category": wl_forms.SI}
    assert any(p.startswith(f"{name}: Step 1 says") for p in problems(wl_forms, forms_run, bad))


def test_forms_check_rejects_a_flipped_step3_verdict(forms_run):
    bad = dict(forms_run[2])
    unstable = [n for n, out in bad.items()
                if "step3" in out and out["step3"].dominant_nonzero > 1 + wl_forms.CLEAR]
    assert unstable
    name = unstable[0]
    bad[name] = dict(bad[name], step3=dataclasses.replace(bad[name]["step3"], stable=True))
    assert any(p.startswith(f"{name}: N={wl_forms.N_LARGE} called stable")
               for p in problems(wl_forms, forms_run, bad))


# -- oracles -------------------------------------------------------------------------


def test_negative_cycle_finds_the_cycle_and_its_weight():
    # a <-> b through weights (s - 1) and (s - 1): negative below s = 1
    edges = [("a", "b", 1, -1), ("b", "a", 1, -1), ("a", "a", 0, 0)]
    assert oracles.negative_cycle(("a", "b"), edges, Fraction(1)) is None
    assert oracles.negative_cycle(("a", "b"), edges, Fraction(1, 2)) == (2, -2)
    assert oracles.feasible_exponent(("a", "b"), edges) == 1


def test_feasible_exponent_proves_emptiness_with_crossed_bounds():
    # needs s >= 2 (weight s - 2) and s <= 1 (weight 1 - s)
    edges = [("a", "a", 1, -2), ("b", "b", -1, 1)]
    assert oracles.feasible_exponent(("a", "b"), edges) is None


def test_perfect_matching():
    assert oracles.perfect_matching(np.array([[1, 1], [1, 0]], dtype=bool))
    assert not oracles.perfect_matching(np.array([[1, 0], [1, 0]], dtype=bool))


def test_pivot_singular_at_every_dt_though_step1_calls_it_consistent():
    """The form of the FOUND line on Step 1: a perfect matching exists, yet
    det(K/dt - P/4) vanishes identically and Step 3 cannot build blocks."""
    K = [[0, -1, 0, -1], [1, 0, 1, 0], [0, -1, 0, -1], [1, 0, 1, 0]]
    P = np.diag([0.0, 1.0, 0.0, -1.0])
    lin = msform.LinearizedForm("degenerate", ("a", "b", "c", "e"), np.array(K, dtype=float),
                                np.zeros((4, 4)), P, np.zeros(4))
    assert structure.classify_consistency(lin).consistent
    assert oracles.pivot_singular_for_every_dt(K, P.tolist())
    with pytest.raises(spectral.SingularUpdateError):
        spectral.build_blocks_simple(lin, 0.05, 0.1)
