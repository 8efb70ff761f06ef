"""custom_forms: Steps 1 to 3 on forms read from JSON files.

The inputs are the 14 registered forms, written out as JSON, and forms drawn
by ``formgen`` from the seed: for each d = 3..8, QUOTA[category] forms of each
category.  Fixed quotas keep the work of a round alike between seeds: a
conditionally stable form costs a Step-3 verdict at N_LARGE, the others cost
far less.  The categories of the drawn forms are settled apart from the
program's own Steps 1 and 2 (perfect matching and exact negative-cycle
search on the propagation graph).

Set-up loads every file with ``load_form_json``, which validates the form.
One operation takes one form through Step 1 (classify_consistency), Step 2
(linearize at 0, build_propagation_graph, enumerate_cycles,
stability_threshold) and, for a conditionally stable form, one Step-3
verdict under the "nozero" criterion at dt = 0.5 dx^s, s = s_lo (1 when
s_lo = 0, capped at s_hi).
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

import formgen
import oracles
from diamondstab import msform, propagation, spectral, structure
from workloads import Report, op

SETUP_REPEATS = 10
DIMS = range(3, 9)
SI, UU, CS = "StructurallyInconsistent", "UnconditionallyUnstable", "ConditionallyStable"
QUOTA = {SI: 1, UU: 2, CS: 8}
MAX_DRAWS = 5000
DX, N_LARGE, N_SMALL = 0.1, 800, 8  # N_SMALL divides N_LARGE: its modes are a subset
CRITERION = spectral.Criterion("nozero")
# Moduli past 1 + CLEAR are unstable beyond any rounding of a Jordan block
# of size up to 8 (eps**(1/8) = 1e-2).  Nearer to 1 the check holds the
# program to the dense matrix only through the characteristic polynomial:
# a verdict inside that band depends on rounding (the fault of the FOUND
# line on spectral_verdict), and may go either way.
CLEAR = 1e-2
CHARPOLY_TOL = 1e-9

# acceptance 01 and 02
EXPECTED_CATEGORY = {
    "advection": SI, "kdv": SI, "camassa_holm": SI, "bbm": SI,
    "hunter_saxton_1": SI, "hunter_saxton_2": SI,
    "mixed_kg": UU, "ostrovsky": UU, "improved_boussinesq": UU,
    "wave": CS, "linear_kg": CS, "dirac": CS, "good_boussinesq": CS, "nls": CS,
}
EXPECTED_S_LO = {"wave": 1, "linear_kg": 1, "dirac": 1, "good_boussinesq": 2, "nls": 2}


def _linearization(js: dict):
    d = js["d"]
    return msform.LinearizedForm(js["name"], tuple(js["names"]), np.array(js["K"]),
                                 np.array(js["L"]), np.array(js["P"]), np.zeros(d))


def category_apart(js: dict) -> str | None:
    """Category from a matching and the exact negative-cycle search; None for
    a form consistent only through its nonlinear terms, whose linearization
    at 0 Step 2 cannot take."""
    if not oracles.perfect_matching(oracles.form_pattern(js)):
        return SI
    if not oracles.perfect_matching(oracles.linear_pattern(js)):
        return None
    lin = _linearization(js)
    graph = propagation.build_propagation_graph(lin, structure.classify_consistency(lin))
    edges = [(e.src, e.dst, e.index.a, e.index.b) for e in graph.edges]
    return UU if oracles.feasible_exponent(graph.nodes, edges) is None else CS


def make_inputs(seed: int, scratch):
    rng = np.random.default_rng(seed)
    scratch.mkdir(parents=True, exist_ok=True)
    entries = []
    for name in msform.registry_names():
        js = msform.form_to_dict(msform.registry_get(name))
        entries.append({"name": name, "json": js, "category": EXPECTED_CATEGORY[name]})
    for d in DIMS:
        filled, draw = {c: 0 for c in QUOTA}, 0
        while filled != QUOTA:
            if draw == MAX_DRAWS:
                raise RuntimeError(f"d={d}: quotas {QUOTA} not filled in {MAX_DRAWS} draws: {filled}")
            js = formgen.random_form(rng, d, f"gen_d{d}_{draw}")
            draw += 1
            cat = category_apart(js)
            if cat is not None and filled[cat] < QUOTA[cat]:
                filled[cat] += 1
                entries.append({"name": js["name"], "json": js, "category": cat})
    for entry in entries:
        entry["path"] = scratch / f"{entry['name']}.json"
        entry["path"].write_text(json.dumps(entry["json"]))
    return entries


def setup(entries):
    return [msform.load_form_json(entry["path"]) for entry in entries]


def step3_exponent(verdict) -> Fraction:
    s = verdict.s_lo if verdict.s_lo > 0 else Fraction(1)
    return min(s, verdict.s_hi) if verdict.s_hi is not None else s


def analyse(form) -> dict:
    """Steps 1 to 3 with early exit, as the analyze command runs them."""
    if not structure.classify_consistency(form).consistent:
        return {"category": SI}
    lin = msform.linearize(form, np.zeros(form.d))
    graph = propagation.build_propagation_graph(lin, structure.classify_consistency(lin))
    cycles = propagation.enumerate_cycles(graph)
    verdict = propagation.stability_threshold(cycles)
    out = {"lin": lin, "graph": graph, "cycles": len(cycles), "verdict": verdict}
    if verdict.unconditionally_unstable:
        return {**out, "category": UU}
    dt = 0.5 * DX ** float(step3_exponent(verdict))
    out.update(category=CS, dt=dt)
    try:
        blocks = spectral.build_blocks_simple(lin, dt, DX)
    except spectral.SingularUpdateError as exc:
        return {**out, "singular": str(exc)}
    sv = spectral.spectral_verdict(spectral.assemble_symbol_family_simple(blocks, N_LARGE), CRITERION)
    return {**out, "step3": sv}


def round_ops(forms):
    return [op(form.name, analyse, form) for form in forms]


def items(outputs) -> int:
    """Forms analysed."""
    return len(outputs)


def fingerprint(outputs):
    def key(out):
        v, sv = out.get("verdict"), out.get("step3")
        return (out["category"], v and (v.s_lo, v.s_hi), out.get("singular"),
                sv and (sv.stable, sv.dominant_nonzero))

    return tuple((name, key(out)) for name, out in outputs.items())


def step3_problems(js: dict, out: dict) -> list[str]:
    lin, dt = out["lin"], out["dt"]
    K, P = js["K"], lin.Peff.tolist()
    if "singular" in out:
        if not oracles.pivot_singular_for_every_dt(K, P):
            return [f"SingularUpdateError at dt={dt:.3g}, but det(K/dt - Peff/4) is not identically 0"]
        return []
    if oracles.pivot_det(K, P, 1 / Fraction(dt)) == 0:
        return [f"pivot K/dt - Peff/4 is exactly singular at dt={dt:.3g}, yet blocks were built"]
    M = spectral.assemble_full_update_matrix(lin, dt, DX, N_SMALL)
    family = spectral.assemble_symbol_family_simple(spectral.build_blocks_simple(lin, dt, DX), N_SMALL)
    small = spectral.spectral_verdict(family, CRITERION)
    large = out["step3"]
    dense = oracles.dense_stable(oracles.dense_modulus(M, N_SMALL, "nozero"), "nozero", dt, band=CLEAR)
    problems = []
    mismatch = oracles.charpoly_mismatch(M, family)
    if mismatch > CHARPOLY_TOL:
        problems.append(f"N={N_SMALL}: symbols and dense M2 M1 have other characteristic polynomials ({mismatch:.1e})")
    if dense is not None and dense != small.stable:
        problems.append(f"N={N_SMALL}: symbols say {'stable' if small.stable else 'unstable'}, dense M2 M1 disagrees")
    if dense is False and large.stable:
        problems.append(f"N={N_LARGE} called stable, but its N={N_SMALL} modes are unstable in the dense M2 M1")
    if large.dominant_nonzero < small.dominant_nonzero:
        problems.append(f"N={N_LARGE} dominant modulus below that of its own N={N_SMALL} modes")
    return problems


def check(entries, forms, outputs) -> Report:
    rep = Report()
    for entry in entries:
        name, js, out = entry["name"], entry["json"], outputs[entry["name"]]
        problems = []
        consistent = oracles.perfect_matching(oracles.form_pattern(js))
        if (out["category"] != SI) != consistent:
            problems.append(f"Step 1 says {out['category']}, the matching says consistent={consistent}")
        if out["category"] != entry["category"]:
            problems.append(f"category {out['category']}, expected {entry['category']}")
        if name in EXPECTED_S_LO and out.get("verdict") and out["verdict"].s_lo != EXPECTED_S_LO[name]:
            problems.append(f"s_lo = {out['verdict'].s_lo}, expected {EXPECTED_S_LO[name]}")
        if "verdict" in out:
            problems += oracles.check_step2(out["graph"], out["verdict"])
        if out["category"] == CS:
            problems += step3_problems(js, out)
        rep.problems += [f"{name}: {p}" for p in problems]
    counts = {c: sum(out["category"] == c for out in outputs.values()) for c in QUOTA}
    singular = [name for name, out in outputs.items() if "singular" in out]
    cycles = max(out.get("cycles", 0) for out in outputs.values())
    rep.notes.append(f"{len(outputs)} forms: {counts}; most cycles on one form {cycles}; "
                     f"pivot singular for every dt (Step 1 said consistent): {singular}")
    return rep
