"""Command-line driver for the stability pipeline and the integrators.

Subcommands:
  analyze   run Steps 1-3 on one PDE with early exit, report verdicts
  classify  run the pipeline over every registered PDE, emit a table
  run       integrate a PDE on the diamond mesh and record observers
  sweep     trace the stability boundary dt_max(dx) for a PDE

An "unstable" or "inconsistent" finding is a successful analysis: the exit
code is 0 whenever the requested computation completed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import msform, propagation, spectral, structure
from .integrator import MeshParams, NewtonError, edge_node_x, integrate, parse_scheme
from .pipeline import PipelineReport, run_pipeline
from .solutions import builtin_initial_condition

__all__ = ["main"]


def _fraction_str(x) -> str:
    if x is None:
        return "inf"
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def _step1_dict(dm: structure.DMReport) -> dict:
    return {
        "consistent": dm.consistent,
        "matching": [[int(e), dm.names[u]] for e, u in dm.matching],
        "blocks": [
            {
                "kind": b.kind,
                "equations": [int(e) for e in b.equations],
                "unknowns": [dm.names[u] for u in b.unknowns],
            }
            for b in dm.blocks
        ],
        "order": [[int(e), dm.names[u]] for e, u in dm.order],
    }


def _step2_dict(graph, cycles, verdict) -> dict:
    """Step 2 as JSON, each variable written as its name and its index
    (names may repeat; the ``.dot`` file's node n{i} is index i)."""
    names = graph.names
    return {
        "edges": [
            {"src": names[e.src], "src_index": e.src, "dst": names[e.dst], "dst_index": e.dst,
             "index": e.index.label(), "equation": e.equation}
            for e in graph.edges
        ],
        "cycles": [
            {"nodes": [names[n] for n in c.nodes], "node_indices": list(c.nodes), "weight": c.weight.label()}
            for c in cycles
        ],
        "verdict": {
            "unconditionally_unstable": verdict.unconditionally_unstable,
            "s_lo": None if verdict.s_lo is None else _fraction_str(verdict.s_lo),
            "s_hi": _fraction_str(verdict.s_hi) if verdict.feasible else None,
            "binding_cycles": [c.weight.label() for c in verdict.binding],
            "witness_cycles": [c.weight.label() for c in verdict.witness],
        },
    }


def _report_dict(name: str, report: PipelineReport, args) -> dict:
    """The JSON-ready analyze report; keys of steps not run are absent."""
    out: dict = {
        "pde": name,
        "classification": report.classification,
        "step1": _step1_dict(report.dm),
    }
    if report.lin_dm is not None and not report.lin_dm.consistent:
        out["step1_linearization"] = _step1_dict(report.lin_dm)
    if report.verdict is not None:
        out["step2"] = _step2_dict(report.graph, report.cycles, report.verdict)
    sv = report.spectral_verdict
    if sv is not None:
        out["step3"] = {
            "dt": args.dt,
            "dx": args.dx,
            "N": args.N,
            "criterion": sv.criterion.kind,
            "dominant_modulus": sv.dominant_all,
            "dominant_modulus_nonzero_modes": sv.dominant_nonzero,
            "dominant_k": sv.k_dominant,
            "dominant_k_nonzero_modes": sv.k_dominant_nonzero,
            "stable": sv.stable,
        }
        out["step2_lower_exponent"] = _fraction_str(report.verdict.s_lo)
    return out


def _numbers(option: str, text: str, count: int | None = None) -> list[float]:
    """The comma-separated numbers of a hand-parsed option, ``count`` of them
    when given; anything else is refused naming the option and the text."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        values = []
    if not values or count not in (None, len(values)):
        what = {None: "comma-separated numbers", 1: "a number"}.get(count, f"{count} comma-separated numbers")
        raise ValueError(f"{option} expects {what}, got {text!r}")
    return values


def _criterion(text: str) -> spectral.Criterion:
    """The --criterion "strict", "nozero", "growth" or "growth:theta", theta
    read as a hand-parsed number."""
    kind, colon, theta = text.partition(":")
    if not colon:
        return spectral.Criterion(kind)
    if kind != "growth":
        raise ValueError(f"unknown criterion {text!r}")
    return spectral.Criterion(kind, theta=_numbers("--criterion growth", theta, 1)[0])


def _form(args):
    """The form ``args.pde`` names and the rho of ``args.params``: a *.json
    path is a JSON form, any other name a registered one, whose constants
    the other --params set."""
    params = {}
    for item in args.params or []:
        key, eq, val = item.partition("=")
        if not eq:
            raise ValueError(f"--params expects key=val, got {item!r}")
        params[key] = _numbers(f"--params {key}", val, 1)[0]
    rho = params.pop("rho", None)
    if not args.pde.endswith(".json"):
        return msform.registry_get(args.pde, **params), rho
    if params:
        raise ValueError("--params sets the constants of registered forms, not of JSON forms")
    return msform.load_form_json(args.pde), rho


def _write_table(path, rows) -> None:
    """Write rows as CSV to the file ``path``, or to stdout when it is None or "-"."""
    with open(path, "w", newline="", encoding="utf-8") if path and path != "-" else nullcontext(sys.stdout) as fh:
        csv.writer(fh).writerows(rows)


def _emit(report: dict, args) -> None:
    report["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n", encoding="utf-8")
    print(text if args.format == "json" else _human_summary(report))


def _human_summary(report: dict) -> str:
    lines = [f"PDE: {report['pde']}"]
    for key, what in (("step1", "step 1"), ("step1_linearization", "step 1 on the linearization")):
        s1 = report.get(key)
        if s1:
            lines.append(f"  {what}: {'consistent' if s1['consistent'] else 'structurally inconsistent'}")
            for b in s1["blocks"]:
                lines.append(f"    {b['kind']}: equations {b['equations']} unknowns {b['unknowns']}")
    s2 = report.get("step2")
    if s2:
        v = s2["verdict"]
        if v["unconditionally_unstable"]:
            lines.append(f"  step 2: unconditionally unstable (witness {v['witness_cycles']})")
        else:
            lines.append(f"  step 2: feasible s in [{v['s_lo']}, {v['s_hi']}]")
    s3 = report.get("step3")
    if s3:
        lines.append(
            f"  step 3: dominant modulus {s3['dominant_modulus']:.12g} at k={s3['dominant_k']} "
            f"(k>=1: {s3['dominant_modulus_nonzero_modes']:.12g} at k={s3['dominant_k_nonzero_modes']}) -> "
            f"{'stable' if s3['stable'] else 'unstable'} under {s3['criterion']} "
            f"at dt={s3['dt']}, dx={s3['dx']}, N={s3['N']}"
        )
    lines.append(f"  classification: {report['classification'] or 'undecided after step 1'}")
    return "\n".join(lines)


def _cmd_analyze(args) -> int:
    form, rho = _form(args)
    stop_after = 1 if args.step1 else 2 if args.step2 else 3
    report = run_pipeline(
        form,
        rho=rho,
        stop_after=stop_after,
        dt=args.dt,
        dx=args.dx,
        N=args.N,
        criterion=_criterion(args.criterion),
        scheme=parse_scheme(args.scheme),
    )
    if args.dot_dir:
        dots = Path(args.dot_dir)
        dots.mkdir(parents=True, exist_ok=True)
        (dots / f"{form.name}_bipartite.dot").write_text(structure.bipartite_dot(report.bip, report.dm))
        if report.graph is not None:
            (dots / f"{form.name}_propagation.dot").write_text(propagation.propagation_dot(report.graph))
    out = _report_dict(args.pde, report, args)
    if args.step1 or args.step2 or args.step3:
        shown = f"step{stop_after}"
        out = {k: v for k, v in out.items() if k in ("pde", shown, "step1_linearization", "classification")}
    _emit(out, args)
    return 0


def _cmd_classify(args) -> int:
    categories = ("StructurallyInconsistent", "UnconditionallyUnstable", "ConditionallyStable")
    if args.category not in (None, *categories):
        raise ValueError(f"unknown category {args.category!r}; categories: {', '.join(categories)}")
    rows = [["pde", "category", "s_lo"]]
    for name in msform.registry_names():
        report = run_pipeline(msform.registry_get(name), stop_after=2)
        stable = report.classification == "ConditionallyStable"
        if args.category in (None, report.classification):
            rows.append([name, report.classification, _fraction_str(report.verdict.s_lo) if stable else ""])
    _write_table(args.out, rows)
    return 0


def _cmd_run(args) -> int:
    scheme = parse_scheme(args.scheme)
    form, rho = _form(args)
    if rho is not None:  # run integrates the nonlinear form, which has no plane wave
        msform._require_constants(form.name, ["rho"], dict(form.params))
    a, b = _numbers("--domain", args.domain, 2)
    msform._require_positive(dx=args.dx, domain_length=b - a)
    msform._require_positive(**{"domain_length / dx": (b - a) / args.dx})
    N = round((b - a) / args.dx)
    mesh = MeshParams(a=a, b=b, N=N, dt=args.dt, T=args.T)
    ic, exact = builtin_initial_condition(args.ic, form)
    observers = None if args.observe is None else tuple(args.observe.split(",")) if args.observe else ()
    result = integrate(form, scheme, ic, mesh, observers=observers, exact=exact)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    meta = {
        "pde": form.name,
        "scheme": args.scheme,
        "dx": mesh.dx,
        "dt": args.dt,
        "T": args.T,
        "t_end": mesh.t_end,
        "N": N,
        "status": result.status,
        "diverged_at": result.diverged_at,
    }
    (outdir / "run.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    if result.energies is not None:
        _write_table(outdir / "energy.csv", [["t", "energy"], *zip(result.times, result.energies)])
    if result.norms is not None:
        _write_table(outdir / "norms.csv", [["t", "max_abs"], *zip(result.times, result.norms)])
    header = ["x", *form.names]
    if result.snapshots and result.edge_state is None:
        for idx, (t, snap) in enumerate(result.snapshots):
            _write_table(outdir / f"snapshot_{idx:04d}.csv", [header, *np.column_stack((mesh.x_int(), snap))])
    if result.snapshots and result.edge_state is not None:
        # collocation runs: the final edge stacks at the node positions init_edges_rk samples,
        # rows ordered as the stacks (edge 2i+j, node k)
        xs = edge_node_x(mesh, scheme.c).transpose(2, 0, 1).reshape(-1)
        _write_table(outdir / "edges_final.csv", [header, *np.column_stack((xs, result.edge_state.reshape(-1, form.d)))])
    notes = [f"diverged at t={result.diverged_at}"] if result.diverged_at else []
    if abs(mesh.t_end - args.T) > 1e-9 * args.T:
        notes.append(f"ran to t_end={mesh.t_end}, the whole step nearest T={args.T}")
    print(f"status: {result.status}" + (f" ({'; '.join(notes)})" if notes else ""))
    return 0


def _cmd_sweep(args) -> int:
    scheme = parse_scheme(args.scheme)
    criterion = _criterion(args.criterion)
    dx_list = _numbers("--dx-list", args.dx_list)
    # the mesh inputs are refused before Steps 1 and 2 decide, whatever the form
    spectral._require_sweep_lengths(args.domain_length, dx_list)
    form, rho = _form(args)
    # Steps 1 and 2 decide first: an inconsistent or unconditionally unstable
    # form has no stability boundary to trace
    report = run_pipeline(form, rho=rho, stop_after=2)
    if report.classification != "ConditionallyStable":
        print(f"{args.pde}: {report.classification}, no stability boundary to sweep")
        return 0
    result = spectral.stability_boundary_sweep(report.lin, scheme, args.domain_length, dx_list, criterion)
    rows = [["dx", "N", "dt_max"]]
    rows += [[p.dx, p.N, p.dt_max if p.dt_max is not None else ""] for p in result.points]
    rows.append(["slope", "", result.slope if result.slope is not None else ""])
    _write_table(args.out, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="diamondstab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="three-step stability analysis of one PDE")
    pa.add_argument("pde", help="a registered form, or a JSON form file (*.json)")
    pa.add_argument("--params", nargs="*", metavar="key=val")
    pa.add_argument("--dt", type=float, default=0.05)
    pa.add_argument("--dx", type=float, default=0.1)
    pa.add_argument("--N", type=int, default=20)
    pa.add_argument("--criterion", default="strict")
    pa.add_argument("--scheme", default="simple")
    steps = pa.add_mutually_exclusive_group()
    steps.add_argument("--step1", action="store_true", help="run and report step 1 only")
    steps.add_argument("--step2", action="store_true", help="stop after step 2, report it only")
    steps.add_argument("--step3", action="store_true", help="report step 3 only")
    pa.add_argument("--out")
    pa.add_argument("--dot-dir", help="write Graphviz renderings of the step-1/2 graphs here")
    pa.add_argument("--format", choices=["json", "text"], default="text")
    pa.set_defaults(func=_cmd_analyze)

    pc = sub.add_parser("classify", help="classify every registered PDE")
    pc.add_argument("--category")
    pc.add_argument("--out")
    pc.set_defaults(func=_cmd_classify)

    pr = sub.add_parser("run", help="integrate a PDE on the diamond mesh")
    pr.add_argument("--pde", required=True)
    pr.add_argument("--scheme", default="simple", help="simple or rk:R")
    pr.add_argument("--dx", type=float, required=True)
    pr.add_argument("--dt", type=float, required=True)
    pr.add_argument("--domain", default="0,1", help="a,b")
    pr.add_argument("--T", type=float, required=True)
    pr.add_argument("--ic", required=True)
    pr.add_argument("--observe", help="comma-separated observers; default energy (simple) or norms (rk:R)")
    pr.add_argument("--out", required=True)
    pr.add_argument("--params", nargs="*", metavar="key=val")
    pr.set_defaults(func=_cmd_run)

    ps = sub.add_parser("sweep", help="stability boundary dt_max(dx)")
    ps.add_argument("--pde", required=True)
    ps.add_argument("--scheme", default="simple")
    ps.add_argument("--criterion", default="strict")
    ps.add_argument("--dx-list", required=True)
    ps.add_argument("--domain-length", type=float, required=True)
    ps.add_argument("--out")
    ps.add_argument("--params", nargs="*", metavar="key=val")
    ps.set_defaults(func=_cmd_sweep)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, NewtonError, spectral.SingularUpdateError, msform.UnknownFormError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
