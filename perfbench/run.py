"""Four-workload benchmark of the diamondstab integrators and the three-step
stability pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory.  Each run:

1. makes the workload's inputs from the seed (not timed);
2. runs the program's set-up several times and reports the median as setup_s;
3. repeats whole rounds of the workload's operations until S seconds have
   passed, timing each round and each operation;
   the times are scaled to the machine's reference speed (see calibrate.py);
4. checks the outputs against computations made apart from the program;
5. prints one JSON line: correct, attempted, failed and the metrics.

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
library's public functions are wrapped (see spans.py) and the per-layer
metrics are printed instead.  The environment of the run and the per-function
trace are written under perfbench/out/.
"""

import os

# One BLAS thread, fixed before numpy loads: with two OpenBLAS threads the
# dense box initialisation varied fourfold between repeats.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def import_library():
    """Import diamondstab from this checkout's src, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import diamondstab

    if Path(diamondstab.__file__).resolve().parent != src / "diamondstab":
        raise ImportError(f"diamondstab imported from {diamondstab.__file__}, not from {src}")
    return diamondstab


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "blas_threads": int(BLAS_THREADS),
        "cores": os.cpu_count(),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def per_layer(setup: dict, timed: dict, rounds: int, round_times: list) -> dict:
    """Per-layer metrics from the traced set-up and timed phases.

    Counts are per round; every round repeats the same operations on the
    same inputs, so they repeat exactly.  Functions the workload never calls
    read 0.  Per-call times are as measured; trace.wall_s is scaled like
    wall_s, so that the two give the tracing overhead.
    """
    from spans import Stats

    def stats(phase, key):
        return phase.get(key) or Stats()

    def per_call(phase, key, scale):
        st = stats(phase, key)
        return st.total / st.calls * scale if st.calls else 0.0

    def nested(key, child, per=None):
        st = stats(timed, key)
        base = st.calls if per is None else per(st)
        return st.nested.get(child, 0) / base if base else 0.0

    def per_round(key):
        return stats(timed, key).calls / rounds

    grad, jac = "msform.eval_grad_S", "msform.eval_jac_S"
    sweep = "spectral.stability_boundary_sweep"
    cycles = stats(timed, "propagation.enumerate_cycles")
    values = {
        "integrator.solve_diamonds.us_per_call": (per_call(timed, "integrator.solve_diamonds", 1e6), "us"),
        "integrator.solve_diamonds.jac_evals_per_call": (nested("integrator.solve_diamonds", jac), "count"),
        "integrator.solve_diamonds.grad_evals_per_call": (nested("integrator.solve_diamonds", grad), "count"),
        "msform.eval_grad_S.us_per_call": (per_call(timed, grad, 1e6), "us"),
        "msform.eval_grad_S.calls": (per_round(grad), "count"),
        "msform.eval_jac_S.us_per_call": (per_call(timed, jac, 1e6), "us"),
        "msform.eval_jac_S.calls": (per_round(jac), "count"),
        "integrator.init_half_step.s": (per_call(setup, "integrator.init_half_step", 1.0), "s"),
        "integrator.solve_diamond_rk.us_per_call": (per_call(timed, "integrator.solve_diamond_rk", 1e6), "us"),
        "integrator.solve_diamond_rk.calls": (per_round("integrator.solve_diamond_rk"), "count"),
        "integrator.init_edges_rk.s": (per_call(timed, "integrator.init_edges_rk", 1.0), "s"),
        "integrator.total_energy.us_per_call": (per_call(timed, "integrator.total_energy", 1e6), "us"),
        "spectral.spectral_verdict.ms_per_call": (per_call(timed, "spectral.spectral_verdict", 1e3), "ms"),
        "spectral.spectral_verdict.calls": (per_round("spectral.spectral_verdict"), "count"),
        "spectral.stability_boundary_sweep.verdicts_per_point": (
            nested(sweep, "spectral.spectral_verdict", per=lambda st: st.size), "count"),
        "spectral.build_blocks_simple.us_per_call": (per_call(timed, "spectral.build_blocks_simple", 1e6), "us"),
        "spectral.build_blocks_rk.us_per_call": (per_call(timed, "spectral.build_blocks_rk", 1e6), "us"),
        "propagation.enumerate_cycles.ms_per_call": (per_call(timed, "propagation.enumerate_cycles", 1e3), "ms"),
        "propagation.enumerate_cycles.cycles_per_call": (cycles.size / cycles.calls if cycles.calls else 0.0, "count"),
        "propagation.stability_threshold.us_per_call": (
            per_call(timed, "propagation.stability_threshold", 1e6), "us"),
        "propagation.build_propagation_graph.us_per_call": (
            per_call(timed, "propagation.build_propagation_graph", 1e6), "us"),
        "structure.classify_consistency.us_per_call": (
            per_call(timed, "structure.classify_consistency", 1e6), "us"),
        "msform.load_form_json.ms_per_call": (per_call(setup, "msform.load_form_json", 1e3), "ms"),
        "trace.wall_s": (statistics.median(round_times), "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_library()
    except ImportError as exc:
        print(f"error: cannot import the library: {exc}", file=sys.stderr)
        return 2
    from calibrate import REFERENCE_S, Clock
    from spans import Tracer

    wl = workloads.get(args.workload)
    OUT.mkdir(exist_ok=True)
    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = OUT / f"inputs-{tag}-{os.getpid()}"
    tracer = Tracer(workloads.library_modules()) if args.trace else None
    try:
        inputs = wl.make_inputs(args.seed, scratch)
        if tracer:
            tracer.install()

        clock = Clock()
        setup_times = []
        for _ in range(wl.SETUP_REPEATS):
            t0 = time.perf_counter()
            state = wl.setup(inputs)
            setup_times.append(time.perf_counter() - t0)
            clock.tick()
        clock.sample()
        setup_scale, timed_first = clock.factor(), len(clock.kernel_times) - 1
        setup_stats = tracer.take() if tracer else {}

        round_times, op_times, first, rounds, problems = [], [], None, 0, []
        start = time.perf_counter()
        while True:
            ops = []
            for name, call in wl.round_ops(state):
                t0 = time.perf_counter()
                out = call()
                ops.append((name, out, time.perf_counter() - t0))
                clock.tick()
            round_times.append(sum(seconds for _, _, seconds in ops))
            op_times.extend(seconds for _, _, seconds in ops)
            outputs = {name: out for name, out, _ in ops}
            if first is None:
                first = outputs
            elif wl.fingerprint(outputs) != wl.fingerprint(first):
                problems.append(f"round {rounds + 1} gave other outputs than round 1")
            rounds += 1
            if time.perf_counter() - start >= args.seconds:
                break
        clock.sample()
        scale = clock.factor(timed_first)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before the checks
        timed_stats = tracer.take() if tracer else {}
        if tracer:
            tracer.uninstall()

        report = wl.check(inputs, state, first)
        problems += report.problems
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for note in report.notes:
        print(f"measured: {note}")
    for problem in problems:
        print(f"check failed: {problem}")
    for name in sorted(report.failed):
        print(f"known fault, counted as failed: {name}: {report.failed[name]}")

    if tracer:
        metrics = per_layer(setup_stats, timed_stats, rounds, [t * scale for t in round_times])
        trace_doc = {
            "rounds": rounds,
            "setup_repeats": wl.SETUP_REPEATS,
            "setup": {k: v.as_dict() for k, v in sorted(setup_stats.items())},
            "timed": {k: v.as_dict() for k, v in sorted(timed_stats.items())},
        }
        (OUT / f"trace-{tag}.json").write_text(json.dumps(trace_doc, indent=1) + "\n")
    else:
        wall = statistics.median(round_times) * scale
        metrics = {
            "setup_s": {"value": statistics.median(setup_times) * setup_scale, "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "items_per_s": {"value": wl.items(first) / wall, "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(op_times) * scale * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    ops_per_round = len(first)
    result = {
        "correct": not problems,
        "attempted": ops_per_round * rounds,
        "failed": len(report.failed) * rounds,
        "metrics": metrics,
    }
    record = {
        "args": vars(args), "environment": env, "result": result,
        "measured": {"round_s": round_times, "setup_s": setup_times,
                     "kernel_s": clock.kernel_times, "reference_s": REFERENCE_S},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
