"""Spans around the library's public functions, recorded from outside.

Each traced name is replaced, in the module namespace where its callers look
it up, by a wrapper that records calls, total time and self time.  Calls of a
traced function made inside the span of another traced function are also
counted against that nearest traced ancestor, so ratios such as Jacobian
evaluations per diamond solve are measured where the work happens.
Nothing is wrapped until ``Tracer.install`` runs, so untraced runs execute
the library unchanged.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# (module, attribute): every public function whose span a per-layer metric
# reads.  eval_grad_S and eval_jac_S live in msform but the integrator calls
# them through its own namespace, so they are wrapped there.
TRACED = (
    ("integrator", "solve_diamonds"),
    ("integrator", "eval_grad_S"),
    ("integrator", "eval_jac_S"),
    ("integrator", "init_half_step"),
    ("integrator", "solve_diamond_rk"),
    ("integrator", "init_edges_rk"),
    ("integrator", "total_energy"),
    ("spectral", "spectral_verdict"),
    ("spectral", "stability_boundary_sweep"),
    ("spectral", "build_blocks_simple"),
    ("spectral", "build_blocks_rk"),
    ("propagation", "build_propagation_graph"),
    ("propagation", "enumerate_cycles"),
    ("propagation", "stability_threshold"),
    ("structure", "classify_consistency"),
    ("msform", "load_form_json"),
)

# result -> number of work items, summed per function (cycles found, sweep points)
RESULT_SIZE = {
    "propagation.enumerate_cycles": len,
    "spectral.stability_boundary_sweep": lambda result: len(result.points),
}


class Stats:
    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.size = 0
        self.nested = defaultdict(int)  # traced callee -> calls inside this span

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.self_time,
            "result_size": self.size,
            "nested_calls": dict(self.nested),
        }


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.stats: dict[str, Stats] = defaultdict(Stats)
        self.stack: list[list] = []  # [key, child seconds]
        self.originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for mod_name, attr in TRACED:
            module = self.modules[mod_name]
            original = getattr(module, attr)
            self.originals.append((module, attr, original))
            setattr(module, attr, self._wrap(f"{original.__module__.rsplit('.', 1)[-1]}.{attr}", original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.originals):
            setattr(module, attr, original)
        self.originals.clear()

    def take(self) -> dict[str, Stats]:
        """Return the statistics gathered so far and start afresh."""
        stats, self.stats = self.stats, defaultdict(Stats)
        return stats

    def _wrap(self, key: str, fn):
        sizer = RESULT_SIZE.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.stack:
                self.stats[self.stack[-1][0]].nested[key] += 1
            frame = [key, 0.0]
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.stack.pop()
                st = self.stats[key]
                st.calls += 1
                st.total += elapsed
                st.self_time += elapsed - frame[1]
                if self.stack:
                    self.stack[-1][1] += elapsed
            if sizer is not None:
                st.size += sizer(result)
            return result

        return traced
