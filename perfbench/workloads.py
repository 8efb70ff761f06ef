"""Workload registry and the pieces the workload modules share.

A workload module provides:

- ``SETUP_REPEATS``: how many times one run repeats the set-up;
- ``make_inputs(seed, scratch)``: the inputs, made from the seed (untimed);
- ``setup(inputs)``: the program's set-up, timed as setup_s;
- ``round_ops(state)``: one round, a list of (operation name, call);
- ``items(outputs)``: work items done in one round;
- ``fingerprint(outputs)``: what must be equal between rounds;
- ``check(inputs, state, outputs)``: a ``Report`` on the first round.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass, field

MODULES = {
    "nls_collision": "wl_nls",
    "dirac_breather": "wl_dirac",
    "stability_sweeps": "wl_sweeps",
    "custom_forms": "wl_forms",
}


def get(name: str):
    return importlib.import_module(MODULES[name])


def library_modules() -> dict:
    from diamondstab import integrator, msform, propagation, spectral, structure

    return {
        "integrator": integrator,
        "msform": msform,
        "propagation": propagation,
        "spectral": spectral,
        "structure": structure,
    }


@dataclass
class Report:
    """Check outcome: problems make the run incorrect; ``failed`` maps an
    operation with a known, named fault to the reason its output is wrong."""

    problems: list[str] = field(default_factory=list)
    failed: dict[str, str] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)  # measured values, for the log

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def op(name: str, fn, *args, **kwargs):
    """One operation of a round: a public call that returns an answer."""
    return name, functools.partial(fn, *args, **kwargs)
