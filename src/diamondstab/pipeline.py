"""The three-step stability decision (consistency, propagation cycles,
spectra) as one function with early exit."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import msform, propagation, spectral, structure

__all__ = ["PipelineReport", "reference_linearization", "run_pipeline"]


@dataclass(frozen=True)
class PipelineReport:
    """What each step produced; fields of steps not run are None.

    Steps 1 and 2 decide ``classification``: "StructurallyInconsistent",
    "UnconditionallyUnstable" or "ConditionallyStable", and None when a
    consistent form stopped after Step 1.  Step 3 judges one (dt, dx, N).
    Steps 2 and 3 read the linearization ``lin``, so Step 1 also runs on it
    (``lin_dm``); a form consistent only through its nonlinear terms has an
    inconsistent linearization and is StructurallyInconsistent.
    """

    bip: structure.BipartiteSystem
    dm: structure.DMReport
    classification: str | None = None
    lin: msform.LinearizedForm | None = None
    graph: propagation.PropagationGraph | None = None
    cycles: tuple[propagation.Cycle, ...] | None = None
    verdict: propagation.Step2Verdict | None = None
    spectral_verdict: spectral.SpectralVerdict | None = None
    lin_dm: structure.DMReport | None = None


def _is_registered_nls(form) -> bool:
    # the form named "nls" that carries its constant a
    return form.name == "nls" and "a" in dict(form.params)


def _check_rho(form, rho: float | None) -> None:
    # rho is the amplitude of the registered NLS's plane wave; no other form has one
    if rho is not None and not _is_registered_nls(form):
        raise ValueError(
            f"rho is the plane-wave amplitude of the registered nls; form {form.name!r} is linearized at z = 0"
        )
    if rho is not None and not (math.isfinite(rho) and rho >= 0):
        raise ValueError(f"rho must be finite and >= 0, got {rho}")


def reference_linearization(form, rho: float | None = None) -> msform.LinearizedForm:
    """The linear form Steps 2 and 3 analyse: the registered NLS about the
    plane wave of constant amplitude ``rho`` (default 9), every other form
    about z = 0 (a ``rho`` for those raises ValueError)."""
    _check_rho(form, rho)
    if _is_registered_nls(form):
        return msform.nls_constant_amplitude_linearization(
            rho if rho is not None else 9.0, form.param("a")
        )
    return msform.linearize(form, np.zeros(form.d))


def run_pipeline(
    form,
    *,
    rho: float | None = None,
    stop_after: int = 3,
    dt: float = 0.05,
    dx: float = 0.1,
    N: int = 20,
    criterion: spectral.Criterion | None = None,
    scheme="simple",
) -> PipelineReport:
    """Steps 1 -> 2 -> 3, stopping at the first step that decides the form.

    Steps after ``stop_after`` (1, 2 or 3) never run.  ``scheme`` is
    "simple" or an RKTableau (``integrator.parse_scheme`` reads "rk:R");
    ``criterion`` defaults to strict.
    """
    if stop_after not in (1, 2, 3):
        raise ValueError(f"stop_after must be 1, 2 or 3, got {stop_after!r}")
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N!r}")
    _check_rho(form, rho)
    bip = structure.build_equation_unknown_graph(form)
    dm = structure.dm_decompose(bip)
    if not dm.consistent or stop_after == 1:
        return PipelineReport(bip, dm, None if dm.consistent else "StructurallyInconsistent")

    lin = reference_linearization(form, rho)
    lin_dm = structure.classify_consistency(lin)
    if not lin_dm.consistent:
        return PipelineReport(bip, dm, "StructurallyInconsistent", lin, lin_dm=lin_dm)
    graph = propagation.build_propagation_graph(lin, lin_dm)
    cycles = tuple(propagation.enumerate_cycles(graph))
    verdict = propagation.stability_threshold(cycles)
    sv = None
    if verdict.feasible and stop_after == 3:
        family = spectral.symbol_family(lin, scheme, dt, dx, N)
        sv = spectral.spectral_verdict(family, criterion or spectral.Criterion("strict"), dt=dt)
    classification = "ConditionallyStable" if verdict.feasible else "UnconditionallyUnstable"
    return PipelineReport(bip, dm, classification, lin, graph, cycles, verdict, sv, lin_dm)
