"""The three-step stability decision (consistency, propagation cycles,
spectra) as one function with early exit."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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


def reference_linearization(form, rho: float | None = None) -> msform.LinearizedForm:
    """The linear form Steps 2 and 3 analyse.

    A form with the equations of the registered NLS (msform._registered:
    its name, constants, K, L, P and terms) is linearized about the plane
    wave of constant amplitude ``rho`` (default 9), under its own variable
    labels; every other form about z = 0, and a ``rho`` for it raises
    ValueError, as does a ``rho`` that is not finite and >= 0.
    """
    registered = msform._registered(form)
    if registered is None or registered.name != "nls":
        if rho is not None:
            raise ValueError(
                f"rho is the plane-wave amplitude of the registered nls; form {form.name!r} is linearized at z = 0"
            )
        return msform.linearize(form, np.zeros(form.d))
    if rho is not None and not (math.isfinite(rho) and rho >= 0):
        raise ValueError(f"rho must be finite and >= 0, got {rho}")
    lin = msform.nls_constant_amplitude_linearization(9.0 if rho is None else rho, registered.param("a"))
    return replace(lin, names=form.names)


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
    # the linearization decides rho, so a bad rho fails under stop_after = 1 too
    lin = reference_linearization(form, rho)
    bip = structure.build_equation_unknown_graph(form)
    dm = structure.dm_decompose(bip)
    if not dm.consistent or stop_after == 1:
        return PipelineReport(bip, dm, None if dm.consistent else "StructurallyInconsistent")

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
