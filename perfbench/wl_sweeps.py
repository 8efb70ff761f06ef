"""stability_sweeps: stability_boundary_sweep on the worked cases.

Each operation is one sweep: bisection for the largest stable dt at each dx
of its list.  The seed moves every dx by less than a quarter of a cell over
the domain, so N = round(length / dx) and the work stay the same while every
symbol the program builds changes.  The linear_kg strict sweep is the
exception: it runs on fixed inputs because it is counted as failed (see
KNOWN_FAULT) and must fail alike in every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import oracles
from diamondstab import integrator, msform, spectral
from workloads import Report, op

SETUP_REPEATS = 500
DX4 = (0.4, 0.2, 0.1, 0.05)
DX5 = (0.4, 0.2, 0.1, 0.05, 0.025)
NLS_DX = (0.8, 0.4, 0.2)

# name: (form, scheme, criterion, domain length, dx list, expected slope)
# wave rk:2 uses "nozero": under "strict" it meets the same fault as the
# linear_kg strict sweep (the k = 0 symbol, nearly defective, rounds past
# the 1e-9 tolerance) and returns dt_max/dx from 0.05 to 1e-5.
CASES = {
    "good_boussinesq_L4": ("good_boussinesq", "simple", "strict", 4.0, DX4, 3.0),
    "good_boussinesq_L8": ("good_boussinesq", "simple", "strict", 8.0, DX4, 3.0),
    "nls_rho9_growth": ("nls_rho9", "simple", "growth", 48.0, NLS_DX, 3.0),
    "dirac_nozero": ("dirac", "simple", "nozero", 8.0, DX4, 1.0),
    "linear_kg_nozero": ("linear_kg", "simple", "nozero", 8.0, DX5, 1.0),
    "linear_kg_strict": ("linear_kg", "simple", "strict", 8.0, DX5, 1.0),
    "wave_strict": ("wave", "simple", "strict", 8.0, DX4, 1.0),
    "wave_rk2_nozero": ("wave", "rk:2", "nozero", 8.0, DX4, 1.0),
}
KNOWN_FAULT = {
    "linear_kg_strict": "spectral_verdict: the nearly defective k = 0 symbol rounds past the 1e-9 tolerance",
}
SLOPE_TOL = 0.3  # acceptance 06 takes [2.7, 3.3] for the cubic boundary
FIT_FACTOR = 1.5  # every dt_max within this factor of the fitted power law
DENSE_DIM = 500  # dense M2 M1 check at points whose full matrix is at most this wide,
# or else at the smallest point of the sweep
NEAR = 0.01  # the dense check steps this share below and above dt_max


def make_inputs(seed: int, scratch):
    rng = np.random.default_rng(seed)
    inputs = {}
    for name, (_, _, _, length, dxs, _) in CASES.items():
        if name in KNOWN_FAULT:
            inputs[name] = list(dxs)
            continue
        n_max = max(round(length / dx) for dx in dxs)
        inputs[name] = [dx * (1.0 + rng.uniform(-0.25, 0.25) / n_max) for dx in dxs]
    return inputs


def _criterion(kind: str) -> spectral.Criterion:
    return spectral.Criterion("growth", theta=1.1) if kind == "growth" else spectral.Criterion(kind)


def _linearization(name: str):
    if name == "nls_rho9":
        return msform.nls_constant_amplitude_linearization(9.0, 2.0)
    form = msform.registry_get(name)
    return msform.linearize(form, np.zeros(form.d))


@dataclass
class Sweep:
    lin: object
    scheme: object
    criterion: object
    length: float
    dxs: list


def setup(inputs) -> dict:
    sweeps = {}
    for name, (form, scheme, kind, length, _, _) in CASES.items():
        sch = "simple" if scheme == "simple" else integrator.gauss_tableau(int(scheme.split(":")[1]))
        sweeps[name] = Sweep(_linearization(form), sch, _criterion(kind), length, inputs[name])
    return sweeps


def round_ops(sweeps):
    return [
        op(name, spectral.stability_boundary_sweep, sw.lin, sw.scheme, sw.length, sw.dxs, sw.criterion)
        for name, sw in sweeps.items()
    ]


def items(outputs) -> int:
    """Boundary points found."""
    return sum(len(res.points) for res in outputs.values())


def fingerprint(outputs):
    return tuple((name, tuple(p.dt_max for p in res.points)) for name, res in outputs.items())


def dense_verdict(sw: Sweep, dt: float, dx: float, N: int):
    """Verdict of the dense full-step matrix; None where rounding cannot tell."""
    if sw.scheme == "simple":
        M = spectral.assemble_full_update_matrix(sw.lin, dt, dx, N)
    else:
        M = spectral.assemble_full_update_matrix_rk(spectral.build_blocks_rk(sw.lin, sw.scheme, dt, dx), N)
    modulus = oracles.dense_modulus(M, N, sw.criterion.kind)
    return oracles.dense_stable(modulus, sw.criterion.kind, dt, sw.criterion.theta)


def block_width(sw: Sweep) -> int:
    return 2 * sw.lin.d * (1 if sw.scheme == "simple" else sw.scheme.r)


def sweep_problems(sw: Sweep, result, slope: float) -> list[str]:
    """Slope, power-law fit and the dense check of one sweep result."""
    problems = []
    if any(p.dt_max is None for p in result.points) or result.slope is None:
        return [f"no stable dt found at some dx: {[p.dt_max for p in result.points]}"]
    if abs(result.slope - slope) > SLOPE_TOL:
        problems.append(f"slope {result.slope:.3f}, expected {slope} +- {SLOPE_TOL}")
    smallest = min(p.N for p in result.points)
    for p in result.points:
        fit = math.exp(result.log_c) * p.dx**result.slope
        if not 1.0 / FIT_FACTOR <= p.dt_max / fit <= FIT_FACTOR:
            problems.append(f"dx={p.dx:.4g}: dt_max={p.dt_max:.4g} is {p.dt_max / fit:.3g} times the fitted law")
        if 2 * p.N * block_width(sw) > DENSE_DIM and p.N != smallest:
            continue
        below = dense_verdict(sw, p.dt_max * (1.0 - NEAR), p.dx, p.N)
        if below is False:
            problems.append(f"dx={p.dx:.4g}: dense M2 M1 unstable {NEAR:.0%} below dt_max={p.dt_max:.4g}")
        if p.dt_max >= p.dx:
            continue  # the sweep brackets dt in [1e-12, dx]: dt_max = dx is its cap, not a boundary
        above = dense_verdict(sw, p.dt_max * (1.0 + NEAR), p.dx, p.N)
        if above is not False:
            problems.append(f"dx={p.dx:.4g}: dense M2 M1 not unstable {NEAR:.0%} above dt_max={p.dt_max:.4g}")
    return problems


def check(inputs, sweeps, outputs) -> Report:
    rep = Report()
    for name, result in outputs.items():
        sw = sweeps[name]
        slope = CASES[name][5]
        problems = sweep_problems(sw, result, slope)
        rep.notes.append(f"{name}: slope {result.slope:.4f}, dt_max/dx "
                         + " ".join(f"{p.dt_max / p.dx:.4g}" for p in result.points if p.dt_max))
        if name in KNOWN_FAULT and problems:
            rep.failed[name] = f"{KNOWN_FAULT[name]}; {'; '.join(problems)}"
        else:
            rep.problems += [f"{name}: {p}" for p in problems]
    return rep
