"""nls_collision: the NLS two-soliton collision of acceptance 10.

Simple scheme, N = 480 on [-24, 24], box initialisation.  A round runs the
bounded run at dt = 2.5e-6 twice and the diverging run at DT_BAD once, so
the bounded run is the median operation.  The seed translates the initial
data by up to one unit and rotates its complex phase; neither changes the
physics, both change every number the solver sees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import root

from diamondstab import integrator, msform, spectral
from diamondstab.solutions import nls_two_soliton_ic
from workloads import Report, op

SETUP_REPEATS = 8
A, B, N = -24.0, 24.0, 480
DT_OK, STEPS_OK = 2.5e-6, 400
DT_BAD, T_BAD = 4e-5, 0.2
ENERGY_DRIFT = 2e-2  # measured 6.5e-3: an O(dx^2) offset set by the box start, not a trend
FIRST_STEP_TOL = 1e-10  # measured 5e-14
ENERGY_MATCH = 1e-10  # relative; the same density summed in another order


def make_inputs(seed: int, scratch):
    rng = np.random.default_rng(seed)
    return {"shift": float(rng.uniform(-1.0, 1.0)), "phase": float(rng.uniform(0.0, 2.0 * math.pi))}


def initial_condition(inputs):
    base = nls_two_soliton_ic()
    c, s = math.cos(inputs["phase"]), math.sin(inputs["phase"])

    def ic(x):
        z = base(np.asarray(x, dtype=float) - inputs["shift"])
        p, q, v, w = np.moveaxis(z, -1, 0)
        return np.stack([c * p - s * q, s * p + c * q, c * v - s * w, s * v + c * w], axis=-1)

    return ic


@dataclass
class State:
    form: object
    ic: object
    meshes: dict
    starts: dict  # dt -> initial zig-zag state from the box initialisation


def setup(inputs) -> State:
    form = msform.registry_get("nls")
    ic = initial_condition(inputs)
    meshes = {
        "bounded": integrator.MeshParams(A, B, N, DT_OK, STEPS_OK * DT_OK),
        "diverging": integrator.MeshParams(A, B, N, DT_BAD, T_BAD),
    }
    starts = {
        key: integrator.init_half_step(form, ic, mesh, method="box").values
        for key, mesh in meshes.items()
    }
    return State(form, ic, meshes, starts)


def _start_hook(start):
    """Hand the set-up's box half-step to integrate as its t = dt/2 data."""
    half = start[1::2]

    def half_points(x, t):
        if np.shape(x) != (len(half),):
            raise ValueError("box start requested at other points than the half grid")
        return half

    return half_points


def _integrate(state, key, observers, steps=None):
    mesh = state.meshes[key]
    if steps is not None:
        mesh = integrator.MeshParams(mesh.a, mesh.b, mesh.N, mesh.dt, steps * mesh.dt)
    return integrator.integrate(
        state.form, "simple", state.ic, mesh, observers=observers,
        exact=_start_hook(state.starts[key]), init_method="exact",
    )


def round_ops(state):
    return [
        op("bounded#1", _integrate, state, "bounded", ("energy",)),
        op("bounded#2", _integrate, state, "bounded", ("energy",)),
        op("diverging", _integrate, state, "diverging", ()),
    ]


def items(outputs) -> int:
    """Diamond updates: N per half-step, counting the one a divergence stopped."""
    dts = {"bounded#1": DT_OK, "bounded#2": DT_OK, "diverging": DT_BAD}
    return sum(
        N * (round(2 * res.diverged_at / dts[name]) if res.status == "diverged" else 2 * res.state.step)
        for name, res in outputs.items()
    )


def fingerprint(outputs):
    return tuple(
        (name, res.status, res.diverged_at, res.state.step, res.state.values.tobytes())
        for name, res in outputs.items()
    )


# -- independent first step ----------------------------------------------------

# i phi_t + phi_xx + a |phi|^2 phi = 0 with phi = p + i q, v = p_x, w = q_x, as
# K z_t + L z_x = grad S with S = a (p^2 + q^2)^2 / 4 + (v^2 + w^2) / 2:
#   q_t - v_x = a (p^2 + q^2) p,   -p_t - w_x = a (p^2 + q^2) q,   p_x = v,   q_x = w.
NLS_A = 2.0
NLS_K = np.array([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], dtype=float)
NLS_L = np.array([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)


def _grad_S(z):
    p, q, v, w = z
    r = NLS_A * (p * p + q * q)
    return np.array([r * p, r * q, v, w])


def _hess_S(z):
    p, q, _, _ = z
    a = NLS_A
    return np.array([
        [a * (3 * p * p + q * q), 2 * a * p * q, 0, 0],
        [2 * a * p * q, a * (p * p + 3 * q * q), 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ])


def energy(z, dx):
    """Energy of the integer points: sum of S(z) - z . L z_x / 2 with
    central differences, the density whose discrete conservation law the
    scheme keeps."""
    p, q, v, w = z.T
    dxc = lambda f: (np.roll(f, -1) - np.roll(f, 1)) / (2.0 * dx)  # noqa: E731
    S = 0.25 * NLS_A * (p * p + q * q) ** 2 + 0.5 * (v * v + w * w)
    zLzx = -p * dxc(v) - q * dxc(w) + v * dxc(p) + w * dxc(q)
    return float((S - 0.5 * zLzx).sum() * dx)


def _diamond(zb, zl, zr, dt, dx):
    # rows scaled by dt (evolution) and dx (constraints) so that each is O(1)
    # and the solver's step tolerance means the same in every component
    D = np.array([dt, dt, dx, dx])[:, None]

    def f(zt):
        avg = 0.25 * (zt + zb + zl + zr)
        return D[:, 0] * (NLS_K @ (zt - zb) / dt + NLS_L @ (zr - zl) / dx - _grad_S(avg))

    def jac(zt):
        return D * (NLS_K / dt - 0.25 * _hess_S(0.25 * (zt + zb + zl + zr)))

    sol = root(f, zb, jac=jac, method="lm", options={"xtol": 1e-15, "ftol": 1e-15})
    return sol.x


def first_step_by_root(start, dt, dx):
    """One full step of the diamond scheme, each diamond solved by scipy."""
    evens, odds = start[0::2].copy(), start[1::2].copy()
    n = len(evens)
    evens = np.array([_diamond(evens[i], odds[i - 1], odds[i], dt, dx) for i in range(n)])
    odds = np.array([_diamond(odds[i], evens[i], evens[(i + 1) % n], dt, dx) for i in range(n)])
    out = np.empty_like(start)
    out[0::2], out[1::2] = evens, odds
    return out


def check(inputs, state, outputs) -> Report:
    rep = Report()
    mesh = state.meshes["bounded"]
    rep.expect(np.array_equal(state.form.K, NLS_K) and np.array_equal(state.form.L, NLS_L),
               "registered NLS K, L differ from the ones written out from the PDE")
    for name in ("bounded#1", "bounded#2"):
        res = outputs[name]
        rep.expect(res.status == "completed", f"{name}: status {res.status}")
        peak = float(np.abs(res.state.values).max())
        rep.expect(peak < 1e2, f"{name}: max |z| = {peak:.3g} not below 1e2")
        drift = float(np.abs(res.energies - res.energies[0]).max() / abs(res.energies[0]))
        rep.expect(drift <= ENERGY_DRIFT, f"{name}: energy drift {drift:.2e} above {ENERGY_DRIFT:.0e}")
        final = energy(res.state.integer_points(), mesh.dx)
        rep.expect(abs(final - res.energies[-1]) <= ENERGY_MATCH * abs(final),
                   f"{name}: final state has energy {final:.15g}, the run recorded {res.energies[-1]:.15g}")
        rep.notes.append(f"{name}: max |z| {peak:.3f}, energy drift {drift:.2e}")

    one = _integrate(state, "bounded", (), steps=1)
    ref = first_step_by_root(state.starts["bounded"], DT_OK, mesh.dx)
    err = float(np.abs(one.state.values - ref).max())
    rep.expect(err <= FIRST_STEP_TOL, f"first step differs from the scipy root solve by {err:.2e}")
    rep.notes.append(f"first step: largest difference from the scipy root solve {err:.1e}")

    bad = outputs["diverging"]
    rep.expect(bad.status == "diverged" and bad.diverged_at < T_BAD,
               f"dt={DT_BAD}: status {bad.status}, diverged_at {bad.diverged_at}")
    rep.notes.append(f"dt={DT_BAD}: {bad.status} at t={bad.diverged_at}")

    lin = msform.nls_constant_amplitude_linearization(9.0, NLS_A)
    crit = spectral.Criterion("growth", theta=1.1)
    for dt, want in ((DT_OK, True), (DT_BAD, False)):
        fam = spectral.assemble_symbol_family_simple(spectral.build_blocks_simple(lin, dt, mesh.dx), N)
        got = spectral.spectral_verdict(fam, crit, dt=dt).stable
        rep.expect(got == want, f"growth criterion calls dt={dt} {'stable' if got else 'unstable'}")
    return rep
