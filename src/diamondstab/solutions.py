"""Built-in initial conditions and exact solutions for the benchmark runs."""

from __future__ import annotations

import math

import numpy as np

from . import msform

__all__ = [
    "mixed_kg_cosine",
    "dirac_breather",
    "nls_two_soliton_ic",
    "linear_kg_plane_wave",
    "builtin_initial_condition",
]


def mixed_kg_cosine(a: float = -math.pi**2):
    """Exact travelling solution of u_tx = a u for a = -pi^2: u = cos(pi (x + t)).

    Returns (ic, exact) in the z = (u, v, w) variables of the mixed-derivative
    form, where v = -u_x and w = -u_t / 2.
    """
    if not math.isclose(a, -math.pi**2):
        raise ValueError("closed form only covers a = -pi^2")

    def exact(x, t):
        x = np.asarray(x, dtype=float)
        phase = math.pi * (x + t)
        u = np.cos(phase)
        v = math.pi * np.sin(phase)
        w = 0.5 * math.pi * np.sin(phase)
        return np.stack(np.broadcast_arrays(u, v, w), axis=-1)

    return (lambda x: exact(x, 0.0)), exact


def linear_kg_plane_wave(k: float = 1.0):
    """Plane wave of the Klein-Gordon dynamics u_tt - u_xx = -u at wavenumber k.

    omega^2 = k^2 + 1; z = (u, u_t, u_x).
    """
    omega = math.sqrt(k * k + 1.0)

    def exact(x, t):
        x = np.asarray(x, dtype=float)
        phase = k * x - omega * t
        u = np.cos(phase)
        v = omega * np.sin(phase)
        w = -k * np.sin(phase)
        return np.stack(np.broadcast_arrays(u, v, w), axis=-1)

    return (lambda x: exact(x, 0.0)), exact


def dirac_breather(m: float = 1.0, lam: float = 1.0, Lambda: float = 0.5):
    """Standing solitary wave of the nonlinear Dirac system.

    The profile pair (phi1, phi2) solves the stationary reduction
        phi1' = -(1+Lambda) m phi2 + 2 lam (phi1^2 - phi2^2) phi2,
        phi2' = -(1-Lambda) m phi1 + 2 lam (phi1^2 - phi2^2) phi1,
    and the solution rotates internally with frequency Lambda*m:
        psi1 = phi1 exp(-i Lambda m t),  psi2 = i phi2 exp(-i Lambda m t).
    Returns (ic, exact) in z = (p1, q1, p2, q2).
    """
    if not 0.0 < Lambda < 1.0:
        raise ValueError("Lambda must lie in (0, 1)")
    mu = m * math.sqrt(1.0 - Lambda**2)
    scale = 1.0 / math.sqrt(2.0 * lam)
    amp1 = scale * math.sqrt(2.0 * m) * (1.0 + Lambda) * math.sqrt(1.0 - Lambda) / Lambda
    amp2 = scale * math.sqrt(2.0 * m) * math.sqrt(1.0 + Lambda) * (1.0 - Lambda) / Lambda

    def profiles(x):
        x = np.asarray(x, dtype=float)
        denom = np.cosh(2.0 * mu * x) + 1.0 / Lambda
        return amp1 * np.cosh(mu * x) / denom, amp2 * np.sinh(mu * x) / denom

    omega = Lambda * m

    def exact(x, t):
        phi1, phi2 = profiles(x)
        cos_t, sin_t = math.cos(omega * t), math.sin(omega * t)
        p1, q1 = phi1 * cos_t, -phi1 * sin_t
        p2, q2 = phi2 * sin_t, phi2 * cos_t
        return np.stack(np.broadcast_arrays(p1, q1, p2, q2), axis=-1)

    return (lambda x: exact(x, 0.0)), exact


def nls_two_soliton_ic():
    """Colliding two-soliton initial data for i phi_t + phi_xx + 2|phi|^2 phi = 0.

    phi(x, 0) = 3 sech(3(x+10)) e^{3ix/4} + sqrt(6) sech(sqrt(6)(x-10)) e^{-3ix/4};
    z = (Re phi, Im phi, (Re phi)_x, (Im phi)_x).
    """
    r6 = math.sqrt(6.0)

    def phi_and_dx(x):
        x = np.asarray(x, dtype=float)
        s1 = 3.0 / np.cosh(3.0 * (x + 10.0))
        s2 = r6 / np.cosh(r6 * (x - 10.0))
        e1 = np.exp(0.75j * x)
        e2 = np.exp(-0.75j * x)
        phi = s1 * e1 + s2 * e2
        ds1 = -3.0 * s1 * np.tanh(3.0 * (x + 10.0))
        ds2 = -r6 * s2 * np.tanh(r6 * (x - 10.0))
        dphi = (ds1 + 0.75j * s1) * e1 + (ds2 - 0.75j * s2) * e2
        return phi, dphi

    def ic(x):
        phi, dphi = phi_and_dx(x)
        return np.stack(
            np.broadcast_arrays(phi.real, phi.imag, dphi.real, dphi.imag), axis=-1
        )

    return ic


def builtin_initial_condition(name: str, form):
    """Resolve a builtin IC name to (ic, exact-or-None) for a given form.

    Each start but "zero" belongs to one registered form: a form gets it
    exactly when msform._registered recognises that form's equations in it,
    and the start reads its constants (a, m, lam) from the registered form.
    """
    registered = msform._registered(form)
    key = (name, registered and registered.name)
    if key == ("cosine", "mixed_kg"):
        return mixed_kg_cosine(registered.param("a"))
    if key == ("breather", "dirac"):
        return dirac_breather(registered.param("m"), registered.param("lam"))
    if key == ("two_soliton", "nls"):
        return nls_two_soliton_ic(), None
    if key == ("plane_wave", "linear_kg"):
        return linear_kg_plane_wave()
    if name == "zero":
        d = form.d
        return (lambda x: np.zeros(np.shape(x) + (d,)) if np.ndim(x) else np.zeros(d)), None
    raise ValueError(f"no builtin initial condition {name!r} for form {form.name!r}")
