"""Seeded generator of multi-symplectic forms in the JSON schema of
``msform.load_form_json``.

A form of dimension d gets:
- K, L skew-symmetric: each pair (i < j) nonzero with probability
  K_DENSITY / L_DENSITY, value drawn from {+-1, +-1/2};
- P symmetric: each diagonal entry nonzero with probability P_DIAG (value in
  {+-1, +-2}), each off-diagonal pair with probability P_OFF (value +-1);
- with probability NONLINEAR, one or two cubic monomials c z^e of S, written
  as their exact gradient terms (row i gets c e_i z^(e - e_i)), so grad S is
  exact by construction.

All values are binary fractions, so every matrix entry is exact in floating
point and in ``fractions.Fraction``.
"""

from __future__ import annotations

import numpy as np

K_DENSITY = 0.35
L_DENSITY = 0.3
P_DIAG = 0.5
P_OFF = 0.12
NONLINEAR = 0.5


def _skew(rng, d: int, density: float) -> np.ndarray:
    M = np.zeros((d, d))
    for i in range(d):
        for j in range(i + 1, d):
            if rng.random() < density:
                v = float(rng.choice([-1.0, 1.0, -0.5, 0.5]))
                M[i, j], M[j, i] = v, -v
    return M


def random_form(rng, d: int, name: str) -> dict:
    K = _skew(rng, d, K_DENSITY)
    L = _skew(rng, d, L_DENSITY)
    P = np.zeros((d, d))
    for i in range(d):
        if rng.random() < P_DIAG:
            P[i, i] = float(rng.choice([-2.0, -1.0, 1.0, 2.0]))
        for j in range(i + 1, d):
            if rng.random() < P_OFF:
                P[i, j] = P[j, i] = float(rng.choice([-1.0, 1.0]))
    terms = []
    if rng.random() < NONLINEAR:
        for _ in range(int(rng.integers(1, 3))):
            e = np.bincount(rng.integers(0, d, size=3), minlength=d)
            c = float(rng.choice([-1.0, 1.0]))
            for i in np.flatnonzero(e):
                de = e.copy()
                de[i] -= 1
                terms.append({"row": int(i) + 1, "coeff": c * int(e[i]), "exponents": de.tolist()})
    return {
        "name": name,
        "d": d,
        "names": [f"z{i}" for i in range(d)],
        "K": K.tolist(),
        "L": L.tolist(),
        "P": P.tolist(),
        "terms": terms,
    }
