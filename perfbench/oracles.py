"""Checks computed apart from the program's own algorithms.

- Step 1: a maximum bipartite matching by augmenting paths.
- Step 2: an exact-rational negative-cycle test (Bellman-Ford on Fraction
  weights) on the propagation graph, and a parametric search that either
  finds a feasible exponent or proves that none exists.
- Step 3: dense eigenvalues of the full-step matrix M2 M1, with the k = 0
  subspace projected out for the "nozero" criterion; the characteristic
  polynomial of M2 M1 against the product of those of its symbols; and an
  exact test that the pivot K/dt - Peff/4 is singular for every dt.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# An eigenvalue in a Jordan block of size m moves by about eps**(1/m) under
# rounding: 1e-8 for the m = 2 blocks of the registered forms, 4e-5 seen on
# generated ones.  Moduli within the band of 1 cannot tell stable from
# unstable, in the program or here.
DENSE_BAND = 1e-6


# ---------------------------------------------------------------------------
# Step 1
# ---------------------------------------------------------------------------


def perfect_matching(pattern: np.ndarray) -> bool:
    """True when the equation x unknown pattern has a perfect matching."""
    n = pattern.shape[0]
    owner = [-1] * n  # unknown -> equation

    def augment(eq: int, seen: list[bool]) -> bool:
        for un in range(n):
            if pattern[eq, un] and not seen[un]:
                seen[un] = True
                if owner[un] < 0 or augment(owner[un], seen):
                    owner[un] = eq
                    return True
        return False

    return all(augment(eq, [False] * n) for eq in range(n))


def form_pattern(form_json: dict) -> np.ndarray:
    """Unknowns appearing in each equation: K, P or a polynomial term."""
    pattern = (np.array(form_json["K"]) != 0) | (np.array(form_json["P"]) != 0)
    for term in form_json.get("terms", []):
        for j, e in enumerate(term["exponents"]):
            if e >= 1:
                pattern[term["row"] - 1, j] = True
    return pattern


def linear_pattern(form_json: dict) -> np.ndarray:
    """Pattern of the linearization about 0, where every term vanishes."""
    return (np.array(form_json["K"]) != 0) | (np.array(form_json["P"]) != 0)


# ---------------------------------------------------------------------------
# Step 2
# ---------------------------------------------------------------------------


def negative_cycle(nodes, edges, s: Fraction):
    """A cycle of negative weight a*s + b, as its summed (a, b), or None.

    ``edges`` holds (src, dst, a, b).  Bellman-Ford from a virtual source
    joined to every node by a zero edge, in exact arithmetic.
    """
    index = {name: i for i, name in enumerate(nodes)}
    n = len(nodes)
    dist = [Fraction(0)] * n
    pred: list[int | None] = [None] * n
    last = None
    for _ in range(n + 1):
        last = None
        for k, (src, dst, a, b) in enumerate(edges):
            u, v = index[src], index[dst]
            w = dist[u] + a * s + b
            if w < dist[v]:
                dist[v] = w
                pred[v] = k
                last = v
        if last is None:
            return None
    # walk back n steps to land on the cycle, then collect it
    v = last
    for _ in range(n):
        v = index[edges[pred[v]][0]]
    start, a_sum, b_sum = v, 0, 0
    while True:
        src, _, a, b = edges[pred[v]]
        a_sum, b_sum = a_sum + a, b_sum + b
        v = index[src]
        if v == start:
            return a_sum, b_sum


def feasible_exponent(nodes, edges, limit: int = 200):
    """Some s >= 0 with no negative cycle, or None with a proof of emptiness.

    Each negative cycle found bounds s from below (a > 0) or above (a < 0);
    moving s to the new bound visits each cycle weight at most once, so the
    search ends, with a feasible s or with crossed bounds.
    """
    lower, upper = Fraction(0), None
    s = Fraction(1)
    for _ in range(limit):
        cyc = negative_cycle(nodes, edges, s)
        if cyc is None:
            return s
        a, b = cyc
        if a <= 0 and b <= 0:
            return None  # negative for every s > 0
        if a > 0:
            lower = max(lower, Fraction(-b, a))
            s = lower
        else:
            bound = Fraction(b, -a)
            upper = bound if upper is None else min(upper, bound)
            s = upper
        if upper is not None and (upper < lower or upper <= 0):
            return None
    raise RuntimeError("parametric negative-cycle search did not settle")


def check_step2(graph, verdict) -> list[str]:
    """Compare a Step-2 verdict with exact negative-cycle tests on its graph."""
    nodes = graph.nodes
    edges = [(e.src, e.dst, e.index.a, e.index.b) for e in graph.edges]
    eps = Fraction(1, 10**6)
    problems = []
    if verdict.unconditionally_unstable:
        s = feasible_exponent(nodes, edges)
        if s is not None:
            problems.append(f"called unconditionally unstable, but s = {s} has no negative cycle")
        return problems
    lo, hi = verdict.s_lo, verdict.s_hi
    if negative_cycle(nodes, edges, lo) is not None:
        problems.append(f"negative cycle at s_lo = {lo}")
    if lo > 0 and negative_cycle(nodes, edges, lo - eps) is None:
        problems.append(f"no negative cycle just below s_lo = {lo}")
    top = hi if hi is not None else lo + 10**6
    if negative_cycle(nodes, edges, top) is not None:
        problems.append(f"negative cycle at the upper end s = {top}")
    if hi is not None and negative_cycle(nodes, edges, hi + eps) is None:
        problems.append(f"no negative cycle just above s_hi = {hi}")
    return problems


# ---------------------------------------------------------------------------
# Step 3
# ---------------------------------------------------------------------------


def det_exact(rows) -> Fraction:
    """Determinant by fraction-exact Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                for k in range(c, n):
                    m[r][k] -= f * m[c][k]
    return det


def pivot_det(K, P, inv_dt: Fraction) -> Fraction:
    """det(K/dt - P/4) in exact arithmetic (float entries are exact binary fractions)."""
    d = len(K)
    return det_exact(
        [[inv_dt * Fraction(K[i][j]) - Fraction(P[i][j]) / 4 for j in range(d)] for i in range(d)]
    )


def pivot_singular_for_every_dt(K, P) -> bool:
    """det(x K - P/4) is a polynomial of degree <= d in x = 1/dt; it vanishes
    identically when it vanishes at d + 1 distinct points."""
    return all(pivot_det(K, P, Fraction(x)) == 0 for x in range(1, len(K) + 2))


def zero_sum_basis(N: int, m: int) -> np.ndarray:
    """Orthonormal basis of the states whose N cell blocks sum to zero (k != 0)."""
    q, _ = np.linalg.qr(np.eye(N) - 1.0 / N)
    return np.kron(q[:, : N - 1], np.eye(m))


def dense_modulus(M: np.ndarray, N: int, kind: str) -> float:
    """Largest |eigenvalue| of the dense full-step matrix over 2N slots."""
    if kind == "nozero":
        W = zero_sum_basis(N, M.shape[0] // N)
        M = W.T @ M @ W
    return float(np.abs(np.linalg.eigvals(M)).max())


def dense_stable(modulus: float, kind: str, dt: float, theta: float = 1.1,
                 band: float = DENSE_BAND) -> bool | None:
    """Verdict from a dense modulus; None inside the unresolvable band."""
    if kind == "growth":
        return math.log(modulus) / dt <= math.log(theta)
    if modulus <= 1.0 + 1e-12:
        return True
    if modulus > 1.0 + band:
        return False
    return None


def charpoly_mismatch(M: np.ndarray, family) -> float:
    """Largest difference of log det(lam - M) and sum_k log det(lam - Lambda_k)
    at three points lam of a circle, for the symbol family of M.

    The block-circulant M is similar to the block diagonal of its symbols, so
    the two characteristic polynomials agree; unlike eigenvalues, their
    values do not amplify rounding at defective eigenvalues.  The circle lies
    at 1.5 times the spectral radius, where every factor is well away from 0.
    The result is divided by ||M|| / radius, the factor by which rounding in
    a matrix far from normal grows in the determinant.
    """
    eye_m, eye_s = np.eye(M.shape[0]), np.eye(family.block_size)
    radius = 1.5 * max(1.0, float(np.abs(np.linalg.eigvals(M)).max()))
    worst = 0.0
    for angle in (0.1, 0.37, 0.71):
        lam = radius * np.exp(2j * math.pi * angle)
        sign, logdet = np.linalg.slogdet(lam * eye_m - M)
        total_sign, total_log = 1.0 + 0j, 0.0
        for k in range(family.N):
            s, l = np.linalg.slogdet(lam * eye_s - family.symbol(k))
            total_sign, total_log = total_sign * s, total_log + l
        worst = max(worst, abs(logdet - total_log), abs(sign - total_sign))
    return worst / max(1.0, float(np.linalg.norm(M)) / radius)
