import numpy as np
import pytest

from diamondstab.msform import LinearizedForm, MultiSymplecticForm, PolynomialTerm


def _stage_matrix(lin, F, dt, dx):
    """Q = I_{r^2} (x) Peff - I_r (x) F (x) Ktil - F (x) I_r (x) Ltil, built
    apart from ``build_blocks_rk`` (which raises where Q is singular)."""
    r = F.shape[0]
    Ktil = lin.K / dt - lin.L / dx
    Ltil = lin.K / dt + lin.L / dx
    Ir = np.eye(r)
    return np.kron(np.eye(r * r), lin.Peff) - np.kron(Ir, np.kron(F, Ktil)) - np.kron(F, np.kron(Ir, Ltil))


@pytest.fixture
def stage_matrix():
    """The collocation stage matrix Q of (lin, F, dt, dx)."""
    return _stage_matrix


def _random_term_form(rng, d, skew=False):
    """A form with random P and polynomial terms: exponents 0..3 over a few
    variables each (the rest zero), coefficients from a short list so that
    terms of one row share them; grad S need not be exact here.  K and L
    are zero, or with ``skew`` random sparse skew-symmetric matrices."""
    terms = []
    for _ in range(rng.integers(1, 16)):
        exps = np.zeros(d, dtype=int)
        for j in rng.choice(d, size=rng.integers(1, min(d, 3) + 1), replace=False):
            exps[j] = rng.integers(1, 4)
        if exps.sum() < 2:
            exps[np.flatnonzero(exps)[0]] = 2
        coeff = float(rng.choice([-2.0, -1.0, 0.5, 1.0, 3.0]) if rng.random() < 0.7 else rng.uniform(-3, 3))
        terms.append(PolynomialTerm(int(rng.integers(1, d + 1)), coeff, tuple(int(e) for e in exps)))
    P = np.where(rng.random((d, d)) < 0.4, rng.choice([-1.0, 1.0, 0.25, 2.0], size=(d, d)), 0.0)
    K, L = np.zeros((d, d)), np.zeros((d, d))
    if skew:
        K, L = (np.triu(np.where(rng.random((d, d)) < 0.5, rng.choice([-1.0, 1.0, 0.5, 2.5], size=(d, d)), 0.0), 1)
                for _ in range(2))
        K, L = K - K.T, L - L.T
    return MultiSymplecticForm("random", tuple(f"z{i}" for i in range(d)), K, L, P + P.T, tuple(terms))


class _TermsOracle:
    """grad S, its Jacobian and S of a form from P and its polynomial terms,
    one term at a time with ``np.prod(z ** e)``, sharing no code with the
    library's generated kernels (msform._KernelSource).  Points are (..., d)."""

    @staticmethod
    def grad(form, z):
        z = np.asarray(z, dtype=float)
        grad = z @ form.P.T
        for term in form.terms:
            grad[..., term.row - 1] += term.coeff * np.prod(z ** np.array(term.exponents), axis=-1)
        return grad

    @staticmethod
    def jac(form, z):
        # d/dz_j of c z^e is c e_j z^(e - e_j)
        z = np.asarray(z, dtype=float)
        jac = np.broadcast_to(form.P, z.shape[:-1] + form.P.shape).copy()
        for term in form.terms:
            e = np.array(term.exponents)
            for j in np.flatnonzero(e):
                lowered = e - (np.arange(form.d) == j)
                jac[..., term.row - 1, j] += term.coeff * e[j] * np.prod(z**lowered, axis=-1)
        return jac

    @staticmethod
    def S(form, z):
        # z.Pz / 2 + sum_t c_t z_{row_t} z^{e_t} / (|e_t| + 1)
        z = np.asarray(z, dtype=float)
        S = 0.5 * np.einsum("...i,...i->...", z, z @ form.P.T)
        for term in form.terms:
            S = S + term.coeff / (term.degree + 1) * z[..., term.row - 1] * np.prod(z ** np.array(term.exponents), axis=-1)
        return S


@pytest.fixture(scope="session")
def terms_oracle():
    """grad S, its Jacobian and S (``.grad``, ``.jac``, ``.S``) evaluated
    term by term, apart from the library's evaluators."""
    return _TermsOracle


def _magnitude_form(form):
    # every summand of grad S taken positive: bounds the rounding of any order
    terms = tuple(PolynomialTerm(t.row, abs(t.coeff), t.exponents) for t in form.terms)
    return MultiSymplecticForm("abs", form.names, np.abs(form.K), np.abs(form.L), np.abs(form.P), terms)


def _signed_permutation(lin, perm, signs):
    """z = T w with T a signed permutation: K, L and Peff become T^T K T,
    T^T L T and T^T Peff T, a relabelling of the unknowns and equations."""
    T = np.eye(lin.d)[:, perm] * signs
    return type(lin)(
        name=lin.name,
        names=tuple(lin.names[j] for j in perm),
        K=T.T @ lin.K @ T,
        L=T.T @ lin.L @ T,
        Peff=T.T @ lin.Peff @ T,
        z_ref=T.T @ lin.z_ref,
    )


def _random_skew(rng, d, density):
    M = np.zeros((d, d))
    for i in range(d):
        for j in range(i + 1, d):
            if rng.random() < density:
                M[i, j] = float(rng.choice([-1.0, 1.0, -0.5, 0.5]))
                M[j, i] = -M[i, j]
    return M


def _random_linearization(rng, d):
    """K, L and P drawn as perfbench/formgen.py draws them (a cubic S adds
    nothing to the linearization at zero)."""
    K, L = _random_skew(rng, d, 0.35), _random_skew(rng, d, 0.3)
    P = np.zeros((d, d))
    for i in range(d):
        if rng.random() < 0.5:
            P[i, i] = float(rng.choice([-2.0, -1.0, 1.0, 2.0]))
        for j in range(i + 1, d):
            if rng.random() < 0.12:
                P[i, j] = P[j, i] = float(rng.choice([-1.0, 1.0]))
    return LinearizedForm("random", tuple(f"z{i}" for i in range(d)), K, L, P, np.zeros(d))


@pytest.fixture
def random_linearization():
    """A linearization at zero of dimension d, drawn from rng as
    perfbench/formgen.py draws a form."""
    return _random_linearization


@pytest.fixture
def signed_permutation():
    """The linearization relabelled by a signed permutation (perm, signs)."""
    return _signed_permutation


@pytest.fixture
def random_term_form():
    """A form of dimension d with random P and terms, drawn from rng."""
    return _random_term_form


@pytest.fixture
def magnitude_form():
    """The form with every coefficient taken positive."""
    return _magnitude_form
