import numpy as np
import pytest


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
