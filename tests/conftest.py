import numpy as np
import pytest

from kzchain.mode_dynamics import ModeEnsemble, run_quench
from kzchain.protocol import (Evolution, QuenchProtocol, Variant,
                              momentum_grid, pseudo_field_components)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260825)


@pytest.fixture(scope="session")
def small_quench_ensemble():
    """N = 8 continuous quench to the critical point, sampled at t = 0."""
    p = QuenchProtocol(tau_q=2.0)
    return run_quench(p, 8, lam=0.0, sample_times=[0.0])[0]


@pytest.fixture(scope="session")
def small_full_quench():
    """N = 8 full quench through the critical point, end-of-quench sample."""
    p = QuenchProtocol(tau_q=2.0, variant=Variant.FULL_QUENCH)
    return p, run_quench(p, 8, lam=0.0, sample_times=[0.0, 2.0])


@pytest.fixture(scope="session")
def small_trotter_protocol():
    return QuenchProtocol(tau_q=2.0, evolution=Evolution.TROTTER,
                          dt=0.25, steps=8)


def ground_states(modes, j, h):
    """Ground-state Bloch vectors n_k = h_k / |h_k| of the momenta for the
    static couplings (j, h), shape (n_modes, 3)."""
    hy, hz = pseudo_field_components(np.asarray(modes, dtype=float), j, h)
    norm = np.sqrt(hy * hy + hz * hz)
    return np.column_stack([np.zeros_like(norm), hy / norm, hz / norm])


def ground_state_ensemble(n, j, h, t=0.0):
    """Every mode of the N = n grid in its ground state for (j, h)."""
    grid = momentum_grid(n)
    return ModeEnsemble(grid=grid, states=ground_states(grid.modes, j, h),
                        t=t, lam=0.0, j=j, h=h)


def random_skew(rng, dim):
    m = rng.standard_normal((dim, dim))
    return m - m.T
