"""Brute-force ground truth at small N.

Dense statevector evolution of the periodic spin chain (continuous and
Trotterized, closed system), dense density-matrix evolution of the full
double-commutator master equation (no mode-mixing approximation), and
direct expectation values for every spin observable the reduced pipeline
exposes.  Everything here is deliberately simple and O(2^N); the caps are
desk-scale memory limits, not tunables.

For N = 2 the wraparound bond double-counts the single physical bond;
the Hamiltonian sum is kept literal, and pipeline-equivalence tests start
at N = 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp

from .mode_dynamics import check_lambda
from .protocol import Evolution, QuenchProtocol, schedule_at

__all__ = [
    "DenseState",
    "dense_hamiltonian",
    "evolve_statevector",
    "evolve_lindblad",
    "oracle_observables",
    "zz_correlation_se",
]

MAX_N_STATEVECTOR = 14
DEFAULT_MAX_N_DENSITY = 6


@dataclass
class DenseState:
    """A statevector (ndim 1) or density matrix (ndim 2) with its time."""

    n_sites: int
    t: float
    data: np.ndarray

    @property
    def is_density_matrix(self) -> bool:
        return self.data.ndim == 2

    def validate(self, tol: float = 1e-9):
        if self.is_density_matrix:
            rho = self.data
            if abs(np.trace(rho).real - 1.0) > tol or abs(np.trace(rho).imag) > tol:
                raise ValueError("density matrix trace drifted from 1")
            if np.max(np.abs(rho - rho.conj().T)) > tol:
                raise ValueError("density matrix not Hermitian")
            if np.min(np.linalg.eigvalsh(rho)) < -tol:
                raise ValueError("density matrix not positive semidefinite")
        else:
            if abs(np.linalg.norm(self.data) - 1.0) > 1e-10:
                raise ValueError("statevector norm drifted from 1")


def _check_n(n: int, cap: int = MAX_N_STATEVECTOR):
    if not (2 <= n <= cap):
        raise ValueError(f"N = {n} outside supported range [2, {cap}]")


def _spin_bits(n: int) -> np.ndarray:
    """sigma^z eigenvalues s_i = +/-1 per basis index, shape (2^n, n)."""
    idx = np.arange(2**n)
    bits = (idx[:, None] >> np.arange(n)) & 1
    return 1 - 2 * bits


def _zz_diagonal(n: int) -> np.ndarray:
    s = _spin_bits(n)
    return np.sum(s * np.roll(s, -1, axis=1), axis=1).astype(float)


def _sx_sum(n: int) -> sparse.csr_matrix:
    dim = 2**n
    idx = np.arange(dim)
    rows = np.concatenate([idx ^ (1 << i) for i in range(n)])
    cols = np.tile(idx, n)
    return sparse.csr_matrix(
        (np.ones(n * dim), (rows, cols)), shape=(dim, dim)
    )


def dense_hamiltonian(n: int, j: float, h: float) -> sparse.csr_matrix:
    """H = -J sum sigma^z_i sigma^z_{i+1} - h sum sigma^x_i, periodic."""
    _check_n(n)
    dim = 2**n
    hz = sparse.diags(-j * _zz_diagonal(n), format="csr")
    return (hz - h * _sx_sum(n)).tocsr()


def _plus_state(n: int) -> np.ndarray:
    dim = 2**n
    return np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)


def _apply_rx_layer(psi: np.ndarray, n: int, phi: float) -> np.ndarray:
    """Apply exp(i*phi*sigma^x) to every qubit."""
    c, s = math.cos(phi), 1j * math.sin(phi)
    for i in range(n):
        shaped = psi.reshape(2 ** (n - 1 - i), 2, 2**i)
        a = shaped[:, 0, :].copy()
        b = shaped[:, 1, :]
        shaped[:, 0, :] = c * a + s * b
        shaped[:, 1, :] = s * a + c * b
    return psi


def _trotter_statevector(p: QuenchProtocol, n: int,
                         sample_all: bool = True) -> List[DenseState]:
    zz = _zz_diagonal(n)
    psi = _plus_state(n)
    out = []
    for t_s in p.step_times():
        sched = schedule_at(p, t_s)
        # odd/even Ising sublayers commute; their product is one diagonal phase
        psi = psi * np.exp(1j * p.dt * sched.j * zz)
        psi = _apply_rx_layer(psi, n, p.dt * sched.h)
        if sample_all:
            out.append(DenseState(n_sites=n, t=float(t_s), data=psi.copy()))
    if not sample_all:
        out.append(DenseState(n_sites=n, t=float(p.step_times()[-1]), data=psi))
    return out


def evolve_statevector(
    p: QuenchProtocol,
    n: int,
    sample_times: Optional[Sequence[float]] = None,
    rtol: float = 1e-11,
    atol: float = 1e-13,
) -> List[DenseState]:
    """Closed-system evolution from |+>^N through the quench.

    Continuous protocols integrate the Schrodinger equation with a
    high-order adaptive scheme; Trotter protocols apply exactly the gate
    layers, sampling at every step boundary.
    """
    _check_n(n)
    if n % 2 != 0:
        raise ValueError("quench protocols use even N")
    if p.evolution is Evolution.TROTTER:
        if sample_times is not None:
            raise ValueError("Trotter sample times are fixed at step boundaries")
        return _trotter_statevector(p, n)
    if sample_times is None:
        sample_times = [p.t_end]
    zz = _zz_diagonal(n)
    sx = _sx_sum(n)

    def rhs(t, y):
        psi = y.view(complex)
        sched = schedule_at(p, float(np.clip(t, p.t_start, p.t_end)))
        hpsi = -sched.j * (zz * psi) - sched.h * (sx @ psi)
        return (-1j * hpsi).view(float)

    y0 = _plus_state(n).view(float)
    sol = solve_ivp(rhs, (p.t_start, p.t_end), y0, method="DOP853",
                    t_eval=np.asarray(sample_times, dtype=float),
                    rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"statevector integration failed: {sol.message}")
    return [
        DenseState(n_sites=n, t=float(t), data=sol.y[:, i].copy().view(complex))
        for i, t in enumerate(sol.t)
    ]


def evolve_lindblad(
    p: QuenchProtocol,
    n: int,
    lam: float,
    sample_times: Optional[Sequence[float]] = None,
    max_n: int = DEFAULT_MAX_N_DENSITY,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> List[DenseState]:
    """Full double-commutator master equation, no mode-mixing approximation.

    d/dt rho = -i[H, rho] - lam [H, [H, rho]], from the paramagnetic
    product state.  Continuous protocols only.  The mode pipeline instead
    dephases each (k, -k) pair in its own H_k, which drops the cross terms
    [H_k, [H_k', rho]] that this equation keeps.
    """
    _check_n(n, cap=max_n)
    if p.evolution is not Evolution.CONTINUOUS:
        raise ValueError("Lindblad evolution is defined for continuous protocols")
    lam = check_lambda("lam", lam)
    if sample_times is None:
        sample_times = [p.t_end]
    dim = 2**n
    zz = _zz_diagonal(n)
    sx = _sx_sum(n).toarray()
    psi0 = _plus_state(n)
    rho0 = np.outer(psi0, psi0.conj())

    def hamiltonian(t):
        sched = schedule_at(p, float(np.clip(t, p.t_start, p.t_end)))
        return np.diag(-sched.j * zz) - sched.h * sx

    def rhs(t, y):
        rho = y.view(complex).reshape(dim, dim)
        ham = hamiltonian(t)
        comm = ham @ rho - rho @ ham
        out = -1j * comm
        if lam != 0.0:
            out -= lam * (ham @ comm - comm @ ham)
        return out.ravel().view(float)

    sol = solve_ivp(rhs, (p.t_start, p.t_end), rho0.ravel().view(float),
                    method="DOP853",
                    t_eval=np.asarray(sample_times, dtype=float),
                    rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"Lindblad integration failed: {sol.message}")
    out = []
    for i, t in enumerate(sol.t):
        rho = sol.y[:, i].copy().view(complex).reshape(dim, dim)
        if abs(np.trace(rho).real - 1.0) > 1e-8:
            raise RuntimeError(f"trace drift {np.trace(rho).real - 1.0:g} at t = {t}")
        out.append(DenseState(n_sites=n, t=float(t), data=rho))
    return out


def _probabilities(s: DenseState) -> np.ndarray:
    if s.is_density_matrix:
        return np.real(np.diag(s.data))
    return np.abs(s.data) ** 2


def _offdiag_expectation(s: DenseState, flip_mask: int) -> float:
    """<X-string> for the product of sigma^x over the bits in flip_mask."""
    idx = np.arange(2**s.n_sites)
    if s.is_density_matrix:
        return float(np.real(np.sum(s.data[idx, idx ^ flip_mask])))
    psi = s.data
    return float(np.real(np.sum(psi.conj()[idx ^ flip_mask] * psi)))


def oracle_observables(s: DenseState, j: float, h: float) -> dict:
    """Direct expectation values: site-resolved and site-averaged."""
    n = s.n_sites
    p = _probabilities(s)
    spins = _spin_bits(n)
    sz = p @ spins
    sx = np.array([_offdiag_expectation(s, 1 << i) for i in range(n)])
    zz_bond = np.array([
        p @ (spins[:, i] * spins[:, (i + 1) % n]) for i in range(n)
    ])
    n_def = float(np.mean(1.0 - zz_bond) / 2.0)
    c_zz, c_xx = {}, {}
    for x in range(1, n // 2 + 1):
        zz_x = np.array([
            p @ (spins[:, i] * spins[:, (i + x) % n]) for i in range(n)
        ])
        c_zz[x] = float(np.mean(zz_x - sz * np.roll(sz, -x)))
        xx_x = np.array([
            _offdiag_expectation(s, (1 << i) | (1 << ((i + x) % n)))
            for i in range(n)
        ])
        c_xx[x] = float(np.mean(xx_x - sx * np.roll(sx, -x)))
    energy = float(-j * (p @ _zz_diagonal(n)) - h * np.sum(sx))
    return {
        "m_x": sx, "m_z": sz, "c_zz": c_zz, "c_xx": c_xx,
        "n_def": n_def, "energy": energy,
    }


def zz_correlation_se(s: DenseState, x: int, shots: int) -> float:
    """Shot-noise standard error of the site-averaged ZZ correlator.

    Evaluates the full four-point variance term; only feasible at oracle
    scale.
    """
    n = s.n_sites
    if not (1 <= x <= n // 2):
        raise ValueError(f"separation {x} out of range")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    p = _probabilities(s)
    spins = _spin_bits(n)
    pair = np.stack([spins[:, i] * spins[:, (i + x) % n] for i in range(n)])
    two_pt = pair @ p
    var = 0.0
    for i in range(n):
        for jj in range(n):
            four = float(p @ (pair[i] * pair[jj]))
            var += four - two_pt[i] * two_pt[jj]
    var /= n * n
    return math.sqrt(max(var, 0.0) / shots)
