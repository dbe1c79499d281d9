"""Brute-force ground truth at small N.

Dense statevector evolution of the periodic spin chain (continuous and
Trotterized, closed system), dense density-matrix evolution of the full
double-commutator master equation (no mode-mixing approximation), and
direct expectation values for every spin observable the reduced pipeline
exposes.  Nothing here takes a Jordan-Wigner step, a momentum
decomposition or a Pfaffian: states live on spin configurations.

The continuous evolutions run in the symmetric sector.  H(t) commutes
with the cyclic shift T and with the global flip F = prod sigma^x, and
the start state |+>^N is invariant under both, so psi(t), and rho(t)
under -i[H, rho] - lam [H, [H, rho]], stay in the span of the orbit sums
|O> = sum_{s in O} |s> / sqrt|O| over the orbits O of basis states under
T and F.  The reduction is exact, a change of basis that drops only
amplitudes which are zero at every t, not a truncation.  The sector
holds d = 4, 8, 20, 56, 180, 596 states at N = 4, 6, ..., 14, out of 2^N.
States are returned in the full 2^N basis.  Trotter runs apply the gate
layers to the full vector, as the circuit comparison needs.

The caps are desk-scale memory limits, not tunables.  For N = 2 the
wraparound bond double-counts the single physical bond; the Hamiltonian
sum is kept literal, and pipeline-equivalence tests start at N = 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
from scipy import sparse

from .mode_dynamics import check_lambda, check_sample_times
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


def _check_size(n: int, cap: int):
    if not (2 <= n <= cap):
        raise ValueError(f"N = {n} outside supported range [2, {cap}]")


def _check_n(n: int, cap: int = MAX_N_STATEVECTOR):
    """A quench chain: N in [2, cap] and even, like the antiperiodic
    momentum grid of the pipeline it is compared with."""
    _check_size(n, cap)
    if n % 2 != 0:
        raise ValueError("quench protocols use even N")


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
    _check_size(n, MAX_N_STATEVECTOR)
    dim = 2**n
    hz = sparse.diags(-j * _zz_diagonal(n), format="csr")
    return (hz - h * _sx_sum(n)).tocsr()


def _symmetric_sector(n: int) -> sparse.csr_matrix:
    """Isometry P, shape (2^n, d), onto the shift- and flip-invariant sector.

    Column c is the orbit sum of the c-th orbit of basis states under the
    cyclic shift and the global flip: P[s, orbit(s)] = 1/sqrt|orbit|, with
    orbits ordered by their smallest member.
    """
    idx = np.arange(2**n)
    mask = 2**n - 1
    rot, rep = idx, np.minimum(idx, idx ^ mask)
    for _ in range(n - 1):
        rot = (rot >> 1) | ((rot & 1) << (n - 1))
        rep = np.minimum(rep, np.minimum(rot, rot ^ mask))
    _, orbit, size = np.unique(rep, return_inverse=True, return_counts=True)
    return sparse.csr_matrix((1.0 / np.sqrt(size[orbit]), (idx, orbit)),
                             shape=(idx.size, size.size))


def _sector_terms(n: int):
    """P with the two terms of H in the sector: the ZZ sum as a vector,
    since P^T diag(zz) P is diagonal because the orbits are disjoint, and
    the transverse-field sum P^T sx P as a sparse matrix."""
    proj = _symmetric_sector(n)
    zz = (proj.T @ sparse.diags(_zz_diagonal(n)) @ proj).diagonal()
    sx = (proj.T @ _sx_sum(n) @ proj).tocsr()
    return proj, zz, sx


def _integrate(rhs, y0: np.ndarray, p: QuenchProtocol, times: np.ndarray,
               rtol: float, atol: float, what: str) -> np.ndarray:
    """DOP853 from p.t_start to the last sample time; the state at each
    sample time, shape (len(times), y0.size)."""
    if times[-1] == p.t_start:
        # solve_ivp returns no state on a zero-length span
        return y0[None, :]
    from scipy.integrate import solve_ivp  # only the reference paths need it

    sol = solve_ivp(rhs, (p.t_start, times[-1]), y0, method="DOP853",
                    t_eval=times, rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"{what} integration failed: {sol.message}")
    # contiguous rows, so that each can be viewed as complex
    return sol.y.T.copy()


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


def _trotter_statevector(p: QuenchProtocol, n: int) -> List[DenseState]:
    zz = _zz_diagonal(n)
    psi = _plus_state(n)
    out = []
    for t_s in p.step_times():
        sched = schedule_at(p, t_s)
        # odd/even Ising sublayers commute; their product is one diagonal phase
        psi = psi * np.exp(1j * p.dt * sched.j * zz)
        psi = _apply_rx_layer(psi, n, p.dt * sched.h)
        out.append(DenseState(n_sites=n, t=float(t_s), data=psi.copy()))
    return out


def evolve_statevector(
    p: QuenchProtocol,
    n: int,
    sample_times: Optional[Sequence[float]] = None,
    rtol: float = 1e-11,
    atol: float = 1e-13,
) -> List[DenseState]:
    """Closed-system evolution from |+>^N through the quench.

    Continuous protocols integrate the Schrodinger equation with DOP853
    on the d amplitudes of the symmetric sector (module docstring), from
    t_start to the last sample time.  There the ZZ term is diagonal and
    the transverse field is a sparse d x d matrix.  Sample times default to t_end and must be strictly
    increasing inside the protocol interval.  Trotter protocols apply
    exactly the gate layers to the full 2^N vector, sampling at every
    step boundary.
    """
    _check_n(n)
    if p.evolution is Evolution.TROTTER:
        if sample_times is not None:
            raise ValueError("Trotter sample times are fixed at step boundaries")
        return _trotter_statevector(p, n)
    times = check_sample_times(
        p, [p.t_end] if sample_times is None else sample_times)
    proj, zz, sx = _sector_terms(n)

    def rhs(t, y):
        c = y.view(complex)
        sched = schedule_at(p, float(np.clip(t, p.t_start, p.t_end)))
        hc = -sched.j * (zz * c) - sched.h * (sx @ c)
        return (-1j * hc).view(float)

    y0 = (proj.T @ _plus_state(n)).view(float)
    ys = _integrate(rhs, y0, p, times, rtol, atol, "statevector")
    return [DenseState(n_sites=n, t=float(t), data=proj @ y.view(complex))
            for t, y in zip(times, ys)]


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
    product state.  Continuous protocols only.  DOP853 runs on the d x d
    block r of rho in the symmetric sector (module docstring), from
    t_start to the last sample time, and each sample is returned as
    rho = P r P^T in the full basis.  Sample times default to t_end and
    must be strictly increasing inside the protocol interval.  The mode
    pipeline instead dephases each (k, -k) pair in its own H_k, which
    drops the cross terms [H_k, [H_k', rho]] that this equation keeps.
    """
    _check_n(n, cap=max_n)
    if p.evolution is not Evolution.CONTINUOUS:
        raise ValueError("Lindblad evolution is defined for continuous protocols")
    lam = check_lambda("lam", lam)
    times = check_sample_times(
        p, [p.t_end] if sample_times is None else sample_times)
    proj, zz, sx = _sector_terms(n)
    proj, zz, sx = proj.toarray(), np.diag(zz), sx.toarray()
    dim = zz.shape[0]
    c0 = proj.T @ _plus_state(n)
    rho0 = np.outer(c0, c0.conj())

    def rhs(t, y):
        rho = y.view(complex).reshape(dim, dim)
        sched = schedule_at(p, float(np.clip(t, p.t_start, p.t_end)))
        ham = -sched.j * zz - sched.h * sx
        comm = ham @ rho - rho @ ham
        out = -1j * comm
        if lam != 0.0:
            out -= lam * (ham @ comm - comm @ ham)
        return out.ravel().view(float)

    ys = _integrate(rhs, rho0.ravel().view(float), p, times, rtol, atol,
                    "Lindblad")
    out = []
    for t, y in zip(times, ys):
        rho = proj @ y.view(complex).reshape(dim, dim) @ proj.T
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
