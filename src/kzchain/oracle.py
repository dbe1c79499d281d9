"""Brute-force ground truth at small N.

Dense statevector evolution of the periodic spin chain (continuous and
Trotterized, closed system), dense density-matrix evolution of the full
double-commutator master equation (no mode-mixing approximation), and
direct expectation values for every spin observable the reduced pipeline
exposes.  Nothing here takes a Jordan-Wigner step, a momentum
decomposition or a Pfaffian: states live on spin configurations.

The continuous evolutions run in the symmetric sector.  H(t) commutes
with the cyclic shift T, the reflection R (site i to N - 1 - i) and the
global flip F = prod sigma^x, and the start state |+>^N is invariant
under all three, so psi(t), and rho(t) under -i[H, rho] - lam [H, [H,
rho]], stay in the span of the orbit sums |O> = sum_{s in O} |s> /
sqrt|O| over the orbits O of basis states under the group T, R and F
generate.  The reduction is exact, a change of basis that drops only
amplitudes which are zero at every t, not a truncation.  The sector
holds d = 4, 8, 18, 44, 122, 362 states at N = 4, 6, ..., 14, out of
2^N.  States are returned in the full 2^N basis.  Trotter runs apply the
gate layers to the full vector, as the circuit comparison needs.  The
sector operators are read off the smallest member of each orbit, and
`oracle_observables` reads every moment off two fast Walsh-Hadamard
transforms, of the probabilities in the computational and in the
Hadamard basis, not one sum per Pauli string: O(2^N) memory for a
statevector.

Both continuous evolutions step `_dop853`, an in-repo DOP853 whose
states equal `solve_ivp(method="DOP853")`'s bit for bit.  The sector
projector is two arrays, the orbit label and the weight of each basis
state; the sector terms are a ZZ vector and the entries of the
transverse-field matrix, which the statevector run multiplies by as rows
padded to at most N entries: one gather and one einsum per right-hand
side, about 21 us at N = 14 on a 2-core Xeon with one BLAS thread, as
fast as the sparse-matrix product it replaced on the cyclic sector's
d = 596.  So this module, and every oracle run, needs numpy only.

The caps are desk-scale memory limits, not tunables.  For N = 2 the
wraparound bond double-counts the single physical bond; the Hamiltonian
sum is kept literal, and pipeline-equivalence tests start at N = 4.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .mode_dynamics import check_nonnegative, check_sample_times
from .protocol import Evolution, QuenchProtocol, schedule_at

__all__ = [
    "DenseState",
    "evolve_statevector",
    "evolve_lindblad",
    "oracle_observables",
]

MAX_N_STATEVECTOR = 14
# an 18 x 18 sector block at N = 8, where a tau_q = 2 quench at lam = 1
# takes about 0.1 s
MAX_N_DENSITY = 8


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
        """Raise ValueError unless the norm (trace) is 1 to within tol, and
        a density matrix is also Hermitian and positive to within tol."""
        if self.is_density_matrix:
            rho = self.data
            if abs(np.trace(rho).real - 1.0) > tol or abs(np.trace(rho).imag) > tol:
                raise ValueError("density matrix trace drifted from 1")
            if np.max(np.abs(rho - rho.conj().T)) > tol:
                raise ValueError("density matrix not Hermitian")
            if np.min(np.linalg.eigvalsh(rho)) < -tol:
                raise ValueError("density matrix not positive semidefinite")
        else:
            if abs(np.linalg.norm(self.data) - 1.0) > tol:
                raise ValueError("statevector norm drifted from 1")


def _check_n(n: int, cap: int = MAX_N_STATEVECTOR):
    """A quench chain: N in [2, cap] and even, like the antiperiodic
    momentum grid of the pipeline it is compared with."""
    if not (2 <= n <= cap):
        raise ValueError(f"N = {n} outside supported range [2, {cap}]")
    if n % 2 != 0:
        raise ValueError("quench protocols use even N")


def _shift(states: np.ndarray, n: int) -> np.ndarray:
    """Basis indices cyclically shifted by one site: bit i + 1 moves to i."""
    return (states >> 1) | ((states & 1) << (n - 1))


def _reverse(states: np.ndarray, n: int) -> np.ndarray:
    """Basis indices with the chain reflected: bit i moves to n - 1 - i."""
    out = np.zeros_like(states)
    for i in range(n):
        out |= ((states >> i) & 1) << (n - 1 - i)
    return out


def _zz_diagonal(states: np.ndarray, n: int) -> np.ndarray:
    """sum_i s_i s_{i+1} per basis index: n bonds minus twice the domain
    walls, the bits where a state differs from its shift."""
    walls = states ^ _shift(states, n)
    count = np.zeros_like(walls)
    for i in range(n):
        count += (walls >> i) & 1
    return n - 2.0 * count


def _symmetric_sector(n: int):
    """The isometry P, shape (2^n, d), onto the sector invariant under the
    shift, the reflection and the flip, as two arrays over the basis: the
    orbit label of each basis state and its weight 1/sqrt|orbit|; and the
    smallest member of each orbit, in orbit order.

    Column c of P is the orbit sum of the c-th orbit of basis states under
    the group those three generate, with orbits ordered by their smallest
    member: P[s, orbit[s]] = weight[s] is the only entry of row s.  So
    P c is weight * c[orbit], and P^T v sums weight * v over each orbit.
    """
    idx = np.arange(2**n)
    mask = 2**n - 1
    rep = idx
    for rot in (idx, _reverse(idx, n)):
        for _ in range(n):
            rep = np.minimum(rep, np.minimum(rot, rot ^ mask))
            rot = _shift(rot, n)
    reps, orbit, size = np.unique(rep, return_inverse=True, return_counts=True)
    return orbit, 1.0 / np.sqrt(size[orbit]), reps


@functools.lru_cache(maxsize=4)
def _sector_terms(n: int):
    """P as (orbit, weight) with the two terms of H in the sector, built
    from orbit labels, read-only and shared by every run at this N.

    The ZZ sum is a vector: P^T diag(zz) P is diagonal because the orbits
    are disjoint, and zz is constant on each orbit.  The transverse-field
    sum P^T sx P is a sparse d x d matrix: its entry (a, b) sums
    P[s, a] P[s ^ 2^i, b] = 1/sqrt(|O_a||O_b|) over every state s in orbit
    a and site i with s ^ 2^i in orbit b, so it is the number of such
    pairs over sqrt(|O_a||O_b|).  The shift, reflection and flip map the
    n flips of s onto the n flips of their image, so every member of O_a
    has as many flips into O_b as its smallest member r_a: the count is
    |O_a| times that of r_a, read off the n d pairs (a, orbit(r_a ^ 2^i)).
    zz is read off r_a too.  The nonzero entries are returned as (rows,
    cols, values), rows ascending and cols ascending within a row; each
    caller builds the matrix it multiplies with.
    """
    orbit, weight, reps = _symmetric_sector(n)
    size = np.bincount(orbit)
    d = size.size
    zz = _zz_diagonal(reps, n)
    flipped = orbit[reps ^ (1 << np.arange(n))[:, None]]
    key, count = np.unique(np.arange(d) * d + flipped, return_counts=True)
    a, b = np.divmod(key, d)
    vals = count * size[a] / np.sqrt(size[a] * size[b])
    for arr in (orbit, weight, zz, a, b, vals):
        arr.flags.writeable = False
    return orbit, weight, zz, (a, b, vals)


def _integrate(rhs, y0: np.ndarray, p: QuenchProtocol, times: np.ndarray,
               rtol: float, atol: float, what: str) -> np.ndarray:
    """DOP853 (the `_dop853` port) from p.t_start to the last sample
    time; the state at each sample time, shape (len(times), y0.size), in
    contiguous rows that the evolutions view as complex.  A step below
    ten float spacings of t raises a RuntimeError naming `what`."""
    if times[-1] == p.t_start:
        # the port integrates over a span of positive length only
        return y0[None, :]
    # imported here: a process that imports the oracle only for its
    # Trotter or observables code need not compile the stepper
    from ._dop853 import StepSizeError, dop853

    try:
        return dop853(rhs, p.t_start, y0, times, rtol, atol)
    except StepSizeError as err:
        raise RuntimeError(f"{what} integration failed: {err}") from None


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
    zz = _zz_diagonal(np.arange(2**n), n)
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

    Continuous protocols integrate the Schrodinger equation with the
    `_dop853` port on the d amplitudes c of the symmetric sector (module
    docstring), from t_start to the last sample time; the solver state is
    the float view of c.  There the ZZ term is diagonal and the
    transverse field is a sparse d x d matrix, so each right-hand side is
    one gather product over its padded rows plus the diagonal term.
    Sample times default to t_end and must be strictly increasing inside
    the protocol interval.  Trotter protocols apply exactly the gate
    layers to the full 2^N vector, sampling at every step boundary.
    """
    _check_n(n)
    if p.evolution is Evolution.TROTTER:
        if sample_times is not None:
            raise ValueError("Trotter sample times are fixed at step boundaries")
        return _trotter_statevector(p, n)
    times = check_sample_times(
        p, [p.t_end] if sample_times is None else sample_times)
    orbit, weight, zz, (rows, cols, sx_vals) = _sector_terms(n)
    d = zz.size
    # the transverse field as padded rows: row a holds its entries in
    # columns 0..count-1 and zeros after, at most n entries a row
    count = np.bincount(rows, minlength=d)
    starts = np.cumsum(count) - count
    slot = np.arange(rows.size) - starts[rows]
    sx_cols = np.zeros((d, count.max()), dtype=np.intp)
    sx_cols[rows, slot] = cols
    i_sx = np.zeros((d, count.max()), dtype=complex)
    i_sx[rows, slot] = 1j * sx_vals
    i_zz = 1j * zz
    t_start, t_end, tau = p.t_start, p.t_end, p.tau_q

    def rhs(t, y):
        # -iHc for H = -J zz - h sx, with J and h as schedule_at gives them
        t = min(max(t, t_start), t_end)
        c = y.view(complex)
        out = np.einsum("dw,dw->d", c[sx_cols], i_sx)
        out *= 1.0 - t / tau
        out += (1.0 + t / tau) * i_zz * c
        return out.view(float)

    # P^T |+> is real; bincount sums each orbit in ascending basis order
    c0 = np.bincount(orbit, weights=weight * _plus_state(n).real)
    ys = _integrate(rhs, c0.astype(complex).view(float), p, times,
                    rtol, atol, "statevector")
    return [DenseState(n_sites=n, t=float(t),
                       data=weight * y.view(complex)[orbit])
            for t, y in zip(times, ys)]


def evolve_lindblad(
    p: QuenchProtocol,
    n: int,
    lam: float,
    sample_times: Optional[Sequence[float]] = None,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> List[DenseState]:
    """Full double-commutator master equation, no mode-mixing approximation.

    d/dt rho = -i[H, rho] - lam [H, [H, rho]], from the paramagnetic
    product state.  Continuous protocols only.  The `_dop853` port runs on
    the d x d block r of rho in the symmetric sector (module docstring),
    from t_start to the last sample time, and each sample is returned as
    rho = P r P^T in the full basis.  H is real and r Hermitian, so each
    right-hand side takes two real d x d products, H r and H [H, r].
    Sample times default to t_end and must be strictly increasing inside
    the protocol interval.  The mode pipeline instead dephases each (k, -k)
    pair in its own H_k, without the cross terms [H_k, [H_k', rho]]; these
    leave m_x, n_def and the energy unchanged, and its C_zz(x >= 2) and
    C_xx differ mostly as the Wick closure of the per-mode channel.
    """
    _check_n(n, cap=MAX_N_DENSITY)
    if p.evolution is not Evolution.CONTINUOUS:
        raise ValueError("Lindblad evolution is defined for continuous protocols")
    lam = check_nonnegative("lam", lam)
    times = check_sample_times(
        p, [p.t_end] if sample_times is None else sample_times)
    orbit, weight, zz, (rows, cols, sx_vals) = _sector_terms(n)
    dim = zz.size
    proj = np.zeros((orbit.size, dim))
    proj[np.arange(orbit.size), orbit] = weight
    zz, sx = np.diag(zz), np.zeros((dim, dim))
    sx[rows, cols] = sx_vals
    c0 = proj.T @ _plus_state(n)
    rho0 = np.outer(c0, c0.conj())
    t_start, t_end, tau = p.t_start, p.t_end, p.tau_q

    def rhs(t, y):
        # J and h as schedule_at gives them
        t = min(max(t, t_start), t_end)
        ham = -(1.0 + t / tau) * zz - (1.0 - t / tau) * sx
        # H is real: H rho acts on the rows of rho's float view.  rho is
        # Hermitian, so rho H = (H rho)^H, and the commutator C is
        # anti-Hermitian, so [H, C] = HC + (HC)^H.
        h_rho = (ham @ y.reshape(dim, 2 * dim)).view(complex)
        comm = h_rho - h_rho.conj().T
        out = comm * -1j
        if lam != 0.0:
            h_comm = (ham @ comm.view(float)).view(complex)
            h_comm += h_comm.conj().T
            h_comm *= lam
            out -= h_comm
        return out.view(float).ravel()

    ys = _integrate(rhs, rho0.ravel().view(float), p, times, rtol, atol,
                    "Lindblad")
    out = []
    for t, y in zip(times, ys):
        rho = proj @ y.view(complex).reshape(dim, dim) @ proj.T
        if abs(np.trace(rho).real - 1.0) > 1e-8:
            raise RuntimeError(f"trace drift {np.trace(rho).real - 1.0:g} at t = {t}")
        out.append(DenseState(n_sites=n, t=float(t), data=rho))
    return out


def _wht(v: np.ndarray) -> np.ndarray:
    """The Walsh-Hadamard transform of a contiguous vector of length 2^n,
    unnormalised and in place: v[m] becomes sum_s (-1)^|m & s| v[s].  One
    butterfly per bit, with a half-length temporary (Fino & Algazi, IEEE
    Trans. Comput. C-25, 1142 (1976))."""
    step = 1
    while step < v.size:
        pairs = v.reshape(-1, 2, step)
        low = pairs[:, 0].copy()
        pairs[:, 0] += pairs[:, 1]
        np.subtract(low, pairs[:, 1], out=pairs[:, 1])
        step *= 2
    return v


def _pauli_moments(s: DenseState):
    """<Z_m> and <X_m> for every mask m of 2^n, Z_m the product of sigma^z
    over the sites in m.  <Z_m> = sum_s p(s) (-1)^|m & s| is the transform
    of the basis probabilities p.  X_m is Z_m conjugated by the Hadamard
    layer W / sqrt(2^n), so <X_m> is the transform of the Hadamard-basis
    probabilities |W psi|^2 / 2^n, or diag(W rho W) / 2^n: one transform
    over the 2n bits of rho's flat index, as Im rho is antisymmetric."""
    n = s.n_sites
    if s.is_density_matrix:
        p = np.diag(s.data).real.copy()
        q = np.diag(_wht(s.data.real.flatten()).reshape(s.data.shape)) / 2**n
    else:
        p = np.abs(s.data) ** 2
        q = np.abs(_wht(s.data.astype(complex))) ** 2 / 2**n
    return _wht(p), _wht(q)


def oracle_observables(s: DenseState, j: float, h: float) -> dict:
    """Direct expectation values: site-resolved and site-averaged.

    Every moment is read off `_pauli_moments`: <z_i> and <z_i z_j> are
    <Z_m> at the masks 2^i and 2^i | 2^j, and likewise for x.  The energy
    is -J sum_i <z_i z_{i+1}> - h sum_i <x_i>.
    """
    n = s.n_sites
    z_m, x_m = _pauli_moments(s)
    bits = 1 << np.arange(n)
    sz, sx = z_m[bits], x_m[bits]
    zz_bond = z_m[bits | np.roll(bits, -1)]
    n_def = float(np.mean(1.0 - zz_bond) / 2.0)
    c_zz, c_xx = {}, {}
    for x in range(1, n // 2 + 1):
        pair = bits | np.roll(bits, -x)
        c_zz[x] = float(np.mean(z_m[pair] - sz * np.roll(sz, -x)))
        c_xx[x] = float(np.mean(x_m[pair] - sx * np.roll(sx, -x)))
    energy = float(-j * np.sum(zz_bond) - h * np.sum(sx))
    return {
        "m_x": sx, "m_z": sz, "c_zz": c_zz, "c_xx": c_xx,
        "n_def": n_def, "energy": energy,
    }
