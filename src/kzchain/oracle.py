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

Both continuous evolutions are stepped by their Taylor series
(`_taylor`).  The generators, -iH(t) and the master equation's, are
polynomial in t, so each term of the series follows exactly from the
terms before it, with no tableau and no error estimate.  Each run takes
steps of one length, fixed by N (and lam) through a bound on the norm of
its generator, and a step ends on each sample time.  The sector
projector is two arrays, the orbit label and the weight of each basis
state; the sector terms are a ZZ vector and the entries of the
transverse-field matrix, which the statevector run multiplies by as rows
padded to at most N entries: one gather and one einsum per term.  So
this module, and every oracle run, needs numpy only.

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
# takes about 0.065 s on a 2-core Xeon
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


def _taylor(series, step: float, y0: np.ndarray, t0: float,
            times: np.ndarray, what: str) -> List[np.ndarray]:
    """The state at each sample time of a linear ODE y' = L(t) y, L
    polynomial in t, stepped from t0 by its Taylor series.

    series(t, h, y) yields the terms u_1, u_2, ... of y(t + h) = sum_n u_n,
    u_n = y_n h^n with y_0 = y, from the exact recurrence (n + 1) y_{n+1}
    = sum_m L_m y_{n-m} of L(t + s) = sum_m L_m s^m (Jorba & Zou, Exp.
    Math. 14, 99 (2005)).  A step is cut after the first two consecutive
    terms of norm below 1e-17.  Every step is `step` long, one fixed bound
    for the whole run, except that a step ends exactly on each sample
    time, so no interpolation is needed.  A non-finite term, or a step too
    short to advance t, raises a RuntimeError naming `what`.
    """
    y, t, out = y0, t0, []
    for target in times:
        while t < target:
            end = target if t + step >= target else t + step
            if not t < end:
                raise RuntimeError(f"{what} integration failed: a step of "
                                   f"{step:g} does not advance t = {t}")
            total, small = y.copy(), 0
            for term in series(t, end - t, y):
                total += term
                norm2 = np.vdot(term, term).real
                if not math.isfinite(norm2):
                    raise RuntimeError(
                        f"{what} integration failed: non-finite state at t = {t}")
                small = small + 1 if norm2 < 1e-34 else 0
                if small == 2:
                    break
            y, t = total, end
        out.append(y)
    return out


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
) -> List[DenseState]:
    """Closed-system evolution from |+>^N through the quench.

    Continuous protocols step the Schrodinger equation by its Taylor
    series (`_taylor`) on the d amplitudes c of the symmetric sector
    (module docstring), from t_start to the last sample time.  There the
    ZZ term is diagonal and the transverse field is a sparse d x d matrix;
    -iH(t) = M0 + t M1 is linear in t, so each term of the series costs
    one gather product over the field's padded rows, the product with the
    previous term being kept.  Steps are at most 3.5 / N long, so that
    ||H|| h <= 2N h <= 7.  Sample times default to t_end and must be
    strictly increasing inside the protocol interval.  Trotter protocols
    apply exactly the gate layers to the full 2^N vector, sampling at
    every step boundary.
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
    sx_pad = np.zeros((d, count.max()), dtype=complex)
    sx_pad[rows, slot] = sx_vals
    tau = p.tau_q

    def series(t, h, c):
        # -iH(t + s) = i (J + s / tau) zz + i (h_x - s / tau) sx, with J and
        # h_x as schedule_at gives them at t
        j, h_x, g = 1.0 + t / tau, 1.0 - t / tau, h / tau
        u_prev = x_prev = 0.0
        u, k = c, 0
        while True:
            x = np.einsum("dw,dw->d", u[sx_cols], sx_pad)
            v = zz * (j * u + g * u_prev) + (h_x * x - g * x_prev)
            k += 1
            u_prev, x_prev, u = u, x, v * (1j * h / k)
            yield u

    # P^T |+> is real; bincount sums each orbit in ascending basis order
    c0 = np.bincount(orbit, weights=weight * _plus_state(n).real)
    ys = _taylor(series, 3.5 / n, c0.astype(complex), p.t_start, times,
                 "statevector")
    return [DenseState(n_sites=n, t=float(t), data=weight * y[orbit])
            for t, y in zip(times, ys)]


def evolve_lindblad(
    p: QuenchProtocol,
    n: int,
    lam: float,
    sample_times: Optional[Sequence[float]] = None,
) -> List[DenseState]:
    """Full double-commutator master equation, no mode-mixing approximation.

    d/dt rho = -i[H, rho] - lam [H, [H, rho]], from the paramagnetic
    product state.  Continuous protocols only.  The d x d block r of rho
    in the symmetric sector (module docstring) is stepped by its Taylor
    series (`_taylor`) from t_start to the last sample time, and each
    sample is returned as rho = P r P^T in the full basis.  On a step
    from t of length h, with G = h H(t), K = h^2 dH/dt and U_k the k-th
    Taylor coefficient of r times h^k, the terms follow from
        E_k = [G, U_k] + [K, U_{k-1}],
        (k + 1) U_{k+1} = -i E_k - (lam / h) ([G, E_k] + [K, E_{k-1}]).
    H is real and U_k Hermitian, so each commutator is X - X^H or, of the
    anti-Hermitian E_k, X + X^H, with X from one real product of the
    stacked [G; K]: two products per term.  The superoperator norm is at
    most s + lam s^2, s the spread E_max - E_min of H.  H is a sum of N
    bond terms of norm J and N field terms of norm h, so by Weyl's
    inequality s <= 2N (J + h) = 4N at every t, with equality at t_start,
    where H = -2 sum_i sigma^x_i.  So every step has the one length
    6 / (s + lam s^2) with s = 4N, and no spectrum is computed; dH/dt is
    built once per run.  Sample times default to t_end and must be
    strictly increasing inside the protocol interval.  The mode pipeline
    instead dephases each (k, -k) pair in its own H_k, without the cross
    terms [H_k, [H_k', rho]]; these leave m_x, n_def and the energy
    unchanged, and its C_zz(x >= 2) and C_xx differ mostly as the Wick
    closure of the per-mode channel.
    """
    _check_n(n, cap=MAX_N_DENSITY)
    if p.evolution is not Evolution.CONTINUOUS:
        raise ValueError("Lindblad evolution is defined for continuous protocols")
    lam = check_nonnegative("lam", lam)
    times = check_sample_times(
        p, [p.t_end] if sample_times is None else sample_times)
    orbit, weight, zz, (rows, cols, sx_vals) = _sector_terms(n)
    dim = zz.size
    zz, sx = np.diag(zz), np.zeros((dim, dim))
    sx[rows, cols] = sx_vals
    c0 = np.bincount(orbit, weights=weight * _plus_state(n).real).astype(complex)
    rho0 = np.outer(c0, c0.conj())
    tau = p.tau_q
    dham = (sx - zz) / tau
    s = 4.0 * n

    def series(t, h, r):
        # rows :dim of a product with gk are G X, rows dim: are K X;
        # ku and ke keep K U_{k-1} and K E_{k-1} for the next term; J and
        # h are as schedule_at gives them
        ham = -(1.0 + t / tau) * zz - (1.0 - t / tau) * sx
        gk = np.vstack((h * ham, (h * h) * dham))
        rate = lam / h
        u, ku, ke, k = r, 0.0, 0.0, 0
        while True:
            prod = (gk @ u.view(float)).view(complex)
            e = prod[:dim] + ku
            e -= e.conj().T
            ku = prod[dim:]
            prod = (gk @ e.view(float)).view(complex)
            f = prod[:dim] + ke
            f += f.conj().T
            ke = prod[dim:]
            k += 1
            u = e * (-1j / k)
            u -= (rate / k) * f
            yield u

    ys = _taylor(series, 6.0 / (s + lam * s * s), rho0, p.t_start, times,
                 "Lindblad")
    out = []
    for t, r in zip(times, ys):
        rho = (weight[:, None] * r[orbit][:, orbit]) * weight
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
    probabilities |W psi|^2 / 2^n, or diag(W rho W) / 2^n.  W is real and
    Im rho antisymmetric, so only Re rho counts, and W is a product over
    the bits: diag(W rho W) is transformed one bit of both indices at a
    time, keeping of the row and column bit's four entries only the two
    whose transformed bits agree, so the array halves at each step."""
    n = s.n_sites
    if s.is_density_matrix:
        p = np.diag(s.data).real.copy()
        # q has shape (done, remaining row bits, remaining column bits),
        # the done bits from the most significant down
        q = s.data.real.reshape(1, 2**n, 2**n)
        for k in range(n):
            side = 2 ** (n - 1 - k)
            rho = q.reshape(2**k, 2, side, 2, side)
            q = np.empty((2**k, 2, side, side))
            np.add(rho[:, 0, :, 0], rho[:, 1, :, 1], out=q[:, 0])
            q[:, 1] = q[:, 0]
            for mixed in (rho[:, 0, :, 1], rho[:, 1, :, 0]):
                q[:, 0] += mixed
                q[:, 1] -= mixed
        q = q.reshape(2**n) / 2**n
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
