"""Majorana tables and spin correlators built from mode data.

The ensemble's Bloch vectors fix two real, translation-invariant Majorana
contraction tables as sine/cosine sums over the positive momenta,

    sx(d) = (2/N) sum_k sin(k d) n_k^x
    q(d)  = (2/N) sum_k [cos(k d) n_k^z - sin(k d) n_k^y],

and every spin observable follows from them by Wick's theorem.  sigma^x
is a one-site Majorana bilinear, so the x-magnetization is m_x = q(0) and
the connected XX correlator is the 2x2 Pfaffian sx(x)^2 - q(x) q(-x); the
connected ZZ correlator is the Pfaffian of a real antisymmetric string
matrix assembled from the same two tables, and one unpivoted elimination
of that matrix yields it at every separation (zz_connected_profile).

Majorana convention: a_{2m-1} = c_m^dag + c_m and a_{2m} = i(c_m - c_m^dag),
for which every pair contraction is delta_{pq} + i * (real), so the string
matrix is real antisymmetric and the Pfaffian is real up to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mode_dynamics import ModeEnsemble
from .pfaffian import pfaffian

__all__ = [
    "FermionCorrelators",
    "fermion_correlators",
    "magnetization_x",
    "xx_connected",
    "zz_connected",
    "zz_connected_profile",
    "pfaffian",
]

# largest Gauss multiplier the unpivoted profile elimination accepts; past
# 1/sqrt(eps) its rounding is no longer negligible and zz_connected takes over
MAX_MULTIPLIER = 1.0 / np.sqrt(np.finfo(float).eps)


@dataclass(frozen=True)
class FermionCorrelators:
    """The two real Majorana tables sx(d) and q(d) of one sample.

    Tables run over d = -(N-1) .. N-1 and are indexed through the
    accessors; translation invariance is automatic since they come from
    momentum sums.
    """

    n_sites: int
    t: float
    sx_table: np.ndarray = field(repr=False)
    q_table: np.ndarray = field(repr=False)

    def _at(self, table: np.ndarray, d: int):
        n = self.n_sites
        if not -n < d < n:
            raise ValueError(f"separation {d} out of range for N = {n}")
        return table[d + n - 1]

    def sx(self, d: int) -> float:
        return self._at(self.sx_table, d)

    def q(self, d: int) -> float:
        return self._at(self.q_table, d)


def fermion_correlators(e: ModeEnsemble) -> FermionCorrelators:
    """Build both separation tables from the ensemble's Bloch vectors."""
    n = e.n_sites
    nx, ny, nz = e.states.T
    kd = np.outer(np.arange(-(n - 1), n), e.grid.modes)
    sin_kd = np.sin(kd)
    sx = 2.0 * (sin_kd @ nx) / n
    q = 2.0 * (np.cos(kd) @ nz - sin_kd @ ny) / n
    return FermionCorrelators(n_sites=n, t=e.t, sx_table=sx, q_table=q)


def magnetization_x(fc: FermionCorrelators):
    """Per-site magnetization (M^x, M^y, M^z); the y and z components
    vanish identically for this protocol."""
    return float(fc.q(0)), 0.0, 0.0


def _check_separation(fc: FermionCorrelators, x: int):
    if not (1 <= x <= fc.n_sites // 2):
        raise ValueError(
            f"separation x = {x} outside [1, {fc.n_sites // 2}]"
        )


def xx_connected(fc: FermionCorrelators, x: int) -> float:
    """Connected <sigma^x_i sigma^x_{i+x}>, sx(x)^2 - q(x) q(-x)."""
    _check_separation(fc, x)
    return float(fc.sx(x) ** 2 - fc.q(x) * fc.q(-x))


def majorana_string_matrix(fc: FermionCorrelators, x: int) -> np.ndarray:
    """Contraction matrix of the ZZ string operator at separation x.

    The string (c_i^dag - c_i) * prod (c^dag + c)(c^dag - c) * (c_j^dag + c_j)
    is a consecutive run of 2x Majorana operators a_{2i} .. a_{2j-1}; the
    matrix entry for indices (p, q) is the real part of -i<a_p a_q>.
    """
    dim = 2 * x
    # global Majorana index (1-based) runs 2i .. 2j-1 with i = 1
    idx = np.arange(2, 2 + dim)
    site = (idx + 1) // 2            # site m for a_{2m-1} and a_{2m}
    is_a = (idx % 2) == 1            # True for a_{2m-1}-type (c^dag + c)
    dmat = site[:, None] - site[None, :]
    off = fc.n_sites - 1
    sx = fc.sx_table[dmat + off]
    q_pq = fc.q_table[dmat + off]
    q_qp = fc.q_table[-dmat + off]
    aa = is_a[:, None] & is_a[None, :]
    bb = ~is_a[:, None] & ~is_a[None, :]
    ab = is_a[:, None] & ~is_a[None, :]
    g = np.select([aa, bb, ab], [sx, -sx, -q_pq], default=q_qp)
    np.fill_diagonal(g, 0.0)
    return g


def zz_connected(fc: FermionCorrelators, x: int) -> float:
    """Connected <sigma^z_i sigma^z_{i+x}> via the string Pfaffian.

    <sigma^z> vanishes identically for this protocol (it switches fermion
    parity), so the connected subtraction is zero and the correlator
    equals the raw Pfaffian value.
    """
    _check_separation(fc, x)
    if x == 1:
        # empty string: plain two-operator expectation, no Pfaffian needed
        return -fc.q(1)
    gamma = majorana_string_matrix(fc, x)
    sign = -1.0 if x % 2 else 1.0
    return sign * float(pfaffian(gamma, skew_tol=1e-10))


def zz_connected_profile(fc: FermionCorrelators, x_max=None) -> np.ndarray:
    """C^zz(t, x) for x = 1 .. x_max (default N/2) from one elimination.

    The string matrix at x is the leading 2x x 2x block of the x_max one,
    so eliminating its Majorana pairs in order without pivoting gives C(x)
    as (-1)^x times the running product of the pivots (Wimmer, ACM TOMS 38
    (2012)).  After a zero pivot or a multiplier above MAX_MULTIPLIER the
    remaining separations fall back to the pivoted zz_connected.
    """
    if x_max is None:
        x_max = fc.n_sites // 2
    _check_separation(fc, x_max)
    m = majorana_string_matrix(fc, x_max)
    out = np.empty(x_max)
    pf = 1.0
    for x in range(1, x_max + 1):
        i = 2 * x - 2
        pf *= m[i, i + 1]
        out[x - 1] = -pf if x % 2 else pf
        if x == x_max:
            break
        piv = m[i + 1, i]
        if piv == 0 or np.max(np.abs(m[i, i + 2:])) > MAX_MULTIPLIER * abs(piv):
            out[x:] = [zz_connected(fc, y) for y in range(x + 1, x_max + 1)]
            break
        tau = m[i, i + 2:] * (1.0 / piv)
        w = m[i + 1, i + 2:]
        m[i + 2:, i + 2:] += np.outer(tau, w) - np.outer(w, tau)
    return out
