"""Majorana tables and spin correlators built from mode data.

The ensemble's Bloch vectors fix two real, translation-invariant Majorana
contraction tables as sine/cosine sums over the positive momenta,

    sx(d) = (2/N) sum_k sin(k d) n_k^x
    q(d)  = (2/N) sum_k [cos(k d) n_k^z - sin(k d) n_k^y].

The phases sin(k d) and cos(k d) depend only on the momentum grid, so they
are computed once per N and shared by every sample; each sample's tables
are its own three matrix-vector products.  Every spin observable follows
from the tables by Wick's theorem.  sigma^x is a one-site Majorana
bilinear, so the x-magnetization is m_x = q(0) and the connected XX
correlator is the 2x2 Pfaffian sx(x)^2 - q(x) q(-x), read for every x from
table slices.  The connected ZZ correlator is the Pfaffian of a real
antisymmetric string matrix assembled from the same two tables; one
unpivoted, left-looking elimination over all samples of a run yields it at
every separation (zz_connected_profiles).  Step x of that elimination forms
only the two pivot rows, gathered straight from the tables and corrected by
the earlier steps' multipliers, so no string matrix is built.

Majorana convention: a_{2m-1} = c_m^dag + c_m and a_{2m} = i(c_m - c_m^dag),
for which every pair contraction is delta_{pq} + i * (real), so the string
matrix is real antisymmetric and the Pfaffian is real up to roundoff.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .mode_dynamics import ModeEnsemble
from .pfaffian import pfaffian

__all__ = [
    "FermionCorrelators",
    "ZZProfiles",
    "fermion_correlators",
    "magnetization_x",
    "xx_connected",
    "xx_connected_profiles",
    "zz_connected",
    "zz_connected_profile",
    "zz_connected_profiles",
    "pfaffian",
]

# largest Gauss multiplier the unpivoted profile elimination accepts; past
# 1/sqrt(eps) its rounding is no longer negligible and zz_connected takes over
MAX_MULTIPLIER = 1.0 / np.sqrt(np.finfo(float).eps)

# most bytes of multiplier storage, 8 (2 x_max)^2 per sample, that one
# elimination holds; a run needing more is eliminated in batches of samples
BATCH_BYTES = 1 << 24


@dataclass(frozen=True)
class FermionCorrelators:
    """The two real Majorana tables sx(d) and q(d) of one sample.

    Tables run over d = -(N-1) .. N-1 and are indexed through the
    accessors; translation invariance is automatic since they come from
    momentum sums.
    """

    n_sites: int
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


@functools.lru_cache(maxsize=4)
def _phases(n: int, modes: bytes):
    """sin(k d) and cos(k d) for d = -(N-1) .. N-1 over the given momenta,
    read-only and shared by every sample on that grid."""
    kd = np.outer(np.arange(-(n - 1), n), np.frombuffer(modes))
    sin_kd, cos_kd = np.sin(kd), np.cos(kd)
    sin_kd.flags.writeable = cos_kd.flags.writeable = False
    return sin_kd, cos_kd


def fermion_correlators(e: ModeEnsemble) -> FermionCorrelators:
    """Build both separation tables from the ensemble's Bloch vectors."""
    n = e.n_sites
    nx, ny, nz = e.states.T
    modes = np.asarray(e.grid.modes, dtype=float)
    sin_kd, cos_kd = _phases(n, modes.tobytes())
    sx = 2.0 * (sin_kd @ nx) / n
    q = 2.0 * (cos_kd @ nz - sin_kd @ ny) / n
    return FermionCorrelators(n_sites=n, sx_table=sx, q_table=q)


def magnetization_x(fc: FermionCorrelators) -> float:
    """Per-site magnetization m_x = q(0); m_y and m_z vanish identically
    for this protocol."""
    return float(fc.q(0))


def _check_separation(fc: FermionCorrelators, x: int):
    if not (1 <= x <= fc.n_sites // 2):
        raise ValueError(
            f"separation x = {x} outside [1, {fc.n_sites // 2}]"
        )


def _stacked(fcs: Sequence[FermionCorrelators], x_max):
    """The (S, 2N-1) sx and q tables of samples on one N, and x_max
    checked (default N/2)."""
    if not fcs:
        raise ValueError("no samples")
    n = fcs[0].n_sites
    if any(fc.n_sites != n for fc in fcs):
        raise ValueError("samples of one batch must share N")
    if x_max is None:
        x_max = n // 2
    _check_separation(fcs[0], x_max)
    return (np.stack([fc.sx_table for fc in fcs]),
            np.stack([fc.q_table for fc in fcs]), x_max)


def xx_connected(fc: FermionCorrelators, x: int) -> float:
    """Connected <sigma^x_i sigma^x_{i+x}>, sx(x)^2 - q(x) q(-x)."""
    _check_separation(fc, x)
    sx = fc.sx(x)
    return float(sx * sx - fc.q(x) * fc.q(-x))


def xx_connected_profiles(fcs: Sequence[FermionCorrelators],
                          x_max=None) -> np.ndarray:
    """xx_connected of every sample at x = 1 .. x_max, shape (S, x_max)."""
    fcs = list(fcs)
    sx, q, x_max = _stacked(fcs, x_max)
    off, x = fcs[0].n_sites - 1, np.arange(1, x_max + 1)
    return sx[:, off + x] * sx[:, off + x] - q[:, off + x] * q[:, off - x]


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


class ZZProfiles(NamedTuple):
    """C^zz of S samples at x = 1 .. x_max and the elimination's telemetry."""

    c_zz: np.ndarray        # (S, x_max)
    max_multiplier: float   # largest |Gauss multiplier| the elimination used
    fallbacks: int          # samples finished by the pivoted zz_connected


def _eliminate(fcs, sx, q, x_max):
    """zz_connected_profiles on one batch of samples; returns the profiles,
    the largest multiplier used and the number of fallback samples."""
    s, off = len(fcs), fcs[0].n_sites - 1
    u = np.arange(x_max)
    # rows 0 and 1 of the string matrix at x_max; by translation invariance
    # rows 2x-2 and 2x-1 from column 2x-2 on are these rows cut short
    g = np.empty((s, 2, 2 * x_max))
    g[:, 0, 0::2] = -sx[:, off - u]
    g[:, 0, 1::2] = q[:, off + 1 + u]
    g[:, 1, 0::2] = -q[:, off + 1 - u]
    g[:, 1, 1::2] = sx[:, off - u]
    g[:, 0, 0] = g[:, 1, 1] = 0.0
    # step j stores its multipliers tau_j in column 2j and its second pivot
    # row w_j in column 2j+1, both over the rows it updates (2j+2 on)
    tw = np.zeros((s, 2 * x_max, 2 * x_max))
    out = np.empty((s, x_max))
    lanes = np.arange(s)
    pf = np.ones(s)
    worst, fallbacks = 0.0, 0
    for x in range(1, x_max + 1):
        i = 2 * x - 2            # pivot row, also the number of stored columns
        rows = g[:, :, :2 * x_max - i]
        if i:
            # rows i, i+1 of the Schur complement: the string-matrix rows
            # plus sum_j (tau_j w_j^T - w_j tau_j^T) restricted to them
            a = np.empty((len(lanes), 2, i))
            a[:, :, 0::2] = -tw[:, i:i + 2, 1:i:2]
            a[:, :, 1::2] = tw[:, i:i + 2, 0:i:2]
            rows = rows + a @ tw[:, i:, :i].transpose(0, 2, 1)
        pf = pf * rows[:, 0, 1]
        out[lanes, x - 1] = -pf if x % 2 else pf
        if x == x_max:
            break
        piv = rows[:, 1, 0]
        bad = (piv == 0) | (np.max(np.abs(rows[:, 0, 2:]), axis=1)
                            > MAX_MULTIPLIER * np.abs(piv))
        if bad.any():
            for lane in lanes[bad]:
                out[lane, x:] = [zz_connected(fcs[lane], y)
                                 for y in range(x + 1, x_max + 1)]
            fallbacks += int(bad.sum())
            keep = ~bad
            lanes, g, tw, pf, rows, piv = (v[keep] for v in
                                           (lanes, g, tw, pf, rows, piv))
            if not lanes.size:
                break
        tau = rows[:, 0, 2:] * (1.0 / piv)[:, None]
        worst = max(worst, float(np.max(np.abs(tau))))
        tw[:, i + 2:, i] = tau
        tw[:, i + 2:, i + 1] = rows[:, 1, 2:]
    return out, worst, fallbacks


def zz_connected_profiles(fcs: Sequence[FermionCorrelators],
                          x_max=None) -> ZZProfiles:
    """C^zz(t, x) for x = 1 .. x_max (default N/2) of every sample of a run.

    The string matrix at x is the leading 2x x 2x block of the x_max one,
    so eliminating its Majorana pairs in order without pivoting gives C(x)
    as (-1)^x times the running product of the pivots (Wimmer, ACM TOMS 38
    (2012)).  The elimination is left-looking and runs over all samples at
    once: step x forms only the two pivot rows, the string-matrix rows plus
    the earlier multipliers' corrections, one small matrix product per
    sample.  Each sample's operands keep their own contiguous layout, so a
    profile is bit-identical whichever batch it is computed in.  A sample
    whose pivot is zero or whose multiplier exceeds MAX_MULTIPLIER hands
    its remaining separations to the pivoted zz_connected; the others
    carry on.  All samples must share N.
    """
    fcs = list(fcs)
    sx, q, x_max = _stacked(fcs, x_max)
    per_batch = max(1, BATCH_BYTES // (8 * (2 * x_max) ** 2))
    parts = [_eliminate(fcs[b:b + per_batch], sx[b:b + per_batch],
                        q[b:b + per_batch], x_max)
             for b in range(0, len(fcs), per_batch)]
    return ZZProfiles(c_zz=np.concatenate([p[0] for p in parts]),
                      max_multiplier=max(p[1] for p in parts),
                      fallbacks=sum(p[2] for p in parts))


def zz_connected_profile(fc: FermionCorrelators, x_max=None) -> np.ndarray:
    """C^zz(t, x) for x = 1 .. x_max of one sample: zz_connected_profiles
    on a batch of one."""
    return zz_connected_profiles([fc], x_max).c_zz[0]
