"""Scaling-exponent extraction by data collapse.

Rescale {(tau_q, x, c)} records as y = x / tau_q^a, v = c * tau_q^b on the
square (a, b) grid EXPONENT_GRID, fit each cell to the exponentially
damped polynomial

    f(y) = exp(-p_{-1} y) * (p_0 + p_1 y + ... + p_M y^M),

and pick the cell with the smallest root-mean-square residual.  The grid
runs from 0.025 to 0.75 in steps of 0.025 in both exponents, and that step
is the resolution of the reported exponents.  Each fit is a
variable projection (Golub & Pereyra, Inverse Problems 19 (2003) R1): for
a fixed decay rate p_{-1} the polynomial is a linear least-squares solve,
so the nonlinear part is a 1-D search over the decay, a scan of 62 fixed
rates and then Brent's bounded minimiser (Brent, Algorithms for
Minimization without Derivatives, 1973) between the neighbours of the best
scan point.

y does not depend on b, so every b cell of one a shares its designs.  The
scan solves them for all b columns at once, as one batched SVD per chunk
of 16 decays; its decays run to 1e3, where whole designs underflow, so it
keeps the SVD's rank cutoff.  The refinement then runs the Brent iteration
of every cell of the grid in one lockstep pass, each lane exactly as
scipy's `minimize_scalar(method="bounded")` would run it alone on the same
objective.  Each iteration scores the lanes still open, whatever their a,
by one batched Householder QR of [design | v] per 32 cells: the last
diagonal entry of R is the residual norm.  A lane whose design a bound on
its condition number cannot prove to be of full rank to lstsq's cutoff is
scored by the SVD route instead.  The whole 30 x 30 grid takes a few
dozen iterations and about 500 LAPACK calls on one thread, and no cell's
result depends on which other cells share its batches.  The QR and SVD
objectives agree with a per-cell `np.linalg.lstsq` only to rounding, so
the refined decay of the two routes may differ within Brent's tolerance.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Tuple

import numpy as np

logger = logging.getLogger(__name__)

__all__ = [
    "CorrelationDataset",
    "EXPONENT_GRID",
    "CollapseResult",
    "rescale",
    "fit_exp_poly",
    "exponent_sweep",
    "QKZ_EXPONENTS",
    "QND_EXPONENTS",
]

# reference exponent pairs (a, b) for z = nu = 1, Delta_zz = 1/4
QKZ_EXPONENTS = (0.5, 0.125)        # nu/(1+z*nu), Delta*nu/(1+z*nu)
QND_EXPONENTS = (1.0 / 3.0, 1.0 / 12.0)  # nu/(1+2*z*nu), Delta*nu/(1+2*z*nu)

DEFAULT_MASK_THEORY = 5e-4
DEFAULT_POLY_ORDER = 4


# the values of both exponents, 0.025 to 0.75 in steps of 0.025, rounded so
# that 0.025 + 12 * 0.025 prints as 0.325
EXPONENT_GRID = np.round(0.025 + 0.025 * np.arange(30), 12)


@dataclass(frozen=True)
class CorrelationDataset:
    """Masked {(tau_q, x, c)} records feeding the collapse fitter.

    Masking applies to the raw |c| before any rescaling: records with
    |c| < mask_threshold or x < 1 are dropped at construction.
    """

    records: np.ndarray  # shape (n, 3): tau_q, x, c
    mask_threshold: float

    @classmethod
    def from_records(cls, records, mask_threshold: float = DEFAULT_MASK_THEORY):
        arr = np.asarray(records, dtype=float).reshape(-1, 3)
        keep = (np.abs(arr[:, 2]) >= mask_threshold) & (arr[:, 1] >= 1)
        return cls(records=arr[keep], mask_threshold=mask_threshold)

    @property
    def tau_values(self) -> np.ndarray:
        return np.unique(self.records[:, 0])


@dataclass(frozen=True)
class CollapseResult:
    rmse: np.ndarray              # (a, b) over EXPONENT_GRID; NaN marks failed fits
    best: Tuple[float, float]
    best_params: np.ndarray       # p_{-1} .. p_M of the best cell
    best_rmse: float
    peak_rescaled: float          # max |v| at the best cell, for normalization

    @property
    def normalized_best_rmse(self) -> float:
        return self.best_rmse / self.peak_rescaled


def rescale(ds: CorrelationDataset, a: float, b: float):
    """Pointwise (y, v) = (x / tau^a, c * tau^b); record count preserved."""
    tau = ds.records[:, 0]
    y = ds.records[:, 1] / tau**a
    v = ds.records[:, 2] * tau**b
    return y, v


_DECAY_SCAN = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 61)])
_SCAN_CHUNK = 16  # decays per batched scan solve: temporaries stay at a few MB
_LANE_CHUNK = 32  # cells per batched refinement or final solve, likewise

# constants of scipy.optimize's bounded Brent minimiser
_GOLDEN_MEAN = 0.5 * (3.0 - np.sqrt(5.0))
_SQRT_EPS = np.sqrt(2.2e-16)
_XATOL = 1e-12
_MAXFUN = 500


def _designs(y: np.ndarray, powers: np.ndarray, decays: np.ndarray) -> np.ndarray:
    """Stacked designs exp(-d y)[:, None] * powers, one per decay: (k, n, m)."""
    return np.exp(-decays[:, None] * y)[:, :, None] * powers


def _lstsq(design: np.ndarray, v: np.ndarray):
    """Minimum-norm least squares of stacked designs (k, n, m) against v.

    v is (n, c), shared by every design, or (k, n, c).  Returns the
    coefficients (k, m, c) and the RMSE of each column (k, c).  As in
    `np.linalg.lstsq`, singular values at or below eps * max(n, m) * s_max
    count as zero.  A fully underflowed design yields garbage
    coefficients; such a column scores inf so the search moves on.
    """
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    keep = s > np.finfo(float).eps * max(design.shape[-2:]) * s[..., :1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
        coeffs = vt.swapaxes(-1, -2) @ (s_inv[..., None]
                                        * (u.swapaxes(-1, -2) @ v))
        resid = design @ coeffs
        resid -= v
        np.square(resid, out=resid)
        rmse = np.sqrt(resid.mean(axis=-2))
    usable = np.all(np.isfinite(coeffs), axis=-2) & np.isfinite(rmse)
    return coeffs, np.where(usable, rmse, np.inf)


def _brent_tol(xf: np.ndarray) -> np.ndarray:
    """scipy's tol1: the shortest step Brent takes from xf."""
    return _SQRT_EPS * np.abs(xf) + _XATOL / 3.0


def _brent_open(a, b, xf, num) -> np.ndarray:
    """scipy's loop test: xf is not yet within the tolerance of the middle
    of the bracket [a, b], and the evaluation budget is not spent."""
    return ((np.abs(xf - 0.5 * (a + b)) > 2.0 * _brent_tol(xf) - 0.5 * (b - a))
            & (num < _MAXFUN))


def _bounded_brent(func, lo: np.ndarray, hi: np.ndarray):
    """Brent's bounded minimiser run on many independent lanes in lockstep.

    A lane-wise port of scipy.optimize.minimize_scalar(method="bounded")
    with xatol = 1e-12 and maxiter = 500: every lane takes the steps and
    comparisons scipy takes on its own, so x, fun and nfev match it
    exactly.  func(x, lanes) returns f at x[i] for lane lanes[i]; each
    iteration calls it once, on the lanes that are still open.
    Returns (x, fun, nfev) per lane.
    """
    xf = lo + _GOLDEN_MEAN * (hi - lo)
    fx = func(xf, np.arange(len(lo)))
    zero, one = np.zeros(len(lo)), np.ones(len(lo))
    # one row per scipy variable, one column per lane
    state = np.array([lo, hi, xf, xf, xf, fx, fx, fx, zero, zero, one])
    open_ = _brent_open(lo, hi, xf, one)
    while open_.any():
        lanes = np.flatnonzero(open_)
        a, b, fulc, nfc, xf, fx, ffulc, fnfc, rat, e, num = state[:, lanes]
        xm = 0.5 * (a + b)
        tol1 = _brent_tol(xf)
        tol2 = 2.0 * tol1
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # parabola through the three best points, where the step
            # before last was longer than tol1
            para = np.abs(e) > tol1
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            p = np.where(q > 0.0, -p, p)
            q = np.abs(q)
            ok = (para & (np.abs(p) < np.abs(0.5 * q * e))
                  & (p > q * (a - xf)) & (p < q * (b - xf)))
            e = np.where(para, rat, e)
            rat_para = (p + 0.0) / q
        x_para = xf + rat_para
        near = ((x_para - a) < tol2) | ((b - x_para) < tol2)
        si = np.sign(xm - xf) + ((xm - xf) == 0)
        rat = np.where(ok, np.where(near, tol1 * si, rat_para), rat)
        # golden section into the larger part everywhere else
        e = np.where(ok, e, np.where(xf >= xm, a - xf, b - xf))
        rat = np.where(ok, rat, _GOLDEN_MEAN * e)
        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = func(x, lanes)

        better = fu <= fx
        worse = ~better
        a = np.where(better & (x >= xf), xf, np.where(worse & (x < xf), x, a))
        b = np.where(better & ~(x >= xf), xf, np.where(worse & ~(x < xf), x, b))
        shift = worse & ((fu <= fnfc) | (nfc == xf))
        third = worse & ~shift & ((fu <= ffulc) | (fulc == xf) | (fulc == nfc))
        fulc = np.where(better | shift, nfc, np.where(third, x, fulc))
        ffulc = np.where(better | shift, fnfc, np.where(third, fu, ffulc))
        nfc = np.where(better, xf, np.where(shift, x, nfc))
        fnfc = np.where(better, fx, np.where(shift, fu, fnfc))
        xf = np.where(better, x, xf)
        fx = np.where(better, fu, fx)
        num = num + 1
        state[:, lanes] = (a, b, fulc, nfc, xf, fx, ffulc, fnfc, rat, e, num)
        open_[lanes] = _brent_open(a, b, xf, num)
    return state[4], state[5], state[10].astype(int)


def _solve_cells(ys, powers, rhs, decay, ia, ib):
    """`_lstsq` of the cells (ia[k], ib[k]) at decay[k]: designs from
    ys[ia[k]] and powers[ia[k]] against rhs[ib[k]], gathered by index,
    _LANE_CHUNK cells per batched solve.  Returns the coefficients (k, m)
    and the RMSE (k,)."""
    coeffs, rmse = [], []
    for s in range(0, len(decay), _LANE_CHUNK):
        a, b = ia[s:s + _LANE_CHUNK], ib[s:s + _LANE_CHUNK]
        c, r = _lstsq(_designs(ys[a], powers[a], decay[s:s + _LANE_CHUNK]), rhs[b])
        coeffs.append(c[:, :, 0])
        rmse.append(r[:, 0])
    return np.concatenate(coeffs), np.concatenate(rmse)


def _cond_bound(t: np.ndarray) -> np.ndarray:
    """Upper bound on the 2-norm condition number of each upper triangle
    of t (..., m, m): m * ||T||_inf * max(z), where M(T) z = 1 and M(T),
    the comparison matrix, has |t_ii| on its diagonal and -|t_ij| above
    it.  M(T)^{-1} >= |T^{-1}| elementwise, so max(z) >= ||T^{-1}||_inf
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, 8.2-8.3),
    and each 2-norm is at most sqrt(m) times the inf-norm.  inf or NaN
    where a diagonal entry is zero."""
    m = t.shape[-1]
    a = np.abs(np.triu(t))
    z = np.empty(t.shape[:-1])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(m - 1, -1, -1):
            z[..., i] = (1.0 + np.sum(a[..., i, i + 1:] * z[..., i + 1:], axis=-1)) \
                / a[..., i, i]
        return m * a.sum(axis=-1).max(axis=-1) * z.max(axis=-1)


def _qr_rmse(ys, powers, rhs, decay, ia, ib):
    """The RMSE `_solve_cells` gives the cells (ia[k], ib[k]) at decay[k],
    scored from a Householder QR of [design | v] instead of an SVD.

    R[m, m] of the augmented matrix is the norm of the least-squares
    residual (Bjorck, Numerical Methods for Least Squares Problems, 1996,
    1.3 and 2.4), so a lane scores |R[m, m]| / sqrt(n).  That is lstsq's
    RMSE only when lstsq's cutoff keeps every singular value of the
    design.  A lane keeps its QR score when `_cond_bound` of its m x m
    triangle proves so with room for the rounding of both factorizations
    (each moves a singular value by about n m eps s_max); any other lane,
    or one whose score is not finite, is solved by `_solve_cells`.
    """
    n, m = powers.shape[1:]
    # [design | v] is filled transposed, (k, m + 1, n), so that every
    # elementwise loop runs along n; its swapaxes view is each matrix in
    # the column-major order LAPACK works in
    powers_t = np.ascontiguousarray(powers.swapaxes(1, 2))
    r = np.empty((len(decay), m + 1, m + 1))
    for s in range(0, len(decay), _LANE_CHUNK):
        a, b = ia[s:s + _LANE_CHUNK], ib[s:s + _LANE_CHUNK]
        aug_t = np.empty((len(a), m + 1, n))
        np.multiply(np.exp(-decay[s:s + _LANE_CHUNK, None] * ys[a])[:, None, :],
                    powers_t[a], out=aug_t[:, :m])
        aug_t[:, m] = rhs[b, :, 0]
        # "raw" leaves R in the upper triangle of h^T, without a triu per call
        h, _ = np.linalg.qr(aug_t.swapaxes(1, 2), mode="raw")
        r[s:s + _LANE_CHUNK] = h[:, :, :m + 1].swapaxes(1, 2)
    rmse = np.abs(r[:, m, m]) / np.sqrt(n)
    limit = 1.0 / (np.finfo(float).eps * (max(n, m) + 2 * n * m))
    certified = np.isfinite(rmse) & (_cond_bound(r[:, :m, :m]) < limit)
    lanes = np.flatnonzero(~certified)
    if lanes.size:
        rmse[lanes] = _solve_cells(ys, powers, rhs, decay[lanes], ia[lanes], ib[lanes])[1]
    return rmse


def _fit_grid(tau: np.ndarray, x: np.ndarray, v: np.ndarray,
              a_vals: np.ndarray, order: int):
    """Variable-projection fit of every (a, b) cell of the grid.

    Cell (i, j) fits column j of v (n, n_b) against y = x / tau**a_vals[i].
    Each a scans the decay rate over _DECAY_SCAN in chunks of batched
    solves that take every b column at once.  Each cell's decay is then
    refined by Brent's bounded method on `_qr_rmse` between the scan points
    either side of its best one, every cell in one lockstep run, and kept
    if it scores no worse than the scan.  Returns params (n_a, n_b,
    order + 2), rows [p_{-1}, p_0, ..., p_M], and the RMSE (n_a, n_b), inf
    where no fit is usable.
    """
    ys = np.array([x / tau**a for a in a_vals])
    powers = ys[:, :, None] ** np.arange(order + 1)
    scan = np.array([np.concatenate([
        _lstsq(_designs(y, p, _DECAY_SCAN[k:k + _SCAN_CHUNK]), v)[1]
        for k in range(0, len(_DECAY_SCAN), _SCAN_CHUNK)])
        for y, p in zip(ys, powers)])
    i = np.argmin(scan, axis=1)
    lo = _DECAY_SCAN[np.maximum(i - 1, 0)]
    hi = _DECAY_SCAN[np.minimum(i + 1, len(_DECAY_SCAN) - 1)]
    decay = _DECAY_SCAN[i]
    # one contiguous (n, 1) right-hand side per b column: a cell's solves
    # then round the same whichever cells share their batch
    rhs = np.ascontiguousarray(v.T)[:, :, None]
    ia, ib = np.nonzero(hi > lo)
    if ia.size:
        x_opt, fun, _ = _bounded_brent(
            lambda d, lanes: _qr_rmse(ys, powers, rhs, d, ia[lanes], ib[lanes]),
            lo[ia, ib], hi[ia, ib])
        take = fun <= np.min(scan, axis=1)[ia, ib]
        decay[ia[take], ib[take]] = x_opt[take]
    coeffs, rmse = _solve_cells(ys, powers, rhs, decay.ravel(),
                                *np.indices(decay.shape).reshape(2, -1))
    params = np.column_stack([decay.ravel(), coeffs])
    return params.reshape(*decay.shape, -1), rmse.reshape(decay.shape)


def fit_exp_poly(y: np.ndarray, v: np.ndarray, order: int = DEFAULT_POLY_ORDER):
    """Damped least-squares fit of the decaying-polynomial family.

    Uses variable projection: for a fixed decay rate p_{-1} the polynomial
    coefficients are a linear least-squares solve, so the nonlinear part is
    a 1-D search over p_{-1} >= 0 (coarse log-spaced scan, then a bounded
    refinement around the best bracket).  Returns (params, rmse) with
    params = [p_{-1}, p_0, ..., p_M], or (None, nan) when the system is
    underdetermined.  Runs the sweep's kernel on a one-cell grid (tau = 1,
    a = 0).
    """
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    if len(y) < order + 2:
        return None, float("nan")
    params, rmse = _fit_grid(np.ones_like(y), y, v[:, None], np.zeros(1), order)
    return params[0, 0], float(rmse[0, 0])


def exponent_sweep(ds: CorrelationDataset) -> CollapseResult:
    """Rescale-and-fit of every (a, b) cell of EXPONENT_GRID with the
    order-DEFAULT_POLY_ORDER family; argmin wins.

    One `_fit_grid` pass fits every cell on the calling thread (module
    docstring).  A cell's result does not depend on which other cells
    share its batches: its refinement and final solve round exactly as
    `fit_exp_poly` on that cell alone; its scan, solved with the other b
    columns, rounds differently only in the last bits.  Ties break toward
    smaller a, then smaller b.  Negative retained values are dropped with
    a warning, because the fit family is a positive decaying envelope.
    They are not confined to a finite-size boundary tail: at lam = 100,
    N = 512 and tau_q = 8 to 64 the first negative C^zz lies at x = 44 to
    88, and the profile up to x = 128 is the same at N = 1024 to 4e-9.
    """
    ds_fit = ds
    neg = ds.records[:, 2] < 0
    if np.any(neg):
        logger.warning("dropping %d negative retained correlators",
                       int(np.sum(neg)))
        ds_fit = CorrelationDataset(records=ds.records[~neg],
                                    mask_threshold=ds.mask_threshold)
    if len(ds_fit.tau_values) < 3:
        raise ValueError(
            f"collapse needs >= 3 distinct tau_q values, got {len(ds_fit.tau_values)}"
        )
    tau, x, c = ds_fit.records.T
    v = c[:, None] * tau[:, None] ** EXPONENT_GRID
    if len(x) < DEFAULT_POLY_ORDER + 2:  # every cell is underdetermined
        raise RuntimeError("every grid cell failed to fit")
    params, r = _fit_grid(tau, x, v, EXPONENT_GRID, DEFAULT_POLY_ORDER)
    best_cell = None
    for ia, ib in zip(*np.nonzero(np.isfinite(r))):
        if best_cell is None or r[ia, ib] < best_cell[0] - 1e-15:
            best_cell = (float(r[ia, ib]), ia, ib)
    if best_cell is None:
        raise RuntimeError("every grid cell failed to fit")
    best_rmse, ia, ib = best_cell
    return CollapseResult(rmse=np.where(np.isfinite(r), r, np.nan),
                          best=(float(EXPONENT_GRID[ia]), float(EXPONENT_GRID[ib])),
                          best_params=params[ia, ib],
                          best_rmse=best_rmse,
                          peak_rescaled=float(np.max(np.abs(v[:, ib]))))
