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
so the nonlinear part is a 1-D search over the decay.

Every cell scores the best of 62 fixed decay rates.  y does not depend on
b, so every b cell of one a shares its designs, and the scan solves them
for all b columns at once, as one batched SVD per chunk of 16 decays; its
decays run to 1e3, where whole designs underflow, so it keeps the SVD's
rank cutoff.  The cell with the smallest score wins, and only the
winner's decay is refined, by zooming the same batched solve in on the
bracket between the neighbours of its best scan point.  So the RMSE
surface holds each cell's best scanned decay, except the winner's cell,
which holds its refined RMSE.  Refining every cell would lower a score by
well under 1 per cent in the median and by up to 28 per cent on the
recipes' data.  It moves no acceptance or recipe argmin, but on noisy
planted data whose curves fall below the mask within a few y the argmin
of the refined surface can lie one grid step away.
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

def _designs(y: np.ndarray, powers: np.ndarray, decays: np.ndarray) -> np.ndarray:
    """Stacked designs exp(-d y)[:, None] * powers, one per decay: (k, n, m)."""
    return np.exp(-decays[:, None] * y)[:, :, None] * powers


def _lstsq(design: np.ndarray, v: np.ndarray):
    """Minimum-norm least squares of stacked designs (k, n, m) against v.

    v is (n, c), shared by every design, or (k, n, c).  Returns the
    coefficients (k, m, c) and the RMSE of each column (k, c).  As in
    `np.linalg.lstsq`, singular values at or below eps * max(n, m) * s_max
    count as zero.  The fitted values design @ coefficients are formed as
    (design @ V / s) @ (u^T v), V the right singular vectors and s the
    kept singular values: equal in exact arithmetic, but the bracket does
    not involve v.  So a column's RMSE changes with the other columns that
    share its solve by about eps |v|, where design @ coefficients would
    change by eps |design| |coefficients|, up to 1e-9 relative at
    a = 0.025.  The projection u @ (u^T v) would be as independent of the
    batch, but the computed u is off the range of the design by about
    eps cond(design), which moves the RMSE at first order; the bracket is
    the design's own map, so the RMSE stays that of the coefficients.
    Both factors are scaled by 1 / s, except where a kept s is subnormal
    and its reciprocal overflows: there they are divided by s.  A fully
    underflowed design yields garbage coefficients; such a column scores
    inf so the search moves on.
    """
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    keep = s > np.finfo(float).eps * max(design.shape[-2:]) * s[..., :1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
        uv = u.swapaxes(-1, -2) @ v
        left = s_inv[..., None] * uv
        right = design @ vt.swapaxes(-1, -2)
        right *= s_inv[..., None, :]
        for i, j in zip(*np.nonzero(np.isinf(s_inv))):
            left[i, j] = uv[i, j] / s[i, j]
            right[i, :, j] = design[i] @ vt[i, j] / s[i, j]
        coeffs = vt.swapaxes(-1, -2) @ left
        resid = right @ uv
        resid -= v
        np.square(resid, out=resid)
        rmse = np.sqrt(resid.mean(axis=-2))
    usable = np.all(np.isfinite(coeffs), axis=-2) & np.isfinite(rmse)
    return coeffs, np.where(usable, rmse, np.inf)


def _scores(y: np.ndarray, powers: np.ndarray, v: np.ndarray,
            decays: np.ndarray) -> np.ndarray:
    """The RMSE (k, c) of every decay against every column of v, solved
    _SCAN_CHUNK decays at a time, so the temporaries stay those of one
    chunk however many decays are scored."""
    return np.concatenate([
        _lstsq(_designs(y, powers, decays[k:k + _SCAN_CHUNK]), v)[1]
        for k in range(0, len(decays), _SCAN_CHUNK)])


def _zoom(y: np.ndarray, powers: np.ndarray, v: np.ndarray, lo: float, hi: float):
    """The decay in [lo, hi] that scores lowest on the one column v (n, 1),
    and its RMSE.

    A bracket can hold several local minima, so the first pass scores
    4 * _SCAN_CHUNK evenly spaced decays by the scan's chunked solve, and
    each local minimum among them is zoomed in on: each later pass scores
    _SCAN_CHUNK decays between the neighbours of the best point before,
    until both neighbours score within 4 eps of the best point, relative,
    or lie within 1e-12 + 4 eps d of each other.  The lowest end wins.
    """
    eps = np.finfo(float).eps
    d = np.linspace(lo, hi, 4 * _SCAN_CHUNK)
    r = _scores(y, powers, v, d)[:, 0]
    best = (lo, np.inf)
    # a plateau counts once, at its left end; unusable decays never count
    below_left = r < np.append(np.inf, r[:-1])
    for m in np.nonzero(below_left & (r <= np.append(r[1:], np.inf)))[0]:
        e, s = d, r
        while True:
            left, right = max(m - 1, 0), min(m + 1, len(e) - 1)
            if (e[right] - e[left] <= 1e-12 + 4 * eps * e[m]
                    or max(s[left], s[right]) <= s[m] * (1 + 4 * eps)):
                break
            e = np.linspace(e[left], e[right], _SCAN_CHUNK)
            s = _scores(y, powers, v, e)[:, 0]
            m = int(np.argmin(s))
        best = min(best, (e[m], s[m]), key=lambda b: b[1])
    return best


def _fit_grid(tau: np.ndarray, x: np.ndarray, v: np.ndarray,
              a_vals: np.ndarray, order: int):
    """Variable-projection fit of every (a, b) cell of the grid.

    Cell (i, j) fits column j of v (n, n_b) against y = x / tau**a_vals[i].
    Each a scans the decay rate over _DECAY_SCAN in chunks of batched
    solves that take every b column at once, and each cell scores its best
    scanned decay.  The cell with the smallest score wins, ties within
    1e-15 broken toward smaller a, then smaller b.  Only the winner's decay
    is refined, by `_zoom` between the scan points either side of its best
    one, and kept if it scores no worse than the scan; the RMSE of its
    final solve replaces its score.
    Returns the RMSE (n_a, n_b), inf where no scanned decay gives a usable
    fit, the winning cell (i, j) and its params [p_{-1}, p_0, ..., p_M];
    the cell and params are None where no cell is usable.
    """
    ys = np.array([x / tau**a for a in a_vals])
    powers = ys[:, :, None] ** np.arange(order + 1)
    scan = np.array([_scores(y, p, v, _DECAY_SCAN) for y, p in zip(ys, powers)])
    rmse = scan.min(axis=1)
    cell = None
    for i, j in zip(*np.nonzero(np.isfinite(rmse))):
        if cell is None or rmse[i, j] < rmse[cell] - 1e-15:
            cell = (int(i), int(j))
    if cell is None:
        return rmse, None, None
    i, j = cell
    # the winner's column on its own, contiguous, so that its solves round
    # exactly as they do in `fit_exp_poly` of that cell
    y, p, col = ys[i], powers[i], v[:, [j]]
    k = int(np.argmin(scan[i, :, j]))
    x_opt, fun = _zoom(y, p, col, _DECAY_SCAN[max(k - 1, 0)],
                       _DECAY_SCAN[min(k + 1, len(_DECAY_SCAN) - 1)])
    decay = x_opt if fun <= rmse[i, j] else _DECAY_SCAN[k]
    coeffs, r = _lstsq(_designs(y, p, np.array([decay])), col)
    rmse[i, j] = r[0, 0]
    return rmse, cell, np.concatenate([[decay], coeffs[0, :, 0]])


def fit_exp_poly(y: np.ndarray, v: np.ndarray, order: int = DEFAULT_POLY_ORDER):
    """Damped least-squares fit of the decaying-polynomial family.

    Uses variable projection: for a fixed decay rate p_{-1} the polynomial
    coefficients are a linear least-squares solve, so the nonlinear part is
    a 1-D search over p_{-1} >= 0 (coarse log-spaced scan, then a zoom
    into the bracket around its best point).  Returns (params, rmse) with
    params = [p_{-1}, p_0, ..., p_M], or (None, nan) when the system is
    underdetermined and (None, inf) when no scanned decay gives a usable
    fit.  Runs the sweep's kernel on a one-cell grid (tau = 1, a = 0), whose
    one cell is its winner.
    """
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    if len(y) < order + 2:
        return None, float("nan")
    rmse, _, params = _fit_grid(np.ones_like(y), y, v[:, None], np.zeros(1), order)
    return params, float(rmse[0, 0])


def exponent_sweep(ds: CorrelationDataset) -> CollapseResult:
    """Rescale-and-fit of every (a, b) cell of EXPONENT_GRID with the
    order-DEFAULT_POLY_ORDER family; argmin wins.

    One `_fit_grid` pass scores every cell by its best scanned decay and
    refines only the winner (module docstring), so `rmse` holds the scan
    score of every cell but the winner's, which is `best_rmse`.  The
    winner's refinement and final solve round exactly as `fit_exp_poly` on
    that cell alone; the scan, solved with the other b columns, rounds
    differently only in the last bits.  Ties break toward smaller a, then
    smaller b.  Negative retained values are dropped with a warning,
    because the fit family is a positive decaying envelope.  They are not
    confined to a finite-size boundary tail: at lam = 100, N = 512 and
    tau_q = 8 to 64 the first negative C^zz lies at x = 44 to 88, and the
    profile up to x = 128 is the same at N = 1024 to 4e-9.
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
    r, cell, params = _fit_grid(tau, x, v, EXPONENT_GRID, DEFAULT_POLY_ORDER)
    if cell is None:
        raise RuntimeError("every grid cell failed to fit")
    ia, ib = cell
    return CollapseResult(rmse=np.where(np.isfinite(r), r, np.nan),
                          best=(float(EXPONENT_GRID[ia]), float(EXPONENT_GRID[ib])),
                          best_params=params,
                          best_rmse=float(r[ia, ib]),
                          peak_rescaled=float(np.max(np.abs(v[:, ib]))))
