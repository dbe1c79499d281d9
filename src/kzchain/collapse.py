"""Scaling-exponent extraction by data collapse.

Rescale {(tau_q, x, c)} records as y = x / tau_q^a, v = c * tau_q^b on a
square (a, b) grid, fit each cell to the exponentially damped polynomial

    f(y) = exp(-p_{-1} y) * (p_0 + p_1 y + ... + p_M y^M),

and pick the cell with the smallest root-mean-square residual.  The grid
spacing is the resolution of the reported exponents.  Each fit is a
variable projection (Golub & Pereyra, Inverse Problems 19 (2003) R1): a
scan over the decay rate with a linear least-squares solve for the
polynomial at each step.  Since y does not depend on b, the scan runs once
per a, shared by every b.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import minimize_scalar

logger = logging.getLogger(__name__)

__all__ = [
    "CorrelationDataset",
    "GridSpec",
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


@dataclass(frozen=True)
class CorrelationDataset:
    """Masked {(tau_q, x, c)} records feeding the collapse fitter.

    Masking applies to the raw |c| before any rescaling: records with
    |c| < mask_threshold, x < 1, or x > x_max are dropped at
    construction.
    """

    records: np.ndarray  # shape (n, 3): tau_q, x, c
    mask_threshold: float
    x_max: Optional[int] = None
    source_tag: str = ""

    @classmethod
    def from_records(cls, records, mask_threshold: float = DEFAULT_MASK_THEORY,
                     x_max: Optional[int] = None, source_tag: str = ""):
        arr = np.asarray(records, dtype=float).reshape(-1, 3)
        keep = (np.abs(arr[:, 2]) >= mask_threshold) & (arr[:, 1] >= 1)
        if x_max is not None:
            keep &= arr[:, 1] <= x_max
        return cls(records=arr[keep], mask_threshold=mask_threshold,
                   x_max=x_max, source_tag=source_tag)

    @property
    def tau_values(self) -> np.ndarray:
        return np.unique(self.records[:, 0])


@dataclass(frozen=True)
class GridSpec:
    a_min: float = 0.025
    a_max: float = 0.75
    b_min: float = 0.025
    b_max: float = 0.75
    spacing: float = 0.025

    def __post_init__(self):
        if not self.spacing > 0:
            raise ValueError(f"grid spacing must be > 0, got {self.spacing}")
        if not self.a_min <= self.a_max:
            raise ValueError(f"grid a_min {self.a_min} exceeds a_max {self.a_max}")
        if not self.b_min <= self.b_max:
            raise ValueError(f"grid b_min {self.b_min} exceeds b_max {self.b_max}")

    def a_values(self) -> np.ndarray:
        n = int(round((self.a_max - self.a_min) / self.spacing)) + 1
        return self.a_min + self.spacing * np.arange(n)

    def b_values(self) -> np.ndarray:
        n = int(round((self.b_max - self.b_min) / self.spacing)) + 1
        return self.b_min + self.spacing * np.arange(n)


@dataclass(frozen=True)
class CollapseResult:
    grid: GridSpec
    rmse: np.ndarray              # shape (n_a, n_b); NaN marks failed fits
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


def _solve(y: np.ndarray, powers: np.ndarray, v: np.ndarray, decay: float):
    """Polynomial coefficients and RMSE of every column of v at one decay.

    A fully underflowed design yields garbage coefficients; such a column
    scores inf so the scan moves on.
    """
    design = np.exp(-decay * y)[:, None] * powers
    coeffs, *_ = np.linalg.lstsq(design, v, rcond=None)
    with np.errstate(invalid="ignore", over="ignore"):
        resid = design @ coeffs - v
        rmse = np.sqrt(np.mean(resid**2, axis=0))
    usable = np.all(np.isfinite(coeffs), axis=0) & np.isfinite(rmse)
    return coeffs, np.where(usable, rmse, np.inf)


def _decay_scan(y: np.ndarray, powers: np.ndarray, v: np.ndarray) -> np.ndarray:
    """RMSE of each column of v (n, k) at every scanned decay: (62, k)."""
    return np.array([_solve(y, powers, v, d)[1] for d in _DECAY_SCAN])


def _refine(y: np.ndarray, powers: np.ndarray, v: np.ndarray,
            scan_rmse: np.ndarray):
    """Bounded refinement of one column v around its best scanned decay."""
    i = int(np.argmin(scan_rmse))
    lo = _DECAY_SCAN[max(i - 1, 0)]
    hi = _DECAY_SCAN[min(i + 1, len(_DECAY_SCAN) - 1)]
    best_decay = _DECAY_SCAN[i]
    if hi > lo:
        res = minimize_scalar(lambda d: float(_solve(y, powers, v, d)[1]),
                              bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-12})
        if res.fun <= scan_rmse[i]:
            best_decay = float(res.x)
    coeffs, rmse = _solve(y, powers, v, best_decay)
    return np.concatenate([[best_decay], coeffs]), float(rmse)


def fit_exp_poly(y: np.ndarray, v: np.ndarray, order: int = DEFAULT_POLY_ORDER):
    """Damped least-squares fit of the decaying-polynomial family.

    Uses variable projection: for a fixed decay rate p_{-1} the polynomial
    coefficients are a linear least-squares solve, so the nonlinear part is
    a 1-D search over p_{-1} >= 0 (coarse log-spaced scan, then a bounded
    refinement around the best bracket).  Returns (params, rmse) with
    params = [p_{-1}, p_0, ..., p_M], or (None, nan) when the system is
    underdetermined.
    """
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    if len(y) < order + 2:
        return None, float("nan")
    powers = y[:, None] ** np.arange(order + 1)
    scan_rmse = _decay_scan(y, powers, v[:, None])[:, 0]
    return _refine(y, powers, v, scan_rmse)


def exponent_sweep(ds: CorrelationDataset, grid: GridSpec = GridSpec(),
                   order: int = DEFAULT_POLY_ORDER) -> CollapseResult:
    """Per-cell rescale-and-fit over the (a, b) grid; argmin wins.

    y = x / tau^a does not depend on b, so each a runs one decay scan
    whose least-squares solves take every b column at once; each cell
    then refines its own decay as `fit_exp_poly` does.  Ties break toward
    smaller a, then smaller b.  Negative retained values are dropped with
    a warning: the fit family is a positive decaying envelope, and
    sign-flipped points only appear in the finite-size boundary tail past
    the first zero crossing.
    """
    ds_fit = ds
    neg = ds.records[:, 2] < 0
    if np.any(neg):
        logger.warning(
            "dataset %s: dropping %d negative retained correlators in the tail",
            ds.source_tag or "<unnamed>", int(np.sum(neg)),
        )
        ds_fit = CorrelationDataset(records=ds.records[~neg],
                                    mask_threshold=ds.mask_threshold,
                                    x_max=ds.x_max, source_tag=ds.source_tag)
    if len(ds_fit.tau_values) < 3:
        raise ValueError(
            f"collapse needs >= 3 distinct tau_q values, got {len(ds_fit.tau_values)}"
        )
    a_vals = grid.a_values()
    b_vals = grid.b_values()
    rmse = np.full((len(a_vals), len(b_vals)), np.nan)
    best_cell = None
    tau, x, c = ds_fit.records.T
    # with fewer records than order + 2 every cell is underdetermined
    for ia, a in enumerate(a_vals if len(x) >= order + 2 else []):
        y = x / tau**a
        powers = y[:, None] ** np.arange(order + 1)
        v = c[:, None] * tau[:, None] ** b_vals
        scan_rmse = _decay_scan(y, powers, v)
        for ib, b in enumerate(b_vals):
            params, r = _refine(y, powers, v[:, ib], scan_rmse[:, ib])
            if not np.isfinite(r):
                continue
            rmse[ia, ib] = r
            if best_cell is None or r < best_cell[0] - 1e-15:
                best_cell = (r, a, b, params, float(np.max(np.abs(v[:, ib]))))
    if best_cell is None:
        raise RuntimeError("every grid cell failed to fit")
    r, a, b, params, peak = best_cell
    return CollapseResult(grid=grid, rmse=rmse, best=(a, b),
                          best_params=params, best_rmse=r, peak_rescaled=peak)
