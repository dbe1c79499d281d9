import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize_scalar

from kzchain.collapse import (DEFAULT_POLY_ORDER, EXPONENT_GRID,
                              CorrelationDataset, QKZ_EXPONENTS, QND_EXPONENTS,
                              _designs, _fit_grid, _lstsq,
                              exponent_sweep, fit_exp_poly, rescale)

TAUS = [1.0, 2.0, 3.0, 4.0, 6.0, 8.0]

DECAY_SCAN = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 61)])


def _reference_solve(y, powers, v, decay):
    design = np.exp(-decay * y)[:, None] * powers
    coeffs, *_ = np.linalg.lstsq(design, v, rcond=None)
    with np.errstate(invalid="ignore", over="ignore"):
        rmse = float(np.sqrt(np.mean((design @ coeffs - v) ** 2)))
    usable = np.all(np.isfinite(coeffs)) and np.isfinite(rmse)
    return coeffs, rmse if usable else np.inf


def reference_fit(y, v, order=4, refine=True):
    """The scalar route to one cell's fit, independent of collapse's
    batched kernel: one `np.linalg.lstsq` per scanned decay, then, with
    refine, the best of 1001 evenly spaced decays between the scan points
    either side of the best one, and again of 1001 between the neighbours
    of that best point, polished by scipy's Brent from its neighbours
    where both score higher; the polish is kept only inside that bracket
    and where it scores lower, and the refined decay only where it scores
    no worse than the scan."""
    if len(y) < order + 2:
        return None, float("nan")
    powers = y[:, None] ** np.arange(order + 1)

    def score(d):
        return _reference_solve(y, powers, v, d)[1]

    scan = [score(d) for d in DECAY_SCAN]
    i = int(np.argmin(scan))
    decay = DECAY_SCAN[i]
    if refine:
        lo = DECAY_SCAN[max(i - 1, 0)]
        hi = DECAY_SCAN[min(i + 1, len(DECAY_SCAN) - 1)]
        for _ in range(2):
            d = np.linspace(lo, hi, 1001)
            r = [score(x) for x in d]
            j = int(np.argmin(r))
            lo, hi = d[max(j - 1, 0)], d[min(j + 1, len(d) - 1)]
        best, fun = d[j], r[j]
        if 0 < j < len(d) - 1 and r[j + 1] > r[j]:  # a strict bracket
            res = minimize_scalar(score, bracket=(d[j - 1], d[j], d[j + 1]),
                                  method="brent", tol=1e-14)
            if d[0] <= res.x <= d[-1] and res.fun < fun:
                best, fun = float(res.x), res.fun
        if fun <= scan[i]:
            decay = best
    coeffs, rmse = _reference_solve(y, powers, v, decay)
    return np.concatenate([[decay], coeffs]), rmse


def scan_rmse(y, v, order=4):
    """One cell's score on its own: the best RMSE of collapse's `_lstsq`
    over the scanned decays, with v as its only column; NaN where no
    scanned decay gives a usable fit."""
    powers = y[:, None] ** np.arange(order + 1)
    rmse = np.min(_lstsq(_designs(y, powers, DECAY_SCAN), v[:, None])[1])
    return rmse if np.isfinite(rmse) else np.nan


def grid_argmin(rmse):
    """The winner by the sweep's tie rule: in (a, b) order, a finite cell
    takes over only by beating the current best by more than 1e-15."""
    best = None
    for cell in zip(*np.nonzero(np.isfinite(rmse))):
        if best is None or rmse[cell] < rmse[best] - 1e-15:
            best = cell
    return best


def _model_design(y, params):
    return np.exp(-params[0] * y)[:, None] * y[:, None] ** np.arange(len(params) - 1)


def model_rmse(y, v, params):
    """RMSE left on (y, v) by the damped polynomial with these params."""
    return float(np.sqrt(np.mean((_model_design(y, params) @ params[1:] - v) ** 2)))


def rmse_tolerance(y, params, rmse):
    """How far two backward-stable least-squares routes may disagree on
    one fit's RMSE: 1e-12 relative, or, where larger, the rounding floor
    (M + 1) eps rms(|D| |p|) of the residual D p - v.  The floor exceeds
    1e-12 relative only where large cancelling coefficients make the fit
    ill-conditioned (e.g. |p| ~ 5e11 at a = 0.025 on planted data)."""
    floor = (len(params) - 1) * np.finfo(float).eps * np.sqrt(
        np.mean((np.abs(_model_design(y, params)) @ np.abs(params[1:])) ** 2))
    return max(1e-12 * rmse, floor)


def planted_dataset(a, b, taus=TAUS, x_max=40, decay=1.2, mask=5e-4):
    """Records that collapse exactly onto f(y) = (1 + y) exp(-decay*y)."""
    records = []
    for tau in taus:
        for x in range(1, x_max + 1):
            y = x / tau**a
            c = (1.0 + y) * np.exp(-decay * y) / tau**b
            records.append((tau, x, c))
    return CorrelationDataset.from_records(records, mask_threshold=mask)


class TestDataset:
    def test_masking_drops_small_values_and_x0(self):
        recs = [(1.0, 0, 0.9), (1.0, 1, 0.5), (1.0, 2, 1e-5), (2.0, 1, 0.4)]
        ds = CorrelationDataset.from_records(recs, mask_threshold=5e-4)
        assert len(ds.records) == 2
        assert set(ds.records[:, 0]) == {1.0, 2.0}

    def test_rescale_preserves_count(self):
        ds = planted_dataset(0.5, 0.125)
        y, v = rescale(ds, 0.5, 0.125)
        assert len(y) == len(v) == len(ds.records)


class TestFitFamily:
    def test_exact_model_recovered(self):
        y = np.linspace(0.1, 5, 60)
        v = np.exp(-0.8 * y) * (0.9 + 0.3 * y)
        params, rmse = fit_exp_poly(y, v)
        assert rmse < 1e-10
        # the polynomial can absorb small shifts of the decay rate, so at
        # machine-precision residuals p_{-1} is only identifiable to ~1e-3
        assert params[0] == pytest.approx(0.8, abs=1e-2)

    def test_underdetermined_returns_nan(self):
        params, rmse = fit_exp_poly(np.ones(3), np.ones(3))
        assert params is None and np.isnan(rmse)

    @given(decay=st.floats(0.0, 4.0), order=st.integers(1, 4),
           extra=st.integers(3, 100), seed=st.integers(0, 2**32 - 1))
    # a bracket with two local minima, where a bounded Brent from the
    # bracket's golden point stopped in the worse, at 1.93 times the RMSE
    @example(decay=1.5, order=4, extra=8, seed=59)
    # four y from 6.19 to 7.10: the design's smallest kept singular value
    # is subnormal near the best decay, so 1 / s overflows there
    @example(decay=1.5, order=1, extra=3, seed=45734)
    @settings(max_examples=25, deadline=None)
    def test_matches_scalar_reference(self, decay, order, extra, seed):
        # with n = order + 2 points the family interpolates and both RMSEs
        # are rounding noise, so the routes are compared from order + 3 on
        n = order + extra
        rng = np.random.default_rng(seed)
        y = np.sort(rng.uniform(0.05, 8.0, n))
        poly = y[:, None] ** np.arange(order + 1) @ rng.uniform(-1.0, 1.0, order + 1)
        v = np.exp(-decay * y) * poly + 1e-3 * rng.standard_normal(n)
        params, rmse = fit_exp_poly(y, v, order)
        ref_params, ref_rmse = reference_fit(y, v, order)
        assert params.shape == ref_params.shape == (order + 2,)
        assert params[0] >= 0.0
        assert abs(rmse - ref_rmse) <= rmse_tolerance(y, ref_params, ref_rmse)
        assert abs(model_rmse(y, v, params) - ref_rmse) <= \
            rmse_tolerance(y, params, ref_rmse)

    def test_degenerate_designs_score_as_lstsq(self):
        # rank 2 (two distinct y), fully underflowed (y >= 1 at decay 1e3)
        # and partly underflowed (y from 0.05 at decay 1e3) designs, each
        # solved against two columns at once
        v = np.random.default_rng(4).uniform(0.1, 1.0, (20, 2))
        for y, decay in [(np.repeat([0.5, 1.5], 10), 0.7),
                         (np.linspace(1.0, 3.0, 20), 1e3),
                         (np.linspace(0.05, 2.0, 20), 1e3)]:
            powers = y[:, None] ** np.arange(DEFAULT_POLY_ORDER + 1)
            rmse = _lstsq(_designs(y, powers, np.array([decay])), v)[1][0]
            for j in range(2):
                coeffs, ref = _reference_solve(y, powers, v[:, j], decay)
                params = np.concatenate([[decay], coeffs])
                assert abs(rmse[j] - ref) <= rmse_tolerance(y, params, ref), (decay, j)

    def test_decay_rate_stays_nonnegative(self):
        # data that grows with y must still fit with p_{-1} >= 0
        y = np.linspace(0.1, 2, 30)
        v = 0.1 + y**2
        params, _ = fit_exp_poly(y, v)
        assert params[0] >= 0.0


class TestExponentSweep:
    @pytest.mark.parametrize("planted", [
        QKZ_EXPONENTS,
        (0.325, 0.075),   # nearest grid point to the crossover pair
        (0.45, 0.15),
    ])
    def test_planted_exponents_recovered(self, planted):
        ds = planted_dataset(*planted)
        res = exponent_sweep(ds)
        assert res.best == pytest.approx(planted, abs=1e-12)
        assert all(type(v) is float for v in res.best)

    def test_rmse_surface_shape_and_minimum(self):
        ds = planted_dataset(0.5, 0.125)
        res = exponent_sweep(ds)
        assert res.rmse.shape == (len(EXPONENT_GRID), len(EXPONENT_GRID))
        ia = np.argmin(np.abs(EXPONENT_GRID - 0.5))
        ib = np.argmin(np.abs(EXPONENT_GRID - 0.125))
        assert np.nanmin(res.rmse) == res.rmse[ia, ib] == res.best_rmse

    def test_too_few_quench_times_rejected(self):
        ds = planted_dataset(0.5, 0.125, taus=[1.0, 2.0])
        with pytest.raises(ValueError):
            exponent_sweep(ds)

    def test_negative_tail_dropped_with_warning(self, caplog):
        ds = planted_dataset(0.5, 0.125)
        recs = ds.records.copy()
        # graft an oscillating boundary tail onto each curve
        tail = np.array([[tau, 45.0 + i, (-1) ** i * 2e-3]
                         for tau in TAUS for i in range(6)])
        noisy = CorrelationDataset(records=np.vstack([recs, tail]),
                                   mask_threshold=ds.mask_threshold)
        with caplog.at_level(logging.WARNING, logger="kzchain.collapse"):
            res = exponent_sweep(noisy)
        assert "negative" in caplog.text
        assert res.best == pytest.approx((0.5, 0.125), abs=0.026)

    def test_refine_peak_memory(self):
        # the winner's zoom solves its first 4 * _SCAN_CHUNK decays a chunk
        # at a time, like the scan: a second sweep of this dataset peaks at
        # 1.27 MB, and at 1.69 MB when those decays were one batch
        ds = planted_dataset(0.5, 0.125, taus=(4, 8, 12, 16), x_max=96)
        exponent_sweep(ds)
        tracemalloc.start()
        try:
            exponent_sweep(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.45e6

    def test_too_few_records_fail_every_cell(self):
        # three quench times, but fewer records than the order-4 fit needs
        ds = CorrelationDataset.from_records(
            [(1.0, 1, 0.5), (2.0, 1, 0.4), (3.0, 1, 0.3), (3.0, 2, 0.1),
             (3.0, 3, 0.05)])
        with pytest.raises(RuntimeError, match="every grid cell failed to fit"):
            exponent_sweep(ds)

    @staticmethod
    def _noisy_planted(a, b, decay, seed):
        clean = planted_dataset(a, b, decay=decay)
        rng = np.random.default_rng(seed)
        recs = clean.records.copy()
        recs[:, 2] *= 1.0 + 1e-3 * rng.standard_normal(len(recs))
        tail = np.array([[tau, 45.0 + i, (-1) ** i * 2e-3]
                         for tau in TAUS for i in range(6)])
        ds = CorrelationDataset(records=np.vstack([recs, tail]),
                                mask_threshold=clean.mask_threshold)
        nonneg = CorrelationDataset(records=ds.records[ds.records[:, 2] >= 0],
                                    mask_threshold=ds.mask_threshold)
        return ds, nonneg

    @staticmethod
    def _fit_cells(ds, a_vals, b_vals):
        """`_fit_grid` of the (a, b) cells, b columns built as
        `exponent_sweep` builds them: the RMSE, NaN where a fit failed, the
        winning cell and its params."""
        tau, x, c = ds.records.T
        v = c[:, None] * tau[:, None] ** np.asarray(b_vals)
        rmse, cell, params = _fit_grid(tau, x, v, np.asarray(a_vals),
                                       DEFAULT_POLY_ORDER)
        return np.where(np.isfinite(rmse), rmse, np.nan), cell, params

    # a few values of the exponent grid: every cell of the full grid would
    # cost about 3 s per example against the references
    grid_values = st.lists(st.sampled_from(EXPONENT_GRID.tolist()), min_size=4,
                           max_size=8, unique=True).map(sorted)

    @given(a=st.floats(0.2, 0.7), b=st.floats(0.05, 0.5),
           decay=st.floats(0.3, 3.0), a_vals=grid_values, b_vals=grid_values,
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=12, deadline=None)
    def test_sweep_matches_per_cell_fits(self, a, b, decay, a_vals, b_vals, seed):
        # fitting all b cells of an a together must reproduce an
        # independent rescale + decay scan of every cell, and the winner an
        # independent fit_exp_poly of its cell
        _, nonneg = self._noisy_planted(a, b, decay, seed)
        rmse, cell, params = self._fit_cells(nonneg, a_vals, b_vals)

        ref = np.array([[scan_rmse(*rescale(nonneg, ga, gb)) for gb in b_vals]
                        for ga in a_vals])
        assert cell == grid_argmin(ref)
        p, r = fit_exp_poly(*rescale(nonneg, a_vals[cell[0]], b_vals[cell[1]]))
        np.testing.assert_allclose(params, p, rtol=1e-12)
        ref[cell] = r
        np.testing.assert_array_equal(np.isnan(rmse), np.isnan(ref))
        np.testing.assert_allclose(rmse, ref, rtol=1e-12)
        assert np.unravel_index(np.nanargmin(rmse), rmse.shape) == cell

    @given(a=st.floats(0.2, 0.7), b=st.floats(0.05, 0.5),
           decay=st.floats(0.3, 3.0), a_vals=grid_values, b_vals=grid_values,
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=12, deadline=None)
    def test_sweep_matches_scalar_reference(self, a, b, decay, a_vals, b_vals,
                                            seed):
        # the batched SVD kernel against the scalar lstsq route: every cell
        # against its scan, and the winner against reference_fit's dense
        # scan and Brent polish; an RMSE may differ by the rounding floor where
        # that exceeds 1e-12 relative (see rmse_tolerance)
        _, nonneg = self._noisy_planted(a, b, decay, seed)
        rmse, cell, params = self._fit_cells(nonneg, a_vals, b_vals)

        ref = np.full(rmse.shape, np.nan)
        tol = np.full(rmse.shape, np.nan)
        for ia, ga in enumerate(a_vals):
            for ib, gb in enumerate(b_vals):
                y, v = rescale(nonneg, ga, gb)
                p, r = reference_fit(y, v, refine=False)
                if p is not None and np.isfinite(r):
                    ref[ia, ib] = r
                    tol[ia, ib] = rmse_tolerance(y, p, r)
        assert cell == grid_argmin(ref)
        y, v = rescale(nonneg, a_vals[cell[0]], b_vals[cell[1]])
        p, r = reference_fit(y, v)
        ref[cell], tol[cell] = r, rmse_tolerance(y, p, r)
        np.testing.assert_array_equal(np.isnan(rmse), np.isnan(ref))
        dev = np.abs(rmse - ref)
        assert np.all(np.isnan(ref) | (dev <= tol)), np.nanmax(dev / tol)
        assert np.unravel_index(np.nanargmin(rmse), rmse.shape) == cell
        # the decay is fixed only to the zoom's stopping tolerance and the
        # polynomial follows it, so the winner's parameters are checked by
        # the residual they leave
        assert abs(model_rmse(y, v, params) - r) <= rmse_tolerance(y, params, r)

    def test_rows_match_single_a_sweeps(self):
        # a row's scan shares its batches with no other a, so a one-a
        # `_fit_grid` pass gives the row of the full sweep bit for bit,
        # except where one of the two refined its winner
        ds, nonneg = self._noisy_planted(0.3, 0.2, 0.8, seed=9)
        res = exponent_sweep(ds)
        ia_best, ib_best = (list(EXPONENT_GRID).index(v) for v in res.best)
        rows = np.random.default_rng(9).choice(len(EXPONENT_GRID), 6, replace=False)
        for ia in sorted({ia_best, *rows}):
            rmse, (_, ib), params = self._fit_cells(
                nonneg, EXPONENT_GRID[ia:ia + 1], EXPONENT_GRID)
            if ia == ia_best:
                # the sweep's winner wins its row and is refined the same
                assert ib == ib_best
                assert rmse[0, ib] == res.best_rmse
                assert np.array_equal(params, res.best_params)
                assert np.array_equal(res.rmse[ia], rmse[0], equal_nan=True)
            else:
                scan = np.arange(len(EXPONENT_GRID)) != ib
                assert np.array_equal(res.rmse[ia, scan], rmse[0, scan],
                                      equal_nan=True), ia

    def test_normalization_uses_peak(self):
        ds = planted_dataset(0.45, 0.15)
        res = exponent_sweep(ds)
        assert res.normalized_best_rmse == pytest.approx(
            res.best_rmse / res.peak_rescaled)
        assert res.peak_rescaled > 0


class TestGridSpec:
    """The fixed exponent grid, EXPONENT_GRID."""

    def test_default_grid_contains_reference_pairs(self):
        np.testing.assert_allclose(EXPONENT_GRID, 0.025 * np.arange(1, 31),
                                   rtol=0, atol=1e-12)
        assert EXPONENT_GRID.max() <= 0.75
        for a, b in (QKZ_EXPONENTS, (0.325, 0.075), (0.45, 0.15), (0.025, 0.475),
                     (0.025, 0.325)):
            assert np.min(np.abs(EXPONENT_GRID - a)) < 1e-9
            assert np.min(np.abs(EXPONENT_GRID - b)) < 1e-9
