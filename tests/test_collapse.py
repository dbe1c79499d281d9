import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_triangular
from scipy.optimize import minimize_scalar

import kzchain.collapse
from kzchain.collapse import (DEFAULT_POLY_ORDER, EXPONENT_GRID,
                              CorrelationDataset, QKZ_EXPONENTS, QND_EXPONENTS,
                              _bounded_brent, _cond_bound, _fit_grid,
                              _qr_rmse, _solve_cells, exponent_sweep,
                              fit_exp_poly, rescale)

TAUS = [1.0, 2.0, 3.0, 4.0, 6.0, 8.0]

DECAY_SCAN = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 61)])


def _reference_solve(y, powers, v, decay):
    design = np.exp(-decay * y)[:, None] * powers
    coeffs, *_ = np.linalg.lstsq(design, v, rcond=None)
    with np.errstate(invalid="ignore", over="ignore"):
        rmse = float(np.sqrt(np.mean((design @ coeffs - v) ** 2)))
    usable = np.all(np.isfinite(coeffs)) and np.isfinite(rmse)
    return coeffs, rmse if usable else np.inf


def reference_fit(y, v, order=4):
    """The scalar route to one cell's fit, independent of collapse's
    batched kernel: one `np.linalg.lstsq` per scanned decay, then scipy's
    bounded Brent between the scan points either side of the best one."""
    if len(y) < order + 2:
        return None, float("nan")
    powers = y[:, None] ** np.arange(order + 1)
    scan = [_reference_solve(y, powers, v, d)[1] for d in DECAY_SCAN]
    i = int(np.argmin(scan))
    lo = DECAY_SCAN[max(i - 1, 0)]
    hi = DECAY_SCAN[min(i + 1, len(DECAY_SCAN) - 1)]
    decay = DECAY_SCAN[i]
    if hi > lo:
        res = minimize_scalar(lambda d: _reference_solve(y, powers, v, d)[1],
                              bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-12})
        if res.fun <= scan[i]:
            decay = float(res.x)
    coeffs, rmse = _reference_solve(y, powers, v, decay)
    return np.concatenate([[decay], coeffs]), rmse


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

    def test_decay_rate_stays_nonnegative(self):
        # data that grows with y must still fit with p_{-1} >= 0
        y = np.linspace(0.1, 2, 30)
        v = 0.1 + y**2
        params, _ = fit_exp_poly(y, v)
        assert params[0] >= 0.0


class TestBoundedBrent:
    def test_matches_minimize_scalar(self):
        """Every lane takes exactly the steps scipy's bounded Brent takes."""
        rng = np.random.default_rng(11)
        n = 150
        lo = rng.uniform(-2.0, 2.0, n)
        hi = lo + 10.0 ** rng.uniform(-6.0, 1.0, n)
        # minima inside and outside the bracket, some on a kink; some lanes
        # are inf past a wall, as an unusable least-squares fit scores
        centre = rng.uniform(lo - 0.5 * (hi - lo), hi + 0.5 * (hi - lo))
        curv = 10.0 ** rng.uniform(-2.0, 2.0, n)
        quartic = rng.uniform(0.0, 3.0, n) * (rng.random(n) < 0.5)
        kink = rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.3)
        wall = np.where(rng.random(n) < 0.2, rng.uniform(lo, hi), np.inf)

        def f(x, lanes):
            dx = x - centre[lanes]
            val = curv[lanes] * dx * dx + quartic[lanes] * dx * dx * dx * dx \
                + kink[lanes] * np.abs(dx)
            return np.where(x > wall[lanes], np.inf, val)

        x, fun, nfev = _bounded_brent(f, lo, hi)
        for i in range(n):
            with np.errstate(invalid="ignore"):  # scipy's parabola on inf
                res = minimize_scalar(
                    lambda t: float(f(np.array([t]), np.array([i]))[0]),
                    bounds=(lo[i], hi[i]), method="bounded",
                    options={"xatol": 1e-12})
            assert (x[i], fun[i], nfev[i]) == (res.x, res.fun, res.nfev), i
        # the lanes finish at many different iterations, and some at a bound
        assert len(np.unique(nfev)) >= 10
        at_bound = (x - lo < 1e-6 * (hi - lo)) | (hi - x < 1e-6 * (hi - lo))
        assert np.sum(at_bound) >= 10


def _lanes(ys, v, decay):
    """`_qr_rmse` / `_solve_cells` arguments for one lane per (row of ys,
    column of v) pair, each at its own decay."""
    ys = np.asarray(ys, dtype=float)
    powers = ys[:, :, None] ** np.arange(DEFAULT_POLY_ORDER + 1)
    rhs = np.ascontiguousarray(np.asarray(v, dtype=float).T)[:, :, None]
    ia, ib = np.indices((len(ys), rhs.shape[0])).reshape(2, -1)
    return ys, powers, rhs, np.broadcast_to(decay, ia.shape).astype(float), ia, ib


class TestQrScore:
    """The Brent lanes' objective: a certified QR score, else `_lstsq`."""

    @given(m=st.integers(1, 6), grade=st.floats(0.0, 2.0),
           drop=st.floats(0.0, 8.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_cond_bound_is_an_upper_bound(self, m, grade, drop, seed):
        # random, row-graded triangles with one diagonal entry shrunk by up
        # to 1e-8: conditions from 1 to past 1e16
        rng = np.random.default_rng(seed)
        t = np.triu(rng.standard_normal((m, m))) * 10.0 ** (-grade * np.arange(m))[:, None]
        i = rng.integers(m)
        t[i, i] *= 10.0 ** -drop
        # sigma_max of T and of T^-1, each to relative accuracy
        cond = np.linalg.norm(t, 2) * np.linalg.norm(solve_triangular(t, np.eye(m)), 2)
        assert _cond_bound(t) >= cond * (1.0 - 1e-12)

    def test_cond_bound_needs_its_factor_m(self):
        # ones down the last column and a small last pivot: ||T||_inf and
        # ||T^-1||_inf each fall short of the 2-norms, and the bound is
        # only 2 cond with m = 5
        t = np.eye(5)
        t[:, -1] = 1.0
        t[-1, -1] = 1e-6
        cond = np.linalg.norm(t, 2) * np.linalg.norm(solve_triangular(t, np.eye(5)), 2)
        assert cond <= _cond_bound(t) <= 2.01 * cond

    @pytest.fixture
    def fallback(self, monkeypatch):
        """The lane count of each `_solve_cells` call `_qr_rmse` makes."""
        counts = []

        def solve(ys, powers, rhs, decay, ia, ib):
            counts.append(len(decay))
            return _solve_cells(ys, powers, rhs, decay, ia, ib)

        monkeypatch.setattr(kzchain.collapse, "_solve_cells", solve)
        return counts

    def test_uncertified_lanes_score_as_lstsq(self, fallback):
        # rank 2 (two distinct y), fully underflowed (y >= 1 at decay 1e3)
        # and partly underflowed (y from 0.05 at decay 1e3) designs
        rng = np.random.default_rng(4)
        ys = [np.repeat([0.5, 1.5], 10), np.linspace(1.0, 3.0, 20),
              np.linspace(0.05, 2.0, 20)]
        args = _lanes(ys, rng.uniform(0.1, 1.0, (20, 2)), [0.7, 0.7, 1e3, 1e3, 1e3, 1e3])
        rmse = _qr_rmse(*args)
        assert fallback == [6]
        assert np.array_equal(rmse, _solve_cells(*args)[1])

    @pytest.mark.parametrize("planted", [QKZ_EXPONENTS, QND_EXPONENTS, (0.45, 0.15)])
    def test_qr_score_matches_lstsq(self, fallback, planted):
        # every lane of drawn (a, b) cells on noisy planted data, at decays
        # across the refinement's range: all certified, and each within
        # rmse_tolerance of lstsq's RMSE
        rng = np.random.default_rng(8)
        tau, x, c = planted_dataset(*planted).records.T
        c = c * (1.0 + 1e-3 * rng.standard_normal(len(c)))
        a_vals = np.sort(rng.choice(EXPONENT_GRID, 8, replace=False))
        b_vals = np.sort(rng.choice(EXPONENT_GRID, 8, replace=False))
        decay = 10.0 ** rng.uniform(-3.0, 1.0, len(a_vals) * len(b_vals))
        args = _lanes(x / tau ** a_vals[:, None], c[:, None] * tau[:, None] ** b_vals, decay)
        rmse = _qr_rmse(*args)
        assert fallback == []
        coeffs, ref = _solve_cells(*args)
        ys, ia = args[0], args[4]
        for k in range(len(ia)):
            params = np.concatenate([[decay[k]], coeffs[k]])
            assert abs(rmse[k] - ref[k]) <= rmse_tolerance(ys[ia[k]], params, ref[k]), k


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
        `exponent_sweep` builds them; the RMSE has NaN where a fit failed."""
        tau, x, c = ds.records.T
        v = c[:, None] * tau[:, None] ** np.asarray(b_vals)
        params, rmse = _fit_grid(tau, x, v, np.asarray(a_vals), DEFAULT_POLY_ORDER)
        return params, np.where(np.isfinite(rmse), rmse, np.nan)

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
        # independent rescale + fit_exp_poly of every cell
        _, nonneg = self._noisy_planted(a, b, decay, seed)
        params, rmse = self._fit_cells(nonneg, a_vals, b_vals)

        ref = np.full(rmse.shape, np.nan)
        best = None
        for ia, ga in enumerate(a_vals):
            for ib, gb in enumerate(b_vals):
                p, r = fit_exp_poly(*rescale(nonneg, ga, gb))
                if p is None or not np.isfinite(r):
                    continue
                ref[ia, ib] = r
                if best is None or r < best[0] - 1e-15:
                    best = (r, (ia, ib), p)
        np.testing.assert_array_equal(np.isnan(rmse), np.isnan(ref))
        np.testing.assert_allclose(rmse, ref, rtol=1e-12)
        assert np.unravel_index(np.nanargmin(rmse), rmse.shape) == best[1]
        np.testing.assert_allclose(params[best[1]], best[2], rtol=1e-12)

    @given(a=st.floats(0.2, 0.7), b=st.floats(0.05, 0.5),
           decay=st.floats(0.3, 3.0), a_vals=grid_values, b_vals=grid_values,
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=12, deadline=None)
    def test_sweep_matches_scalar_reference(self, a, b, decay, a_vals, b_vals,
                                            seed):
        # the batched QR and SVD kernel against reference_fit, the scalar
        # lstsq + minimize_scalar route; an RMSE may differ by the rounding
        # floor where that exceeds 1e-12 relative (see rmse_tolerance)
        _, nonneg = self._noisy_planted(a, b, decay, seed)
        params, rmse = self._fit_cells(nonneg, a_vals, b_vals)

        ref = np.full(rmse.shape, np.nan)
        tol = np.full(rmse.shape, np.nan)
        best = None
        for ia, ga in enumerate(a_vals):
            for ib, gb in enumerate(b_vals):
                y, v = rescale(nonneg, ga, gb)
                p, r = reference_fit(y, v)
                if p is None or not np.isfinite(r):
                    continue
                ref[ia, ib] = r
                tol[ia, ib] = rmse_tolerance(y, p, r)
                if best is None or r < best[0] - 1e-15:
                    best = (r, (ia, ib))
        np.testing.assert_array_equal(np.isnan(rmse), np.isnan(ref))
        dev = np.abs(rmse - ref)
        assert np.all(np.isnan(ref) | (dev <= tol)), np.nanmax(dev / tol)
        ia, ib = best[1]
        assert np.unravel_index(np.nanargmin(rmse), rmse.shape) == (ia, ib)
        # the decay is fixed only to Brent's stopping tolerance and the
        # polynomial follows it, so the best cell's parameters are checked
        # by the residual they leave
        y, v = rescale(nonneg, a_vals[ia], b_vals[ib])
        assert abs(model_rmse(y, v, params[ia, ib]) - best[0]) <= \
            rmse_tolerance(y, params[ia, ib], best[0])

    def test_rows_match_single_a_sweeps(self):
        # a cell's lanes share batches with other a values in the full
        # sweep and with its own a only in a one-a `_fit_grid` pass
        ds, nonneg = self._noisy_planted(0.3, 0.2, 0.8, seed=9)
        res = exponent_sweep(ds)
        ia_best, ib = (list(EXPONENT_GRID).index(v) for v in res.best)
        rows = np.random.default_rng(9).choice(len(EXPONENT_GRID), 6, replace=False)
        for ia in sorted({ia_best, *rows}):
            params, rmse = self._fit_cells(nonneg, EXPONENT_GRID[ia:ia + 1],
                                           EXPONENT_GRID)
            assert np.array_equal(res.rmse[ia], rmse[0], equal_nan=True), ia
            if ia == ia_best:
                assert rmse[0, ib] == res.best_rmse
                assert np.array_equal(params[0, ib], res.best_params)

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
