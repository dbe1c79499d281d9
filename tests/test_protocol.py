import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kzchain.protocol import (Evolution, QuenchProtocol, Variant, momentum_grid,
                              pseudo_field_components, schedule_at)


class TestSchedule:
    def test_boundaries(self):
        p = QuenchProtocol(tau_q=2.0)
        start = schedule_at(p, -2.0)
        assert start.j == 0.0 and start.h == 2.0
        end = schedule_at(p, 0.0)
        assert end.j == 1.0 and end.h == 1.0

    def test_full_quench_end(self):
        p = QuenchProtocol(tau_q=3.0, variant=Variant.FULL_QUENCH)
        end = schedule_at(p, 3.0)
        assert end.j == 2.0 and end.h == 0.0

    def test_outside_interval_raises(self):
        p = QuenchProtocol(tau_q=1.0)
        with pytest.raises(ValueError):
            schedule_at(p, 0.5)
        with pytest.raises(ValueError):
            schedule_at(p, -1.5)

    @given(st.floats(0.1, 50.0), st.floats(0.0, 1.0))
    def test_couplings_sum_to_two(self, tau_q, frac):
        # J(t) + h(t) = 2 identically along the ramp
        p = QuenchProtocol(tau_q=tau_q)
        t = -tau_q * frac
        s = schedule_at(p, t)
        assert math.isclose(s.j + s.h, 2.0, abs_tol=1e-12)


class TestProtocolValidation:
    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            QuenchProtocol(tau_q=0.0)
        with pytest.raises(ValueError):
            QuenchProtocol(tau_q=-1.0)

    def test_trotter_needs_matching_duration(self):
        # steps * dt must equal the protocol duration
        QuenchProtocol(tau_q=2.0, evolution=Evolution.TROTTER, dt=0.25, steps=8)
        with pytest.raises(ValueError):
            QuenchProtocol(tau_q=2.0, evolution=Evolution.TROTTER, dt=0.25,
                           steps=10)

    def test_trotter_full_quench_duration(self):
        p = QuenchProtocol(tau_q=1.0, variant=Variant.FULL_QUENCH,
                           evolution=Evolution.TROTTER, dt=0.25, steps=8)
        assert p.duration == 2.0
        times = p.step_times()
        assert times[0] == pytest.approx(-0.75)
        assert times[-1] == pytest.approx(1.0)

    def test_continuous_rejects_dt(self):
        with pytest.raises(ValueError):
            QuenchProtocol(tau_q=1.0, dt=0.1)


class TestMomentumGrid:
    def test_half_integer_spacing(self):
        g = momentum_grid(8)
        expected = (2 * np.pi / 8) * (np.arange(4) + 0.5)
        np.testing.assert_allclose(g.modes, expected)
        assert len(g) == 4

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            momentum_grid(7)

    @given(st.integers(1, 128).map(lambda m: 2 * m))
    def test_modes_inside_open_interval(self, n):
        g = momentum_grid(n)
        assert np.all(g.modes > 0) and np.all(g.modes < np.pi)


class TestPseudoField:
    def test_critical_point_gap(self):
        # at J = h the gap 2|h_k| closes as k -> 0
        g = momentum_grid(512)
        hy, hz = pseudo_field_components(g.modes[:1], 1.0, 1.0)
        norm = math.hypot(hy[0], hz[0])
        assert norm == pytest.approx(2.0 * math.sqrt(2 - 2 * math.cos(g.modes[0])), rel=1e-12)
        assert norm < 0.05

    def test_start_of_quench_points_along_z(self):
        hy, hz = pseudo_field_components(momentum_grid(8).modes, 0.0, 2.0)
        assert np.all(hy == 0.0) and np.all(hz == 4.0)

    @given(st.floats(0.01, 3.13), st.floats(0.0, 2.0))
    def test_vectorized_matches_scalar(self, k, j):
        # the closed form h_k = (0, 2J sin k, 2h - 2J cos k), one momentum
        # at a time, against the array evaluation
        h = 2.0 - j
        hy, hz = pseudo_field_components(np.array([k, 0.5 * k]), j, h)
        for i, kk in enumerate([k, 0.5 * k]):
            assert hy[i] == pytest.approx(2.0 * j * math.sin(kk), abs=1e-12)
            assert hz[i] == pytest.approx(2.0 * h - 2.0 * j * math.cos(kk),
                                          abs=1e-12)
