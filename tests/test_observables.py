import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kzchain.correlators import fermion_correlators
from kzchain.mode_dynamics import run_quench
from kzchain.observables import (RunRecord, defect_density, excess_energy,
                                 power_law_fit, residual_energy, run_record,
                                 total_energy)
from kzchain.protocol import QuenchProtocol, Variant, trotter_protocol

from conftest import ground_state_ensemble


class TestEnergy:
    @given(st.floats(0.1, 3.0), st.floats(0.1, 3.0),
           st.sampled_from([4, 8, 10, 16]))
    @settings(max_examples=30, deadline=None)
    def test_ground_state_energy_calibration(self, j, h, n):
        """Vacuum energy must be -h*N + sum_k (h_k^z - |h_k|)."""
        e = ground_state_ensemble(n, j, h)
        k = e.grid.modes
        hy = 2 * j * np.sin(k)
        hz = 2 * h - 2 * j * np.cos(k)
        expected = -h * n + np.sum(hz) - np.sum(np.sqrt(hy**2 + hz**2))
        assert total_energy(e) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_ground_state_residual_vanishes(self):
        e = ground_state_ensemble(16, 1.3, 0.7)
        assert residual_energy(e) == pytest.approx(0.0, abs=1e-12)

    def test_quench_raises_residual(self):
        p = QuenchProtocol(tau_q=1.0)
        e = run_quench(p, 32, lam=0.0, sample_times=[0.0])[0]
        assert residual_energy(e) > 0.1

    def test_residual_is_total_minus_vacuum(self):
        p = QuenchProtocol(tau_q=2.0)
        e = run_quench(p, 32, lam=0.0, sample_times=[0.0])[0]
        vac = ground_state_ensemble(32, 1.0, 1.0)
        assert residual_energy(e) == pytest.approx(
            total_energy(e) - total_energy(vac), rel=1e-10)


class TestEndOfQuenchIdentity:
    def test_residual_energy_counts_defects(self):
        """At t = +tau_q the couplings are (J, h) = (2, 0), a classical
        Ising chain where each kink costs 2J = 4, so E_res/N = 4 n_def."""
        p = QuenchProtocol(tau_q=1.5, variant=Variant.FULL_QUENCH)
        e = run_quench(p, 64, lam=0.0, sample_times=[1.5])[0]
        n_def = defect_density(fermion_correlators(e))
        assert residual_energy(e) / 64 == pytest.approx(4.0 * n_def, abs=1e-10)


class TestDefectAnchors:
    def test_landau_zener_density(self):
        """A lambda = 0 full quench leaves mode k excited with the
        Landau-Zener probability exp(-pi tau_q k^2), so that
        n_def -> 1 / (2 pi sqrt(tau_q)) (Zurek, Dorner & Zoller, PRL 95,
        105701 (2005); Dziarmaga, PRL 95, 245701 (2005)).  At N = 1024 and
        tau_q = 64 the pipeline is 1.15e-4 from it."""
        tau_q = 64.0
        p = QuenchProtocol(tau_q=tau_q, variant=Variant.FULL_QUENCH)
        e = run_quench(p, 1024, lam=0.0)[0]
        n_def = defect_density(fermion_correlators(e))
        assert abs(2.0 * math.pi * n_def * math.sqrt(tau_q) - 1.0) < 2e-4

    @pytest.mark.parametrize("tau_q", [32.0, 64.0, 128.0])
    @pytest.mark.parametrize("dt", [0.5, 0.1])
    def test_trotter_floquet_landau_zener_density(self, dt, tau_q):
        """One Trotter step composes a rotation by 4h dt about z and one
        by 4J dt about the Ising axis, tilted by k, so its quasi-energy
        obeys cos(e/2) = cos(2h dt) cos(2J dt) + sin(2h dt) sin(2J dt) cos k.
        At the crossing, J = h = 1, e ~ 2 sin(2 dt) |k| against the
        continuous 4 dt |k|: the gap shrinks by s = sin(2 dt) / (2 dt)
        while the k = 0 splitting sweeps at the continuous rate, so
        Landau-Zener gives exp(-pi tau_q s^2 k^2) and 2 pi n_def
        sqrt(tau_q) -> 2 dt / sin(2 dt) after a full quench.  At N = 1024
        the gap is -3.5e-3, -1.1e-3 and -7.7e-4 at dt = 0.5 and -1.2e-3,
        -4.9e-4 and -2.8e-4 at dt = 0.1, for tau_q = 32, 64 and 128."""
        p = trotter_protocol(dt, round(2.0 * tau_q / dt), Variant.FULL_QUENCH)
        n_def = defect_density(fermion_correlators(run_quench(p, 1024, 0.0)[-1]))
        scaled = 2.0 * math.pi * n_def * math.sqrt(tau_q)
        assert abs(scaled - 2.0 * dt / math.sin(2.0 * dt)) < 0.2 / tau_q

    @staticmethod
    def _end_density(tau_q, lam):
        p = QuenchProtocol(tau_q=tau_q, variant=Variant.FULL_QUENCH)
        return defect_density(fermion_correlators(run_quench(p, 512, lam)[0]))

    @staticmethod
    def _flip_probability(kappa):
        """p(kappa) of one scaled, dephasing-only mode: in s = tan(theta),
        theta the angle of the field from -pi/2 to pi/2,
        m_par' = -m_perp / (1 + s^2) and
        m_perp' = m_par / (1 + s^2) - kappa (1 + s^2) m_perp, from (1, 0),
        and p = (1 - m_par(inf)) / 2.  The ends |s| > 30 only precess by
        under 1/30 and are dropped: that moves C_QND by about 4e-6."""
        from scipy.integrate import solve_ivp

        def rhs(s, m):
            w = 1.0 + s * s
            return [-m[1] / w, m[0] / w - kappa * w * m[1]]

        sol = solve_ivp(rhs, (-30.0, 30.0), [1.0, 0.0], method="LSODA",
                        rtol=1e-8, atol=1e-10)
        assert sol.success
        return 0.5 * (1.0 - sol.y[0, -1])

    def test_strong_dephasing_density(self):
        """Where dephasing dominates (Lambda = lam / sqrt(tau_q) -> inf),
        mode k ends flipped with p(8 lam tau_q k^3), so
        n_def (lam tau_q)^(1/3) -> C_QND = (1 / 2 pi) int_0^inf p(u^3) du:
        the exponent 1/3 of QND_EXPONENTS seen directly.  Adiabatic
        elimination alone would give 0.1138; the modes below
        k ~ (8 lam tau_q)^(-1/3) pass diabatically and end inverted."""
        flips = [self._flip_probability(k) for k in (1e-3, 0.1, 1.0, 10.0, 100.0)]
        assert flips == pytest.approx([0.987, 0.762, 0.343, 0.0554, 0.0059],
                                      rel=1e-2)
        # 32 Gauss-Legendre nodes on u in [0, 8], and the p ~ c / kappa
        # tail beyond, which adds about 7e-4
        x, w = np.polynomial.legendre.leggauss(32)
        body = 4.0 * w @ [self._flip_probability((4.0 * (xi + 1.0)) ** 3)
                          for xi in x]
        tail = self._flip_probability(512.0) * 512.0 / (2.0 * 8.0**2)
        c_qnd = (body + tail) / (2.0 * math.pi)
        assert c_qnd == pytest.approx(0.1512, abs=2e-4)
        lam, tau_q = 100.0, 16.0
        scaled = self._end_density(tau_q, lam) * (lam * tau_q) ** (1.0 / 3.0)
        assert abs(scaled - c_qnd) < 3e-3

    def test_crossover_variable_collapses_density(self):
        """Up to O(1 / tau_q) a mode's fate depends on lam and tau_q only
        through Lambda = lam / sqrt(tau_q), so at Lambda = 1 the scaled
        density 2 pi n_def sqrt(tau_q) is the same at tau_q = 16 and 64
        (0.9193 and 0.9202); at lam = 0 it is 1."""
        scaled = [2.0 * math.pi * self._end_density(tau_q, math.sqrt(tau_q))
                  * math.sqrt(tau_q) for tau_q in (16.0, 64.0)]
        assert abs(scaled[0] - scaled[1]) < 1e-2


class TestExcessEnergy:
    def test_self_comparison_is_zero(self):
        p = QuenchProtocol(tau_q=2.0)
        clean = run_quench(p, 16, lam=0.0, sample_times=[0.0])[0]
        assert excess_energy(clean, clean) == 0.0

    def test_decoherence_heats(self):
        p = QuenchProtocol(tau_q=2.0)
        clean = run_quench(p, 16, lam=0.0, sample_times=[0.0])[0]
        noisy = run_quench(p, 16, lam=0.5, sample_times=[0.0])[0]
        assert excess_energy(noisy, clean) > 0.0

    def test_mismatched_reference_rejected(self):
        p = QuenchProtocol(tau_q=2.0)
        clean = run_quench(p, 16, lam=0.0, sample_times=[0.0])[0]
        noisy = run_quench(p, 16, lam=0.5, sample_times=[0.0])[0]
        with pytest.raises(ValueError):
            excess_energy(clean, noisy)  # reference must be lam = 0
        other = run_quench(QuenchProtocol(tau_q=3.0), 16, lam=0.0,
                           sample_times=[0.0])[0]
        with pytest.raises(ValueError):
            excess_energy(noisy, other)


class TestPowerLawFit:
    @given(st.floats(0.1, 10.0), st.floats(-2.0, 2.0))
    @settings(max_examples=50)
    def test_exact_recovery(self, amp, beta):
        tau = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        y = amp * tau ** (-beta)
        a_fit, b_fit, rmse = power_law_fit(list(zip(tau, y)))
        assert a_fit == pytest.approx(amp, rel=1e-9)
        assert b_fit == pytest.approx(beta, abs=1e-9)
        assert rmse < 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            power_law_fit([(1.0, 1.0), (2.0, -0.5), (3.0, 0.2)])

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            power_law_fit([(1.0, 1.0), (2.0, 0.5)])


class TestRunRecord:
    def test_assembles_all_samples(self, small_full_quench):
        p, ensembles = small_full_quench
        rec = run_record(ensembles, p)
        assert len(rec.samples) == 2
        s = rec.samples[-1]
        assert s["t"] == pytest.approx(2.0)
        assert s["e_res"] / 8 == pytest.approx(4 * s["n_def"], abs=1e-9)

    def test_negative_residual_rejected(self):
        p = QuenchProtocol(tau_q=1.0)
        rec = RunRecord(protocol=p, n_sites=8, lam=0.0)
        with pytest.raises(ValueError):
            rec.add_sample(t=0.0, m_x=0.5, n_def=0.1, e_total=-1.0, e_res=-1e-6)

    def test_excess_column_filled_with_clean_twin(self):
        p = QuenchProtocol(tau_q=2.0)
        clean = run_quench(p, 16, lam=0.0, sample_times=[0.0])
        noisy = run_quench(p, 16, lam=0.3, sample_times=[0.0])
        rec = run_record(noisy, p, clean=clean)
        assert rec.samples[0]["e_exc"] > 0.0
