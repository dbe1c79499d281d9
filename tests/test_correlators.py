"""Fermionic tables and spin correlators against exact references.

The heavy cross-checks against the dense statevector evolution live in
test_oracle.py and test_acceptance.py; here the tables are validated on
states with known closed forms (initial paramagnet, static ground states)
and on internal consistency properties.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kzchain.correlators
from kzchain.correlators import (MAX_MULTIPLIER, FermionCorrelators,
                                 fermion_correlators, magnetization_x,
                                 majorana_string_matrix, xx_connected,
                                 xx_connected_profiles, zz_connected,
                                 zz_connected_profile, zz_connected_profiles)
from kzchain.mode_dynamics import run_quench
from kzchain.protocol import Evolution, QuenchProtocol, Variant

from conftest import ground_state_ensemble


class TestParamagnetLimit:
    """h >> J ground state: all spins along +x, no ZZ correlations."""

    def setup_method(self):
        self.e = ground_state_ensemble(12, 0.0, 2.0)
        self.fc = fermion_correlators(self.e)

    def test_full_x_polarization(self):
        assert magnetization_x(self.fc) == pytest.approx(1.0, abs=1e-12)

    def test_zz_vanishes(self):
        for x in range(1, 7):
            assert zz_connected(self.fc, x) == pytest.approx(0.0, abs=1e-12)

    def test_xx_vanishes_connected(self):
        for x in range(1, 7):
            assert xx_connected(self.fc, x) == pytest.approx(0.0, abs=1e-12)

    def test_no_fermions(self):
        # empty Jordan-Wigner vacuum: q(d) = delta_{d,0} and sx vanishes
        expected_q = np.zeros(2 * 12 - 1)
        expected_q[12 - 1] = 1.0
        np.testing.assert_allclose(self.fc.q_table, expected_q, atol=1e-12)
        np.testing.assert_allclose(self.fc.sx_table, 0.0, atol=1e-12)


class TestFerromagnetLimit:
    """J >> h ground state: perfect ZZ order in the even-parity sector."""

    def test_zz_saturates(self):
        e = ground_state_ensemble(12, 2.0, 0.0)
        fc = fermion_correlators(e)
        for x in range(1, 7):
            assert zz_connected(fc, x) == pytest.approx(1.0, abs=1e-10)

    def test_defect_free(self):
        from kzchain.observables import defect_density
        e = ground_state_ensemble(12, 2.0, 0.0)
        assert defect_density(fermion_correlators(e)) == pytest.approx(0.0, abs=1e-10)


class TestCriticalGroundState:
    def test_xx_known_value_nearest_neighbor(self):
        # density of JW fermions, (1 - m_x)/2, at criticality approaches
        # the 1/2 - 1/pi law for large N
        e = ground_state_ensemble(256, 1.0, 1.0)
        m_x = magnetization_x(fermion_correlators(e))
        assert (1.0 - m_x) / 2.0 == pytest.approx(0.5 - 1.0 / np.pi, abs=1e-3)


class TestTableStructure:
    def test_sx_odd_in_separation(self, small_quench_ensemble):
        # pair-amplitude antisymmetry under the exchange j <-> l
        fc = fermion_correlators(small_quench_ensemble)
        for d in range(-7, 8):
            assert fc.sx(-d) == pytest.approx(-fc.sx(d), abs=1e-12)

    def test_q_at_zero_is_magnetization(self, small_quench_ensemble):
        # sigma^x is a one-site Majorana bilinear: m_x = q(0) = (2/N) sum n^z
        e = small_quench_ensemble
        fc = fermion_correlators(e)
        assert fc.q(0) == magnetization_x(fc)
        assert fc.q(0) == pytest.approx(2.0 * np.sum(e.states[:, 2]) / e.n_sites,
                                        abs=1e-12)

    def test_out_of_range_separation(self, small_quench_ensemble):
        fc = fermion_correlators(small_quench_ensemble)
        with pytest.raises(ValueError):
            fc.sx(8)
        with pytest.raises(ValueError):
            zz_connected(fc, 5)
        with pytest.raises(ValueError):
            zz_connected(fc, 0)


class TestStringMatrix:
    def test_antisymmetric(self, small_quench_ensemble):
        fc = fermion_correlators(small_quench_ensemble)
        for x in (2, 3, 4):
            g = majorana_string_matrix(fc, x)
            assert g.shape == (2 * x, 2 * x)
            np.testing.assert_allclose(g, -g.T, atol=1e-12)

    def test_x1_pfaffian_equals_closed_form(self, small_quench_ensemble):
        # the x = 1 shortcut must agree with the generic string matrix
        fc = fermion_correlators(small_quench_ensemble)
        g = majorana_string_matrix(fc, 1)
        assert -fc.q(1) == pytest.approx(-float(g[0, 1]), abs=1e-12)


class TestGoldenProfile:
    """Pinned reference values from a high-accuracy dense-oracle run
    (N = 8, tau_q = 2, sampled at the critical point)."""

    def test_matches_fixture(self, small_quench_ensemble):
        import csv
        from pathlib import Path

        fc = fermion_correlators(small_quench_ensemble)
        fixture = Path(__file__).parent / "fixtures" / "zz_profile_N8_tau2.csv"
        with open(fixture, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        for row in rows:
            x = int(row["x"])
            assert zz_connected(fc, x) == pytest.approx(float(row["c_zz"]),
                                                        abs=1e-8)
            assert xx_connected(fc, x) == pytest.approx(float(row["c_xx"]),
                                                        abs=1e-8)


class TestProfile:
    def test_matches_pointwise(self, small_quench_ensemble):
        fc = fermion_correlators(small_quench_ensemble)
        prof = zz_connected_profile(fc)
        assert len(prof) == 4
        for x in range(1, 5):
            assert prof[x - 1] == pytest.approx(zz_connected(fc, x), abs=1e-12)

    def test_paramagnet_profile_vanishes(self):
        e = ground_state_ensemble(64, 0.0, 2.0)
        prof = zz_connected_profile(fermion_correlators(e))
        assert len(prof) == 32
        np.testing.assert_allclose(prof, 0.0, atol=1e-12)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_one_pass_matches_pivoted_per_x(self, data):
        """Every separation of the one-pass profile against the pivoted
        per-x Pfaffian, on continuous (lambda >= 0) and Trotter quenches;
        on one drawn separation also Pf^2 = det of the string matrix."""
        n = data.draw(st.sampled_from([16, 32, 64]))
        variant = data.draw(st.sampled_from(list(Variant)))
        if data.draw(st.booleans()):
            p = QuenchProtocol(tau_q=data.draw(st.floats(0.5, 8.0)),
                               variant=variant)
            lam = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 100.0)))
        else:
            dt = data.draw(st.floats(0.1, 0.5))
            steps = data.draw(st.integers(2, 16))
            tau_q = steps * dt
            if variant is Variant.FULL_QUENCH:
                tau_q /= 2.0
            p = QuenchProtocol(tau_q=tau_q, variant=variant,
                               evolution=Evolution.TROTTER, dt=dt, steps=steps)
            lam = 0.0
        fc = fermion_correlators(run_quench(p, n, lam=lam)[-1])
        prof = zz_connected_profile(fc)
        expected = [zz_connected(fc, x) for x in range(1, n // 2 + 1)]
        np.testing.assert_allclose(prof, expected, rtol=0, atol=1e-12)
        x = data.draw(st.integers(1, n // 2))
        det = np.linalg.det(majorana_string_matrix(fc, x))
        assert prof[x - 1] ** 2 == pytest.approx(det, abs=1e-12)

    def test_zero_pivot_falls_back_to_pivoted(self, rng):
        # q(1) = 0 zeroes the first unpivoted pivot while C(2) stays finite
        n = 16
        sx = rng.standard_normal(2 * n - 1)
        sx = 0.5 * (sx - sx[::-1])  # sx(-d) = -sx(d)
        q = rng.standard_normal(2 * n - 1)
        q[n] = 0.0
        fc = FermionCorrelators(n_sites=n, sx_table=sx, q_table=q)
        prof = zz_connected_profile(fc)
        expected = [zz_connected(fc, x) for x in range(1, n // 2 + 1)]
        assert expected[1] != 0.0
        np.testing.assert_allclose(prof, expected, rtol=0, atol=1e-12)


def trotter_tables(n, steps, dt=0.25, variant=Variant.FULL_QUENCH):
    """Majorana tables of every step boundary of a Trotter quench."""
    tau_q = steps * dt / (2.0 if variant is Variant.FULL_QUENCH else 1.0)
    p = QuenchProtocol(tau_q=tau_q, variant=variant,
                       evolution=Evolution.TROTTER, dt=dt, steps=steps)
    return [fermion_correlators(e) for e in run_quench(p, n, lam=0.0)]


def zero_pivot_tables(rng, n):
    """Hand-built tables with q(1) = 0: the first unpivoted pivot is zero
    while C(2) stays finite (as in test_zero_pivot_falls_back_to_pivoted)."""
    sx = rng.standard_normal(2 * n - 1)
    sx = 0.5 * (sx - sx[::-1])  # sx(-d) = -sx(d)
    q = rng.standard_normal(2 * n - 1)
    q[n] = 0.0
    return FermionCorrelators(n_sites=n, sx_table=sx, q_table=q)


class TestRunProfiles:
    """The batched elimination over all samples of a run."""

    def test_sample_independence(self):
        # bit-identical alone, in a subset, or in the whole run's batch
        fcs = trotter_tables(32, 14)
        assert len(fcs) >= 8
        batch = zz_connected_profiles(fcs)
        assert batch.c_zz.shape == (len(fcs), 16)
        for i, fc in enumerate(fcs):
            np.testing.assert_array_equal(zz_connected_profile(fc),
                                          batch.c_zz[i])
        subset = zz_connected_profiles(fcs[1::3]).c_zz
        np.testing.assert_array_equal(subset, batch.c_zz[1::3])
        shuffled = zz_connected_profiles(fcs[::-1]).c_zz
        np.testing.assert_array_equal(shuffled, batch.c_zz[::-1])

    @pytest.mark.parametrize("batch_bytes", [1, 3 * 8 * 24 ** 2])
    def test_sample_batches_do_not_change_profiles(self, monkeypatch,
                                                   batch_bytes):
        # a run longer than BATCH_BYTES allows is split into batches of
        # 1 and of 3 samples here; the profiles and telemetry are the same
        fcs = trotter_tables(24, 10)
        whole = zz_connected_profiles(fcs)
        monkeypatch.setattr(kzchain.correlators, "BATCH_BYTES", batch_bytes)
        split = zz_connected_profiles(fcs)
        np.testing.assert_array_equal(split.c_zz, whole.c_zz)
        assert split.max_multiplier == whole.max_multiplier
        assert split.fallbacks == whole.fallbacks == 0

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_batch_matches_pivoted_per_x(self, data):
        """Every sample and separation of a Trotter run's batch against the
        pivoted per-x Pfaffian."""
        n = data.draw(st.sampled_from([16, 32, 64]))
        variant = data.draw(st.sampled_from(list(Variant)))
        fcs = trotter_tables(n, data.draw(st.integers(8, 16)),
                             dt=data.draw(st.floats(0.1, 0.5)),
                             variant=variant)
        assert len(fcs) >= 8
        x_max = data.draw(st.integers(1, n // 2))
        prof = zz_connected_profiles(fcs, x_max)
        expected = [[zz_connected(fc, x) for x in range(1, x_max + 1)]
                    for fc in fcs]
        np.testing.assert_allclose(prof.c_zz, expected, rtol=0, atol=1e-12)
        # the guard acts per sample: the batch's telemetry sums and maxes
        # what each sample reports alone
        alone = [zz_connected_profiles([fc], x_max) for fc in fcs]
        assert prof.fallbacks == sum(a.fallbacks for a in alone)
        assert prof.max_multiplier == max(a.max_multiplier for a in alone)
        assert 0.0 <= prof.max_multiplier <= MAX_MULTIPLIER

    def test_fallback_lane_leaves_others_unaffected(self, rng):
        n = 16
        fcs = trotter_tables(n, 8)
        bad = zero_pivot_tables(rng, n)
        mixed = fcs[:3] + [bad] + fcs[3:]
        prof = zz_connected_profiles(mixed)
        assert prof.fallbacks == 1
        expected = [zz_connected(bad, x) for x in range(1, n // 2 + 1)]
        np.testing.assert_allclose(prof.c_zz[3], expected, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(prof.c_zz[3], zz_connected_profile(bad))
        alone = zz_connected_profiles(fcs)
        np.testing.assert_array_equal(np.delete(prof.c_zz, 3, axis=0),
                                      alone.c_zz)
        assert prof.max_multiplier == alone.max_multiplier

    def test_xx_profiles_match_per_x(self):
        fcs = trotter_tables(32, 12)
        xx = xx_connected_profiles(fcs, 16)
        expected = [[xx_connected(fc, x) for x in range(1, 17)] for fc in fcs]
        np.testing.assert_array_equal(xx, expected)

    def test_rejects_mixed_sizes_and_empty_runs(self):
        fcs = trotter_tables(16, 8)[:1] + trotter_tables(32, 8)[:1]
        for profiles in (zz_connected_profiles, xx_connected_profiles):
            with pytest.raises(ValueError, match="share N"):
                profiles(fcs)
            with pytest.raises(ValueError, match="no samples"):
                profiles([])
            with pytest.raises(ValueError, match="separation"):
                profiles(fcs[:1], 9)

    def test_tables_use_exact_phases(self):
        # sin(kd) and cos(kd) are computed once per grid and shared; each
        # sample's tables equal a build from freshly computed phases
        p = QuenchProtocol(tau_q=1.0, evolution=Evolution.TROTTER,
                           dt=0.25, steps=4)
        for e in run_quench(p, 20, lam=0.0):
            kd = np.outer(np.arange(-19, 20), e.grid.modes)
            nx, ny, nz = e.states.T
            fc = fermion_correlators(e)
            np.testing.assert_array_equal(fc.sx_table,
                                          2.0 * (np.sin(kd) @ nx) / 20)
            np.testing.assert_array_equal(
                fc.q_table, 2.0 * (np.cos(kd) @ nz - np.sin(kd) @ ny) / 20)
