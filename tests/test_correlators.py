"""Fermionic tables and spin correlators against exact references.

The heavy cross-checks against the dense statevector evolution live in
test_oracle.py and test_acceptance.py; here the tables are validated on
states with known closed forms (initial paramagnet, static ground states)
and on internal consistency properties.
"""

import numpy as np
import pytest

from kzchain.correlators import (fermion_correlators, magnetization_x,
                                 majorana_string_matrix, xx_connected,
                                 zz_connected, zz_connected_profile)
from kzchain.mode_dynamics import ModeEnsemble, ground_state_bloch
from kzchain.protocol import QuenchProtocol, momentum_grid, pseudo_field


def ground_state_ensemble(n, j, h, t=0.0):
    grid = momentum_grid(n)
    states = [ground_state_bloch(pseudo_field(float(k), j, h)) for k in grid.modes]
    return ModeEnsemble(grid=grid, states=states, t=t, lam=0.0, j=j, h=h)


class TestParamagnetLimit:
    """h >> J ground state: all spins along +x, no ZZ correlations."""

    def setup_method(self):
        self.e = ground_state_ensemble(12, 0.0, 2.0)
        self.fc = fermion_correlators(self.e)

    def test_full_x_polarization(self):
        assert magnetization_x(self.fc)[0] == pytest.approx(1.0, abs=1e-12)

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
        m_x = magnetization_x(fermion_correlators(e))[0]
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
        assert fc.q(0) == magnetization_x(fc)[0]
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

    def test_early_stop_zero_fills(self):
        e = ground_state_ensemble(64, 0.0, 2.0)  # paramagnet: all zeros
        prof = zz_connected_profile(fermion_correlators(e), stop_below=1e-6,
                                    stop_run=3)
        assert len(prof) == 32
        np.testing.assert_array_equal(prof[3:], 0.0)
