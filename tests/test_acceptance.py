"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line (visible with pytest -s, and in the
captured output on failure) and asserts the stated tolerance.  The N = 512
collapse sweeps take a few seconds each; everything else is faster.
"""

import math

import numpy as np
import pytest

from kzchain.circuit import emit_program, gate_counts, simulate_program
from kzchain.collapse import (CorrelationDataset, QKZ_EXPONENTS, QND_EXPONENTS,
                              exponent_sweep)
from kzchain.correlators import (fermion_correlators, magnetization_x,
                                 xx_connected, zz_connected,
                                 zz_connected_profile)
from kzchain.mode_dynamics import run_quench
from kzchain.observables import (defect_density, excess_energy, power_law_fit,
                                 residual_energy, total_energy)
from kzchain.oracle import evolve_statevector, oracle_observables
from kzchain.pfaffian import pfaffian
from kzchain.protocol import Evolution, QuenchProtocol, Variant, schedule_at

from conftest import random_skew

# hardware-campaign exponents quoted for context; they need the physical
# device and are deliberately not reproduced here (see test_11)
HARDWARE_COLLAPSE_EXPONENTS = [(0.025, 0.475), (0.025, 0.325)]
HARDWARE_ANTI_KZ_BETA = -0.3
HARDWARE_EXCESS_ENERGY_GAMMA = -0.6


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def _sweep_records(n, taus, lam=0.0, dt=None, variant=None):
    """Correlator records {(tau_q, x, C(0, x))} for a tau_q sweep."""
    records = []
    for tau in taus:
        if dt is not None:
            p = QuenchProtocol(tau_q=tau, evolution=Evolution.TROTTER,
                               dt=dt, steps=int(round(tau / dt)))
            e = run_quench(p, n, lam=0.0)[-1]
        else:
            p = QuenchProtocol(tau_q=tau, variant=variant or Variant.TO_CRITICAL_POINT)
            e = run_quench(p, n, lam=lam, sample_times=[0.0])[0]
        prof = zz_connected_profile(fermion_correlators(e), x_max=n // 2)
        records.extend((tau, x, c) for x, c in enumerate(prof, start=1))
    return np.array(records)


def _collapse(records, mask=5e-4):
    ds = CorrelationDataset.from_records(records, mask_threshold=mask)
    return exponent_sweep(ds)


N512_TAUS = [8.0, 16.0, 24.0, 32.0, 48.0, 64.0]


@pytest.fixture(scope="module")
def n512_lam0_result():
    return _collapse(_sweep_records(512, N512_TAUS, lam=0.0))


def test_01_qkz_exponent_recovery():
    res = _collapse(_sweep_records(120, range(1, 9)))
    ok = (abs(res.best[0] - QKZ_EXPONENTS[0]) <= 0.0251
          and abs(res.best[1] - QKZ_EXPONENTS[1]) <= 0.0251)
    _report(1, ok, f"N=120 continuous best {res.best}, target {QKZ_EXPONENTS} "
            "within one grid step")


def test_02_qnd_exponent_crossover():
    res = _collapse(_sweep_records(512, N512_TAUS, lam=100.0))
    ok = (abs(res.best[0] - QND_EXPONENTS[0]) <= 0.05
          and abs(res.best[1] - QND_EXPONENTS[1]) <= 0.05)
    _report(2, ok, f"N=512 lambda=100 best {res.best}, target within 0.05 of "
            f"({QND_EXPONENTS[0]:.4f}, {QND_EXPONENTS[1]:.4f})")


def test_03_intermediate_lambda_non_collapse(n512_lam0_result):
    res1 = _collapse(_sweep_records(512, N512_TAUS, lam=1.0))
    ratio = res1.normalized_best_rmse / n512_lam0_result.normalized_best_rmse
    _report(3, ratio >= 2.0,
            f"lambda=1 vs lambda=0 normalized best-RMSE ratio {ratio:.2f} >= 2")


def test_04_trotter_shifted_exponents():
    taus = [0.2 * s for s in range(2, 17, 2) if 0.2 * s >= 1.0]
    res = _collapse(_sweep_records(120, taus, dt=0.2), mask=1e-3)
    ok = (abs(res.best[0] - 0.45) <= 0.0251 and abs(res.best[1] - 0.15) <= 0.0251)
    _report(4, ok, f"N=120 Trotter dt=0.2 best {res.best}, target (0.45, 0.15) "
            "within one grid step")


def _full_trotter_end_states(n):
    out = []
    for steps in range(8, 33):
        tau_q = steps * 0.25 / 2.0
        p = QuenchProtocol(tau_q=tau_q, variant=Variant.FULL_QUENCH,
                           evolution=Evolution.TROTTER, dt=0.25, steps=steps)
        out.append((tau_q, run_quench(p, n, lam=0.0)[-1]))
    return out


@pytest.fixture(scope="module")
def full_trotter_states():
    return {n: _full_trotter_end_states(n) for n in (80, 100, 120)}


def test_05_noiseless_defect_scaling(full_trotter_states):
    betas = {}
    for n, states in full_trotter_states.items():
        points = [(tau, defect_density(fermion_correlators(e)))
                  for tau, e in states]
        _, beta, _ = power_law_fit(points)
        betas[n] = beta
    ok = all(0.4 <= b <= 0.6 for b in betas.values())
    _report(5, ok, "full Trotter defect exponents "
            + ", ".join(f"N={n}: {b:.3f}" for n, b in betas.items())
            + " all in [0.4, 0.6]")


def test_06_oracle_equivalence_suite():
    worst = 0.0
    for n in (4, 6, 8, 10):
        for tau_q in (0.5, 1.0, 2.0):
            protocols = [QuenchProtocol(tau_q=tau_q)]
            steps = int(round(tau_q / 0.25))
            protocols.append(QuenchProtocol(tau_q=tau_q,
                                            evolution=Evolution.TROTTER,
                                            dt=0.25, steps=steps))
            for p in protocols:
                if p.evolution is Evolution.TROTTER:
                    e = run_quench(p, n, lam=0.0)[-1]
                    s = evolve_statevector(p, n)[-1]
                else:
                    e = run_quench(p, n, lam=0.0, sample_times=[0.0])[0]
                    (s,) = evolve_statevector(p, n)
                fc = fermion_correlators(e)
                sched = schedule_at(p, e.t)
                obs = oracle_observables(s, sched.j, sched.h)
                devs = [abs(magnetization_x(fc) - np.mean(obs["m_x"])),
                        abs(defect_density(fc) - obs["n_def"]),
                        abs(total_energy(e) - obs["energy"])]
                for x in range(1, n // 2 + 1):
                    devs.append(abs(zz_connected(fc, x) - obs["c_zz"][x]))
                    devs.append(abs(xx_connected(fc, x) - obs["c_xx"][x]))
                worst = max(worst, max(devs))
    _report(6, worst < 1e-7,
            f"mode pipeline vs dense oracle, worst deviation {worst:.2e} < 1e-7")


def test_07_pfaffian_correctness(rng):
    worst_rel = 0.0
    for _ in range(1000):
        dim = 2 * int(rng.integers(1, 9))  # 2..16
        m = random_skew(rng, dim)
        pf, det = pfaffian(m), np.linalg.det(m)
        worst_rel = max(worst_rel, abs(pf**2 - det) / max(abs(det), 1e-12))
    m2 = random_skew(rng, 2)
    closed2 = abs(pfaffian(m2) - m2[0, 1])
    m4 = random_skew(rng, 4)
    closed4 = abs(pfaffian(m4) - (m4[0, 1] * m4[2, 3] - m4[0, 2] * m4[1, 3]
                                  + m4[0, 3] * m4[1, 2]))
    ok = worst_rel < 1e-8 and closed2 < 1e-12 and closed4 < 1e-12
    _report(7, ok, f"1000 random skew matrices: worst |pf^2-det| rel "
            f"{worst_rel:.2e}; closed-form errors {closed2:.1e}, {closed4:.1e}")


def test_08_fit_self_consistency():
    results = {}
    for a, b in [QKZ_EXPONENTS, (0.325, 0.075), (0.45, 0.15)]:
        records = []
        for tau in (1.0, 2.0, 4.0, 6.0, 8.0):
            for x in range(1, 41):
                y = x / tau**a
                records.append((tau, x, (1 + 0.5 * y) * np.exp(-1.1 * y) / tau**b))
        res = _collapse(np.array(records))
        results[(a, b)] = res.best
    ok = all(best == pytest.approx(planted, abs=1e-12)
             for planted, best in results.items())
    _report(8, ok, f"planted exponents recovered exactly on the grid: {results}")


def test_09_end_of_quench_identity(full_trotter_states):
    worst = 0.0
    for n, states in full_trotter_states.items():
        for _, e in states:
            n_def = defect_density(fermion_correlators(e))
            worst = max(worst, abs(residual_energy(e) / n - 4.0 * n_def))
    _report(9, worst < 1e-8,
            f"|E_res/N - 4 n_def| at t=+tau_q, worst {worst:.2e} < 1e-8")


def test_10_circuit_equivalence():
    n, steps, dt = 6, 16, 0.25
    p = QuenchProtocol(tau_q=steps * dt, evolution=Evolution.TROTTER,
                       dt=dt, steps=steps)
    prog = emit_program(p, n)
    psi = simulate_program(prog)
    ref = evolve_statevector(p, n)[-1].data
    dev = float(np.max(np.abs(psi - ref)))
    counts = gate_counts(prog)
    counts_ok = counts == {"rx": n * steps, "rz": n * steps, "cx": 2 * n * steps}
    _report(10, dev < 1e-10 and counts_ok,
            f"statevector deviation {dev:.2e} < 1e-10; gate counts {counts}")


def test_11_hardware_reference_values_documented():
    # the hardware-campaign exponents are reference values only; what is
    # testable at desk scale is the excess-energy machinery around them
    assert HARDWARE_COLLAPSE_EXPONENTS == [(0.025, 0.475), (0.025, 0.325)]
    assert HARDWARE_ANTI_KZ_BETA == pytest.approx(-0.3)
    assert HARDWARE_EXCESS_ENERGY_GAMMA == pytest.approx(-0.6)
    p = QuenchProtocol(tau_q=4.0)
    clean = run_quench(p, 64, lam=0.0, sample_times=[0.0])[0]
    zero = excess_energy(clean, clean)
    sweep = {lam: excess_energy(
        run_quench(p, 64, lam=lam, sample_times=[0.0])[0], clean)
        for lam in (0.01, 0.1, 1.0, 10.0)}
    diag = ", ".join(f"lambda={l:g}: {v:.5f}" for l, v in sweep.items())
    _report(11, zero == 0.0,
            f"excess_energy(clean, clean) = {zero} exactly; lambda-sweep "
            f"diagnostic (monotonicity reported, not asserted): {diag}")


@pytest.mark.parametrize("crossover", [0.25, 4.0])
def test_12_fixed_crossover_collapse(crossover):
    # at fixed Lambda = lambda / sqrt(tau_q) the dephasing enters the
    # coherent scaling regime at one strength, so the t = 0 correlators
    # collapse with the lambda = 0 exponents at every Lambda; a fixed
    # lambda instead moves Lambda across the sweep (test 03)
    records = [r for tau in (8.0, 16.0, 32.0, 64.0)
               for r in _sweep_records(512, [tau], lam=crossover * math.sqrt(tau))]
    res = _collapse(records)
    _report(12, res.best == QKZ_EXPONENTS,
            f"N=512 Lambda={crossover:g}, tau_q 8-64, grid argmin {res.best} "
            f"(normalized RMSE {res.normalized_best_rmse:.2e}), target "
            f"{QKZ_EXPONENTS}")
