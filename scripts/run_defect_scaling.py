#!/usr/bin/env python3
"""Defect-density scaling for full Trotterized quenches.

Sweeps the step count from 8 to 32 at dt = 0.25 (so 2 * tau_q = steps * dt)
for several chain lengths, fits n_def(tau_q) to a power law, and checks
the end-of-quench identity E_res / N = 4 * n_def.  Also reports the
excess-energy diagnostic: a lambda sweep at fixed (N, tau_q) against the
closed-system twin.

Usage: python scripts/run_defect_scaling.py
"""

import argparse

from kzchain.correlators import fermion_correlators
from kzchain.mode_dynamics import run_quench
from kzchain.observables import (defect_density, excess_energy, power_law_fit,
                                 residual_energy)
from kzchain.protocol import Evolution, QuenchProtocol, Variant

SIZES = [80, 100, 120]
STEPS = range(8, 33)
DT = 0.25


def defect_sweep(n: int):
    points = []
    worst_identity = 0.0
    for steps in STEPS:
        tau_q = steps * DT / 2.0
        p = QuenchProtocol(tau_q=tau_q, variant=Variant.FULL_QUENCH,
                           evolution=Evolution.TROTTER, dt=DT, steps=steps)
        end = run_quench(p, n, lam=0.0)[-1]
        n_def = defect_density(fermion_correlators(end))
        points.append((tau_q, n_def))
        worst_identity = max(worst_identity,
                             abs(residual_energy(end) / n - 4.0 * n_def))
    amp, beta, rmse = power_law_fit(points)
    return amp, beta, rmse, worst_identity


def excess_energy_diagnostic(n: int = 64, tau_q: float = 4.0):
    p = QuenchProtocol(tau_q=tau_q)
    clean = run_quench(p, n, lam=0.0, sample_times=[0.0])[0]
    print(f"\nexcess-energy diagnostic (N = {n}, tau_q = {tau_q}):")
    for lam in [0.0, 0.01, 0.1, 1.0, 10.0]:
        noisy = run_quench(p, n, lam=lam, sample_times=[0.0])[0]
        print(f"  lambda = {lam:5g}: e_exc = {excess_energy(noisy, clean):.6f}")


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()
    print(f"full Trotter quenches, dt = {DT}, steps in "
          f"[{min(STEPS)}, {max(STEPS)}]")
    for n in SIZES:
        amp, beta, rmse, worst = defect_sweep(n)
        print(f"N = {n:4d}: n_def = {amp:.4f} * tau_q^(-{beta:.4f}), "
              f"log-RMSE {rmse:.4f}, max |E_res/N - 4 n_def| = {worst:.2e}")
    excess_energy_diagnostic()


if __name__ == "__main__":
    main()
