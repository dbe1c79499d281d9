"""The four benchmark workloads.

Each workload drives kzchain the way a user does, through
`kzchain.cli.main`, and ends in a check of the physics result.  Where the
command line has no entry point for a step (the defect power-law fit, the
circuit simulator, the Lindblad oracle), the library function a user would
call is called directly.  Inputs are derived from the seed only; sizes and
tolerances are explained in NOTES.md beside this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

import kzchain.cli
from kzchain import circuit, oracle
from kzchain import io as kio
from kzchain import observables
from kzchain.collapse import QKZ_EXPONENTS, QND_EXPONENTS
from kzchain.protocol import Evolution, QuenchProtocol, schedule_at

from spans import Tracer

JITTER = 0.10  # relative half-width of the seeded perturbation


def _jitter(rng: random.Random, value: float, digits: int) -> float:
    return round(value * (1.0 + JITTER * rng.uniform(-1.0, 1.0)), digits)


def _jitter_sweep(rng: random.Random, taus: List[float]) -> List[float]:
    """Move each tau_q by up to JITTER of itself while keeping their sum,
    so every seed asks for the same total integration time and the seed
    changes the inputs but not the amount of work."""
    u = [rng.uniform(-1.0, 1.0) for _ in taus]
    shift = sum(t * x for t, x in zip(taus, u)) / sum(taus)
    v = [x - shift for x in u]
    scale = max(1.0, max(abs(x) for x in v))
    return [round(t * (1.0 + JITTER * x / scale), 3) for t, x in zip(taus, v)]


def _child_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


@dataclass
class Outcome:
    """What one repeat's correctness check found."""

    ok: bool
    detail: str
    exponent_err: float = 0.0
    oracle_dev: float = 0.0
    circuit_dev: float = 0.0


@dataclass
class Repeat:
    """One repeat of a workload: its scratch directory, whether the sweep
    runs serially, the tracer (traced repeats only), and the wall and pool
    figures of each CLI call it made."""

    tmp: Path
    serial: bool = False
    tracer: Optional[Tracer] = None
    cli_wall: Dict[str, float] = field(default_factory=dict)
    pool: List[tuple] = field(default_factory=list)  # (child cpu, workers, wall)

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def cli(self, *argv: str, protocols: int = 1) -> str:
        """Run one kzchain command in this process; return its stdout."""
        command = argv[0]
        if command == "quench" and self.serial:
            argv = argv + ("--serial",)
        buf = io.StringIO()
        cpu0, t0 = _child_cpu(), time.perf_counter()
        with self._span(f"cli.{command}"), contextlib.redirect_stdout(buf):
            rc = kzchain.cli.main(list(argv))
        wall = time.perf_counter() - t0
        if rc != 0:
            raise RuntimeError(f"kzchain {' '.join(argv)} exited with {rc}")
        self.cli_wall[command] = self.cli_wall.get(command, 0.0) + wall
        if command == "quench" and not self.serial and protocols > 1:
            workers = min(protocols, os.cpu_count() or 1)  # as kzchain.cli sizes its pool
            self.pool.append((_child_cpu() - cpu0, workers, wall))
        return buf.getvalue()

    def check(self):
        """Span around the benchmark's own verification code."""
        return self._span("check")


@dataclass(frozen=True)
class Workload:
    plan: Callable[[int], dict]
    run: Callable[[Repeat, dict], Outcome]


# ---------------------------------------------------------------------------
# quench sweep + collapse


def _plan_sweep(n: int, taus, lam: float):
    def plan(seed: int) -> dict:
        rng = random.Random(seed)
        return {"n": n, "lam": lam, "taus": _jitter_sweep(rng, taus)}
    return plan


def _run_collapse(target, tol):
    def run(rep: Repeat, plan: dict) -> Outcome:
        out = rep.cli("quench", "--n", str(plan["n"]),
                      "--tau-q", ",".join(repr(t) for t in plan["taus"]),
                      "--lambda", repr(plan["lam"]),
                      "--out", str(rep.tmp / "quench"),
                      protocols=len(plan["taus"]))
        csvs = [str(Path(d) / "correlators.csv") for d in out.splitlines()]
        res = json.loads(rep.cli("collapse", *csvs, "--out", str(rep.tmp)))
        with rep.check():
            best = (res["best_a"], res["best_b"])
            err = max(abs(best[0] - target[0]), abs(best[1] - target[1]))
            return Outcome(ok=err <= tol, exponent_err=err,
                           detail=f"(a, b) = ({best[0]:.4f}, {best[1]:.4f}), "
                                  f"target ({target[0]:.4f}, {target[1]:.4f}) "
                                  f"within {tol}")
    return run


# ---------------------------------------------------------------------------
# full Trotter quench, defect power law


def _plan_trotter(seed: int) -> dict:
    # jittering dt moves every tau_q = steps * dt / 2 by the same factor
    rng = random.Random(seed)
    return {"n": 100, "dt": _jitter(rng, 0.25, 4), "steps": (8, 32)}


def _run_trotter(rep: Repeat, plan: dict) -> Outcome:
    lo, hi = plan["steps"]
    out = rep.cli("quench", "--n", str(plan["n"]), "--trotter", "--full",
                  "--dt", repr(plan["dt"]), "--steps", f"{lo}..{hi}",
                  "--out", str(rep.tmp / "quench"), protocols=hi - lo + 1)
    points = []
    for d in out.splitlines():
        obs = kio.read_observables_csv(Path(d) / "observables.csv")
        tau = obs[0]["tau_q"]
        end = min(obs, key=lambda r: abs(r["t"] - tau))
        points.append((tau, end["n_def"]))
    _, beta, _ = observables.power_law_fit(points)
    with rep.check():
        return Outcome(ok=0.4 <= beta <= 0.6, exponent_err=abs(beta - 0.5),
                       detail=f"beta = {beta:.4f} in [0.4, 0.6] "
                              f"over {len(points)} runs")


# ---------------------------------------------------------------------------
# dense cross-checks: pipeline vs statevector, circuit vs oracle, Lindblad


def _plan_crosscheck(seed: int) -> dict:
    rng = random.Random(seed)
    return {"n": 14, "taus": _jitter_sweep(rng, [1.0, 1.5]),
            "dt": _jitter(rng, 0.25, 4), "steps": 8,
            "n_lindblad": 6, "tau_lindblad": _jitter(rng, 1.5, 3),
            "lams": [0.1, 1.0]}


def _pipeline_deviation(run_dir: Path, t: float, ref: dict) -> float:
    """Worst |pipeline - oracle| over m_x, n_def, energy, C_zz and C_xx."""
    (obs,) = [r for r in kio.read_observables_csv(run_dir / "observables.csv")
              if abs(r["t"] - t) < 1e-9]
    devs = [abs(obs["m_x"] - float(np.mean(ref["m_x"]))),
            abs(obs["n_def"] - ref["n_def"]),
            abs(obs["e_total"] - ref["energy"])]
    for _, t_row, x, c_zz, c_xx in kio.read_correlators_csv(run_dir / "correlators.csv"):
        if abs(t_row - t) < 1e-9:
            devs.append(abs(c_zz - ref["c_zz"][x]))
            devs.append(abs(c_xx - ref["c_xx"][x]))
    return max(devs)


def _run_crosscheck(rep: Repeat, plan: dict) -> Outcome:
    n, steps, dt = plan["n"], plan["steps"], plan["dt"]
    # mask 0 keeps the ZZ profile from stopping early, so every separation
    # is compared against the oracle
    cont_dirs = rep.cli("quench", "--n", str(n), "--mask", "0",
                        "--tau-q", ",".join(repr(t) for t in plan["taus"]),
                        "--out", str(rep.tmp / "quench"),
                        protocols=len(plan["taus"])).splitlines()
    oracle_cont = [json.loads(rep.cli("oracle", "--n", str(n), "--tau-q", repr(t)))
                   for t in plan["taus"]]
    (trot_dir,) = rep.cli("quench", "--n", str(n), "--mask", "0", "--trotter",
                          "--dt", repr(dt), "--steps", str(steps),
                          "--out", str(rep.tmp / "quench")).splitlines()
    emitted = json.loads(rep.cli("emit-qasm", "--n", str(n), "--dt", repr(dt),
                                 "--steps", str(steps), "--out", str(rep.tmp)))
    prog = circuit.parse_qasm3(Path(emitted["path"]).read_text())
    psi = circuit.simulate_program(prog)
    p = QuenchProtocol(tau_q=steps * dt, evolution=Evolution.TROTTER,
                       dt=dt, steps=steps)
    final = oracle.evolve_statevector(p, n)[-1]
    sched = schedule_at(p, final.t)
    oracle_trot = oracle.oracle_observables(final, sched.j, sched.h)
    p_lind = QuenchProtocol(tau_q=plan["tau_lindblad"])
    rhos = [oracle.evolve_lindblad(p_lind, plan["n_lindblad"], lam)[-1]
            for lam in plan["lams"]]

    with rep.check():
        for ref in oracle_cont:
            ref["c_zz"] = {int(k): v for k, v in ref["c_zz"].items()}
            ref["c_xx"] = {int(k): v for k, v in ref["c_xx"].items()}
        oracle_dev = max(
            [_pipeline_deviation(Path(d), 0.0, ref)
             for d, ref in zip(cont_dirs, oracle_cont)]
            + [_pipeline_deviation(Path(trot_dir), final.t, oracle_trot)])
        circuit_dev = float(np.max(np.abs(psi - final.data)))
        counts = {k: v for k, v in emitted.items() if k != "path"}
        counts_ok = counts == {"rx": n * steps, "rz": n * steps, "cx": 2 * n * steps}
        valid = True
        for rho in rhos:
            try:
                rho.validate()
            except ValueError:
                valid = False
        ok = oracle_dev <= 1e-7 and circuit_dev <= 1e-10 and counts_ok and valid
        return Outcome(ok=ok, oracle_dev=oracle_dev, circuit_dev=circuit_dev,
                       detail=f"pipeline dev {oracle_dev:.2e} <= 1e-7, circuit "
                              f"dev {circuit_dev:.2e} <= 1e-10, counts {counts}, "
                              f"Lindblad states valid: {valid}")


WORKLOADS: Dict[str, Workload] = {
    "qkz_lam0": Workload(_plan_sweep(128, [4.0, 6.0, 8.0, 10.0], 0.0),
                         _run_collapse(QKZ_EXPONENTS, 0.0251)),
    "qnd_lam100": Workload(_plan_sweep(192, [4.0, 8.0, 12.0, 16.0], 100.0),
                           _run_collapse(QND_EXPONENTS, 0.05)),
    "trotter_full": Workload(_plan_trotter, _run_trotter),
    "crosscheck_dense": Workload(_plan_crosscheck, _run_crosscheck),
}
