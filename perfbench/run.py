"""kzchain benchmark: four workloads timed end to end and per layer.

Run from the root of a kzchain checkout:

    python3 perfbench/run.py --workload qkz_lam0 --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 26

One run repeats its workload, one repeat at a time, for about --seconds
seconds.  With --trace 0 it reports the end-to-end metrics of BENCHMARK.json
(the quench sweep runs on the CLI's process pool); with --trace 1 it reports
the per-layer metrics, from serial repeats whose calls into kzchain are
wrapped in spans.  The last line of stdout is the JSON result; lines before
it starting with '#' record the host, versions, seed and workload inputs.
`--workload all` runs every workload both ways in child processes and
prints a table of every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from spans import TRACED, Tracer, pool_efficiency, quartiles, self_times, unattributed

# One BLAS/OpenMP thread per process, set before numpy is first imported,
# so pool workers x threads <= nproc; workers inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_kzchain():
    """Import kzchain from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    import kzchain
    if Path(kzchain.__file__).resolve().parent != SRC / "kzchain":
        raise ImportError(f"kzchain imported from {kzchain.__file__}, not {SRC}")


def _environment(seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {"host": platform.node(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "commit": commit,
            "seed": seed, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def _setup_seconds() -> float:
    """Median time to import kzchain.cli in a fresh interpreter."""
    times = []
    for _ in range(SETUP_SAMPLES):
        # no timeout: with one, subprocess polls the child in steps of up to
        # 50 ms, which would quantise the measurement
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import kzchain.cli"], cwd=ROOT,
                       check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


class Runner:
    """Runs repeats of one workload and tallies their checks."""

    def __init__(self, name: str, seed: int, tmp_root: Path):
        from workloads import WORKLOADS
        self.workload = WORKLOADS[name]
        self.plan = self.workload.plan(seed)
        self.tmp_root = tmp_root
        self.attempted = 0
        self.failed = 0
        self.outcomes = []

    def repeat(self, serial: bool = False, tracer=None):
        """One checked repeat; returns (Repeat, wall seconds, CPU seconds)."""
        from workloads import Outcome, Repeat
        rep = Repeat(tmp=Path(tempfile.mkdtemp(dir=self.tmp_root)),
                     serial=serial, tracer=tracer)
        cpu0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        try:
            if tracer:
                tracer.install()
            outcome = self.workload.run(rep, self.plan)
        except Exception as exc:  # a failed operation counts as a failed check
            outcome = Outcome(ok=False, detail=f"{type(exc).__name__}: {exc}")
        finally:
            if tracer:
                tracer.uninstall()
        wall = time.perf_counter() - t0
        cpu = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - cpu0
        shutil.rmtree(rep.tmp)
        self.attempted += 1
        self.failed += not outcome.ok
        self.outcomes.append(outcome)
        print(f"# repeat {self.attempted}: {'ok' if outcome.ok else 'FAILED'} "
              f"{'serial ' if serial else ''}{'traced ' if tracer else ''}"
              f"wall {wall:.3f} s: {outcome.detail}", flush=True)
        return rep, wall, cpu


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(runner: Runner, seconds: float, units: dict) -> dict:
    setup = _setup_seconds()
    walls, cpus = [], []
    start = time.perf_counter()
    while True:
        _, wall, cpu = runner.repeat()
        walls.append(wall)
        cpus.append(cpu)
        # stop before a repeat that would run past the measuring window
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    q1, med, q3 = quartiles(walls)
    print(f"# wall_s: median {med:.4f} s, quartiles [{q1:.4f}, {q3:.4f}], "
          f"{len(walls)} samples", flush=True)
    values = {"wall_s": med, "cpu_s": statistics.median(cpus),
              "peak_rss_mb": peak_kb / 1024.0, "setup_s": setup}
    return {k: _metric(values[k], units[k]) for k in units}


def _layer_metrics(spans, wall: float) -> dict:
    """Per-layer figures of one traced repeat."""
    sums = defaultdict(float)
    calls = defaultdict(int)
    for span, self_s in zip(spans, self_times(spans)):
        name, info = span[0], span[4] or {}
        bucket = TRACED.get(name) or ("cli.self_s" if name.startswith("cli.")
                                      else "check.self_s")
        sums[bucket] += self_s
        calls[name] += 1
        for key, val in info.items():
            sums[f"{name}:{key}"] += val
        if name == "pfaffian.pfaffian":
            sums["pfaffian.max_dim"] = max(sums["pfaffian.max_dim"], info["dim"])

    def rate(num, den):
        return num / den if den > 0 else 0.0

    samples = sums["mode_dynamics.run_quench:samples"]
    m = {
        "mode_dynamics.busy_s": sums["mode_dynamics.busy_s"],
        "mode_dynamics.calls": calls["mode_dynamics.run_quench"],
        "mode_dynamics.mode_solves": sums["mode_dynamics.run_quench:mode_solves"],
        "correlators.tables_s": sums["correlators.tables_s"],
        "correlators.tables_calls": calls["correlators.fermion_correlators"],
        "correlators.profile_s": sums["correlators.profile_s"],
        "correlators.profile_calls": calls["correlators.zz_connected_profile"],
        "correlators.xx_s": sums["correlators.xx_s"],
        "pfaffian.busy_s": sums["pfaffian.busy_s"],
        "pfaffian.calls": calls["pfaffian.pfaffian"],
        "pfaffian.max_dim": sums["pfaffian.max_dim"],
        "pfaffian.ops_computed": sums["pfaffian.pfaffian:ops"],
        "observables.busy_s": sums["observables.busy_s"],
        "observables.calls": (calls["observables.run_record"]
                              + calls["observables.power_law_fit"]),
        "collapse.busy_s": sums["collapse.busy_s"],
        "collapse.cells": calls["collapse.fit_exp_poly"],
        "collapse.failed_cells": sums["collapse.fit_exp_poly:failed"],
        "collapse.records": sums["collapse.exponent_sweep:records"],
        "io.write_s": sums["io.write_s"],
        "io.read_s": sums["io.read_s"],
        "io.bytes_written": sum(v for k, v in sums.items() if k.endswith(":bytes")),
        "io.rows_written": sum(v for k, v in sums.items() if k.endswith(":rows")),
        "svg.busy_s": sums["svg.busy_s"],
        "cli.self_s": sums["cli.self_s"],
        "circuit.emit_s": sums["circuit.emit_s"],
        "circuit.qasm_s": sums["circuit.qasm_s"],
        "circuit.simulate_s": sums["circuit.simulate_s"],
        "circuit.gates": sums["circuit.emit_program:gates"],
        "oracle.statevector_s": sums["oracle.statevector_s"],
        "oracle.lindblad_s": sums["oracle.lindblad_s"],
        "oracle.observables_s": sums["oracle.observables_s"],
        "check.self_s": sums["check.self_s"],
        "trace.unattributed_s": unattributed(spans, wall),
    }
    m["mode_dynamics.mode_solves_per_s"] = rate(m["mode_dynamics.mode_solves"],
                                                m["mode_dynamics.busy_s"])
    m["correlators.tables_per_sample"] = rate(m["correlators.tables_calls"], samples)
    m["correlators.profiles_per_sample"] = rate(m["correlators.profile_calls"], samples)
    m["pfaffian.gflops_computed"] = rate(m["pfaffian.ops_computed"],
                                         m["pfaffian.busy_s"]) / 1e9
    m["collapse.cells_per_s"] = rate(m["collapse.cells"], m["collapse.busy_s"])
    m["circuit.amp_updates_per_s"] = rate(
        sums["circuit.simulate_program:amp_updates"], m["circuit.simulate_s"])
    return m


def _per_layer(runner: Runner, seconds: float, units: dict) -> dict:
    start = time.perf_counter()
    pooled = runner.repeat()[0]
    serial_walls, traced_walls, layers = [], [], []
    while True:
        wall = runner.repeat(serial=True)[1]
        serial_walls.append(wall)
        tracer = Tracer()
        wall = runner.repeat(serial=True, tracer=tracer)[1]
        traced_walls.append(wall)
        layers.append(_layer_metrics(tracer.spans, wall))
        pair = statistics.median(serial_walls) + statistics.median(traced_walls)
        if time.perf_counter() - start + pair > seconds:
            break
    m = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
    m["cli.quench_s"] = pooled.cli_wall.get("quench", 0.0)
    m["cli.collapse_s"] = pooled.cli_wall.get("collapse", 0.0)
    m["cli.pool_efficiency"] = (statistics.median(pool_efficiency(*p) for p in pooled.pool)
                                if pooled.pool else 0.0)
    m["trace.overhead"] = statistics.median(traced_walls) - statistics.median(serial_walls)
    outcomes = runner.outcomes
    m["check.exponent_err"] = statistics.median(o.exponent_err for o in outcomes)
    m["check.fail_frac"] = runner.failed / runner.attempted
    m["circuit.worst_dev"] = max(o.circuit_dev for o in outcomes)
    m["oracle.worst_dev"] = max(o.oracle_dev for o in outcomes)
    missing = set(units) - set(m)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {k: _metric(float(m[k]), units[k]) for k in units}


def _run_one(args) -> int:
    if not (SRC / "kzchain" / "cli.py").is_file():
        return _fail(f"no kzchain sources at {SRC}; run from a kzchain checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")
    _import_kzchain()
    env = _environment(args.seed)
    tmp_parent = ROOT / ".perfbench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(dir=tmp_parent))
    os.environ["KZCHAIN_OUT"] = str(tmp_root)  # nothing may land in runs/
    try:
        runner = Runner(args.workload, args.seed, tmp_root)
        print("# env " + json.dumps(env), flush=True)
        print("# plan " + json.dumps({"workload": args.workload, **runner.plan}),
              flush=True)
        measure = _per_layer if args.trace else _end_to_end
        units = {m["name"]: m["unit"]
                 for m in spec["per_layer" if args.trace else "end_to_end"]}
        metrics = measure(runner, args.seconds, units)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            tmp_parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def _run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", w["name"], "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(done.stdout + done.stderr, file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            if trace == 0:
                print("\n".join(line for line in lines if line.startswith("# env")))
            print(f"== {w['name']} (trace {trace}): correct {result['correct']}, "
                  f"{result['failed']} of {result['attempted']} repeats failed")
            for name, m in result["metrics"].items():
                print(f"  {name:34s} {m['value']:<14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="workload name or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
