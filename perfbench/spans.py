"""In-memory span tracing around kzchain's public functions, plus the
small amount of arithmetic the benchmark reports (self time, quartiles,
pool efficiency).

Spans are recorded from outside the package: `Tracer.install` replaces
each traced function at every name a kzchain module looks it up by
(`kzchain.cli.run_quench` as well as `kzchain.mode_dynamics.run_quench`),
so no file under src/ needs to know it is being measured.  Spans nest only
when the traced code runs in one process, which is why traced repeats use
the serial sweep.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import os
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

# (module, function) -> the per-layer time bucket its self time is charged to
TRACED: Dict[str, str] = {
    "mode_dynamics.run_quench": "mode_dynamics.busy_s",
    "correlators.fermion_correlators": "correlators.tables_s",
    "correlators.zz_connected_profile": "correlators.profile_s",
    "correlators.xx_connected": "correlators.xx_s",
    "pfaffian.pfaffian": "pfaffian.busy_s",
    "observables.run_record": "observables.busy_s",
    "observables.power_law_fit": "observables.busy_s",
    "collapse.exponent_sweep": "collapse.busy_s",
    "collapse.fit_exp_poly": "collapse.busy_s",
    "io.write_correlators_csv": "io.write_s",
    "io.write_observables_csv": "io.write_s",
    "io.write_trajectories_csv": "io.write_s",
    "io.write_rmse_csv": "io.write_s",
    "io.write_manifest": "io.write_s",
    "io.read_correlators_csv": "io.read_s",
    "io.read_observables_csv": "io.read_s",
    "io.read_trajectories_csv": "io.read_s",
    "io.read_rmse_csv": "io.read_s",
    "io.read_manifest": "io.read_s",
    "svg.heatmap": "svg.busy_s",
    "svg.line_plot": "svg.busy_s",
    "circuit.emit_program": "circuit.emit_s",
    "circuit.gate_counts": "circuit.emit_s",
    "circuit.to_qasm3": "circuit.qasm_s",
    "circuit.parse_qasm3": "circuit.qasm_s",
    "circuit.simulate_program": "circuit.simulate_s",
    "oracle.evolve_statevector": "oracle.statevector_s",
    "oracle.evolve_lindblad": "oracle.lindblad_s",
    "oracle.oracle_observables": "oracle.observables_s",
}


def pfaffian_ops(dim: int) -> int:
    """Floating-point operations of the pivoted Parlett-Reid loop in
    kzchain.pfaffian for a dim x dim matrix: each elimination step i
    (i = 0, 2, .., dim-4) applies two outer products to the trailing
    r x r block, r = dim - i - 2, and adds them in (4 r^2 operations).
    Computed from the size, not counted on the hardware."""
    return sum(4 * (dim - i - 2) ** 2 for i in range(0, dim - 2, 2))


def _info(name: str, args, kwargs, result) -> Optional[dict]:
    """Work counts recorded on a span, read from the call's inputs and
    outputs so the traced function itself is untouched."""
    if name == "mode_dynamics.run_quench":
        n_sites = args[1] if len(args) > 1 else kwargs["n_sites"]
        return {"mode_solves": n_sites // 2, "samples": len(result)}
    if name == "pfaffian.pfaffian":
        dim = len(args[0]) if args else len(kwargs["a"])
        return {"dim": dim, "ops": pfaffian_ops(dim)}
    if name == "collapse.exponent_sweep":
        ds = args[0] if args else kwargs["ds"]
        return {"records": len(ds.records)}
    if name == "collapse.fit_exp_poly":
        params, rmse = result
        return {"failed": params is None or not math.isfinite(rmse)}
    if name == "circuit.emit_program":
        return {"gates": len(result.gates)}
    if name == "circuit.simulate_program":
        prog = args[0] if args else kwargs["g"]
        return {"amp_updates": len(prog.gates) * 2 ** prog.n_qubits}
    if name.startswith("io.write_"):
        path = args[0] if args else kwargs["path"]
        rows = args[1] if len(args) > 1 else None
        info = {"bytes": os.path.getsize(path)}
        if name == "io.write_trajectories_csv":
            info["rows"] = sum(len(e.states) for e in rows)
        elif name == "io.write_rmse_csv":
            info["rows"] = len(args[1]) * len(args[2])
        elif name != "io.write_manifest":
            info["rows"] = len(rows)
        return info
    return None


class Tracer:
    """Collects (name, start, end, parent, info) spans in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            self.spans[idx][4] = _info(name, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Replace every traced function at each kzchain name bound to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "kzchain" or n.startswith("kzchain."))]
        for name in TRACED:
            mod_name, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"kzchain.{mod_name}"), fn_name)
            traced = self.wrap(name, original)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, traced)
                    self._patched.append((mod, fn_name, original))

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._patched):
            setattr(mod, fn_name, original)
        self._patched.clear()


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread and nest properly, so the children of a
    span never overlap and their durations are the part of the span they
    cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


def unattributed(spans: Sequence[list], wall: float) -> float:
    """Time in a traced interval of length `wall` that no root span covers."""
    return wall - sum(s[2] - s[1] for s in spans if s[3] is None)


def quartiles(values: Sequence[float]):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them; a single
    value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pool_efficiency(child_cpu_s: float, workers: int, wall_s: float) -> float:
    """Share of the pool's capacity the workers spent computing."""
    return child_cpu_s / (workers * wall_s)
