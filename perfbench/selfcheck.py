"""Self-test of the benchmark's own arithmetic, on synthetic spans.

    python3 perfbench/selfcheck.py

Checks self time of nested spans, the unattributed remainder, the
median/quartiles, pool efficiency, the Pfaffian operation count and the
per-sample ratios.  Needs neither kzchain nor numpy; exits 1 on a mismatch.
"""

from __future__ import annotations

import math
import sys

from run import _layer_metrics
from spans import Tracer, pfaffian_ops, pool_efficiency, quartiles, self_times, unattributed

FAILURES = []


def expect(label: str, got, want, tol: float = 1e-12) -> None:
    ok = (math.isclose(got, want, rel_tol=0, abs_tol=tol)
          if isinstance(want, float) else got == want)
    if not ok:
        FAILURES.append(f"{label}: got {got!r}, want {want!r}")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def nested_spans():
    """root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]."""
    clock = FakeClock()
    tr = Tracer(clock=clock)
    for t, action, name in [(0, "begin", "root"), (1, "begin", "a"),
                            (2, "begin", "b"), (3, "end", "b"), (4, "end", "a"),
                            (5, "begin", "c"), (9, "end", "c"), (10, "end", "root")]:
        clock.now = float(t)
        if action == "begin":
            tr.begin(name)
        else:
            tr.end(next(i for i, s in enumerate(tr.spans) if s[0] == name))
    return tr.spans


def main() -> int:
    spans = nested_spans()
    expect("parents", [s[3] for s in spans], [None, 0, 1, 0])
    expect("self times", self_times(spans), [3.0, 2.0, 1.0, 4.0])
    expect("unattributed", unattributed(spans, 12.0), 2.0)

    # wrapped calls nest, and a raising call still closes its span
    tr = Tracer()
    inner = tr.wrap("pfaffian.pfaffian", lambda m: 1.0)
    outer = tr.wrap("correlators.zz_connected_profile", lambda: inner([[0, 1], [-1, 0]]))
    outer()
    boom = tr.wrap("svg.heatmap", lambda: 1 / 0)
    try:
        boom()
    except ZeroDivisionError:
        pass
    expect("wrapped parents", [s[3] for s in tr.spans], [None, 0, None])
    expect("pfaffian info", tr.spans[1][4], {"dim": 2, "ops": 0})
    expect("closed after raise", tr.spans[2][2] is not None, True)

    expect("quartiles odd", quartiles([5.0, 1.0, 9.0, 3.0, 7.0]), (2.0, 5.0, 8.0))
    expect("quartiles one", quartiles([4.0]), (4.0, 4.0, 4.0))
    expect("pool efficiency", pool_efficiency(3.0, 2, 2.0), 0.75)
    expect("pfaffian ops 4", pfaffian_ops(4), 16)
    expect("pfaffian ops 6", pfaffian_ops(6), 4 * 16 + 4 * 4)

    # one quench returning two samples, then three table builds (two inside
    # profiles) and two profiles
    syn = [["cli.quench", 0.0, 8.0, None, None],
           ["mode_dynamics.run_quench", 1.0, 3.0, 0, {"mode_solves": 4, "samples": 2}],
           ["correlators.fermion_correlators", 3.0, 3.5, 0, None],
           ["correlators.zz_connected_profile", 4.0, 6.0, 0, None],
           ["correlators.fermion_correlators", 4.0, 4.5, 3, None],
           ["pfaffian.pfaffian", 5.0, 5.5, 3, {"dim": 4, "ops": 16}],
           ["correlators.zz_connected_profile", 6.0, 7.0, 0, None],
           ["correlators.fermion_correlators", 6.0, 6.5, 6, None],
           ["io.write_correlators_csv", 7.0, 7.5, 0, {"bytes": 100, "rows": 3}]]
    m = _layer_metrics(syn, 9.0)
    expect("tables per sample", m["correlators.tables_per_sample"], 1.5)
    expect("profiles per sample", m["correlators.profiles_per_sample"], 1.0)
    expect("profile self", m["correlators.profile_s"], 1.5)
    expect("tables self", m["correlators.tables_s"], 1.5)
    expect("mode solves per s", m["mode_dynamics.mode_solves_per_s"], 2.0)
    expect("gflops", m["pfaffian.gflops_computed"], 32e-9)
    expect("cli self", m["cli.self_s"], 2.0)
    expect("io", (m["io.bytes_written"], m["io.rows_written"]), (100, 3))
    expect("unattributed", m["trace.unattributed_s"], 1.0)

    for line in FAILURES:
        print("FAIL", line)
    print("selfcheck:", "FAIL" if FAILURES else "ok")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
