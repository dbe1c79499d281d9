"""CSV and manifest persistence for run directories.

Every CSV goes through one writer and one reader.  `_write_table` writes
the header and then the rows block by block (a trajectory sample, a
correlator sample, an a-row of the rmse grid, or the few observable rows
of a run), so no whole-file string is built.  The writers format each
row with an f-string over Python floats
(`.tolist()` of an array): a float as its `repr`, a separation or a flag
as an integer, a missing value as an empty cell, and `\r\n` after every
row: the bytes `csv.writer` writes for the same cells, as
`TestCsvFormat` in tests/test_io_cli.py checks.  `_read_table` checks
the header, parses each row with a callback and reports a row that does
not parse as `<path>:<lineno>: bad row [...]`.

Re-running a manifest therefore reproduces every file byte-identically,
and every writer has a matching reader that round-trips losslessly.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .mode_dynamics import ModeEnsemble
from .protocol import Evolution, QuenchProtocol, Variant, momentum_grid, schedule_at

__all__ = [
    "write_correlators_csv", "read_correlators_csv",
    "write_observables_csv", "read_observables_csv",
    "write_trajectories_csv", "read_trajectories_csv",
    "write_rmse_csv", "read_rmse_csv",
    "write_manifest", "read_manifest",
]


_CORRELATORS_HEADER = ["tau_q", "t", "x", "c_zz", "c_xx"]
_OBSERVABLES_HEADER = ["tau_q", "lambda", "t", "m_x", "n_def", "e_total",
                       "e_res", "e_exc"]
_TRAJECTORIES_HEADER = ["k", "t", "nx", "ny", "nz"]
_RMSE_HEADER = ["a", "b", "rmse", "converged"]


def _write_table(path, header: List[str], blocks: Iterable[Iterable[str]]):
    """Write the header, then each block of formatted lines in one call."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lines in blocks:
            fh.write("".join(lines))


def _read_table(path, header: List[str],
                parse: Callable[[List[str]], object]) -> list:
    """Rows after a header that must equal `header`, each through parse;
    a ValueError or IndexError from parse names the file and line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found != header:
            raise ValueError(f"{path}: unexpected header {found}, "
                             f"expected {header}")
        out = []
        for row in reader:
            try:
                out.append(parse(row))
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}:{reader.line_num}: bad row {row}") from exc
    return out


def write_correlators_csv(path, rows):
    """Rows: (tau_q, t, x, c_zz, c_xx), as an (R, 5) array or sequence.

    Each run of consecutive rows whose tau_q and t have the same bits
    (one sample) is one block, and its `tau_q,t,` prefix is formatted
    once."""
    rows = np.asarray(rows, dtype=float).reshape(-1, 5)
    key = rows[:, :2].view(np.int64)
    starts = np.flatnonzero(np.any(key[1:] != key[:-1], axis=1)) + 1
    bounds = [0, *starts.tolist(), len(rows)] if len(rows) else []

    def blocks():
        for lo, hi in zip(bounds, bounds[1:]):
            prefix = "{!r},{!r},".format(*rows[lo, :2].tolist())
            yield (f"{prefix}{int(x)},{c_zz!r},{c_xx!r}\r\n"
                   for x, c_zz, c_xx in rows[lo:hi, 2:].tolist())

    _write_table(path, _CORRELATORS_HEADER, blocks())


def read_correlators_csv(path) -> List[Tuple[float, float, int, float, float]]:
    return _read_table(path, _CORRELATORS_HEADER, lambda row: (
        float(row[0]), float(row[1]), int(row[2]), float(row[3]), float(row[4])))


def write_observables_csv(path, rows: Sequence[dict]):
    """Rows carry tau_q, lam, t, m_x, n_def, e_total, e_res and optional e_exc."""
    table = np.array([[r["tau_q"], r["lam"], r["t"], r["m_x"], r["n_def"],
                       r["e_total"], r["e_res"]] for r in rows], dtype=float)
    e_exc = ["" if r.get("e_exc") is None else repr(float(r["e_exc"]))
             for r in rows]
    _write_table(path, _OBSERVABLES_HEADER, [[
        ",".join(map(repr, vals)) + f",{e}\r\n"
        for vals, e in zip(table.tolist(), e_exc)]])


def read_observables_csv(path) -> List[dict]:
    return _read_table(path, _OBSERVABLES_HEADER, lambda row: {
        "tau_q": float(row[0]), "lam": float(row[1]), "t": float(row[2]),
        "m_x": float(row[3]), "n_def": float(row[4]),
        "e_total": float(row[5]), "e_res": float(row[6]),
        "e_exc": float(row[7]) if row[7] else None,
    })


def write_trajectories_csv(path, ensembles: Sequence[ModeEnsemble]):
    """One block per ensemble; each k is formatted once per grid."""
    def blocks():
        grid = ks = None
        for e in ensembles:
            if e.grid is not grid:
                grid, ks = e.grid, [f"{k!r}," for k in e.grid.modes.tolist()]
            t = f"{float(e.t)!r},"
            yield (f"{k}{t}{nx!r},{ny!r},{nz!r}\r\n"
                   for k, (nx, ny, nz) in zip(ks, e.states.tolist()))

    _write_table(path, _TRAJECTORIES_HEADER, blocks())


def read_trajectories_csv(path, protocol: QuenchProtocol, n_sites: int,
                          lam: float) -> List[ModeEnsemble]:
    """Rebuild the ensemble sequence; rows must be grouped by sample time
    in grid order, as written, and every sample must hold the whole grid."""
    grid = momentum_grid(n_sites)
    rows = _read_table(path, _TRAJECTORIES_HEADER, lambda row: (
        float(row[0]), float(row[1]),
        [float(row[2]), float(row[3]), float(row[4])]))
    per_time: Dict[float, List[List[float]]] = {}
    for lineno, (k, t, state) in enumerate(rows, start=2):
        modes = per_time.setdefault(t, [])
        # states carry no k, so the rows must follow the grid exactly
        if len(modes) >= len(grid) or k != grid.modes[len(modes)]:
            raise ValueError(f"{path}:{lineno}: k = {k} breaks the "
                             f"N = {n_sites} momentum grid order")
        modes.append(state)
    if not per_time:
        raise ValueError(f"{path}: no samples")
    out = []
    for t, states in per_time.items():
        if len(states) != len(grid):
            raise ValueError(f"{path}: sample t = {t} has {len(states)} of "
                             f"the {len(grid)} modes of the N = {n_sites} grid")
        sched = schedule_at(protocol, t)
        out.append(ModeEnsemble(grid=grid, states=np.array(states), t=t, lam=lam,
                                j=sched.j, h=sched.h, protocol=protocol))
    return out


def write_rmse_csv(path, a_vals, b_vals, rmse):
    """One row per (a, b) cell; a NaN cell has an empty rmse and flag 0."""
    b_vals = np.asarray(b_vals, dtype=float).tolist()
    _write_table(path, _RMSE_HEADER, (
        (f"{a!r},{b!r},,0\r\n" if math.isnan(val) else f"{a!r},{b!r},{val!r},1\r\n"
         for b, val in zip(b_vals, row))
        for a, row in zip(np.asarray(a_vals, dtype=float).tolist(),
                          np.asarray(rmse, dtype=float).tolist())))


def read_rmse_csv(path):
    return _read_table(path, _RMSE_HEADER, lambda row: (
        float(row[0]), float(row[1]),
        float(row[2]) if row[2] else float("nan"), bool(int(row[3]))))


def protocol_to_dict(p: QuenchProtocol) -> dict:
    return {
        "tau_q": p.tau_q,
        "variant": p.variant.value,
        "evolution": p.evolution.value,
        "dt": p.dt,
        "steps": p.steps,
    }


def protocol_from_dict(d: dict) -> QuenchProtocol:
    return QuenchProtocol(
        tau_q=d["tau_q"], variant=Variant(d["variant"]),
        evolution=Evolution(d["evolution"]), dt=d.get("dt"), steps=d.get("steps"),
    )


def write_manifest(path, payload: dict):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_manifest(path) -> dict:
    return json.loads(Path(path).read_text())
