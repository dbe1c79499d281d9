"""CSV and manifest persistence for run directories.

All floats are written with repr so that re-running a manifest reproduces
every file byte-identically, and every writer has a matching reader that
round-trips losslessly.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

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


def _fmt(x) -> str:
    return repr(float(x))


def _check_header(path, reader, expected: List[str]):
    header = next(reader, None)
    if header != expected:
        raise ValueError(f"{path}: unexpected header {header}, "
                         f"expected {expected}")


def write_correlators_csv(path, rows: Sequence[Tuple[float, float, int, float, float]]):
    """Rows: (tau_q, t, x, c_zz, c_xx)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_CORRELATORS_HEADER)
        for tau_q, t, x, c_zz, c_xx in rows:
            w.writerow([_fmt(tau_q), _fmt(t), int(x), _fmt(c_zz), _fmt(c_xx)])


def read_correlators_csv(path) -> List[Tuple[float, float, int, float, float]]:
    out = []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        _check_header(path, r, _CORRELATORS_HEADER)
        for lineno, row in enumerate(r, start=2):
            try:
                out.append((float(row[0]), float(row[1]), int(row[2]),
                            float(row[3]), float(row[4])))
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}:{lineno}: bad row {row}") from exc
    return out


def write_observables_csv(path, rows: Sequence[dict]):
    """Rows carry tau_q, lam, t, m_x, n_def, e_total, e_res and optional e_exc."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_OBSERVABLES_HEADER)
        for row in rows:
            e_exc = row.get("e_exc")
            w.writerow([
                _fmt(row["tau_q"]), _fmt(row["lam"]), _fmt(row["t"]),
                _fmt(row["m_x"]), _fmt(row["n_def"]),
                _fmt(row["e_total"]), _fmt(row["e_res"]),
                "" if e_exc is None else _fmt(e_exc),
            ])


def read_observables_csv(path) -> List[dict]:
    out = []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        _check_header(path, r, _OBSERVABLES_HEADER)
        for lineno, row in enumerate(r, start=2):
            try:
                out.append({
                    "tau_q": float(row[0]), "lam": float(row[1]), "t": float(row[2]),
                    "m_x": float(row[3]), "n_def": float(row[4]),
                    "e_total": float(row[5]), "e_res": float(row[6]),
                    "e_exc": float(row[7]) if row[7] else None,
                })
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}:{lineno}: bad row {row}") from exc
    return out


def write_trajectories_csv(path, ensembles: Sequence[ModeEnsemble]):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_TRAJECTORIES_HEADER)
        for e in ensembles:
            t = _fmt(e.t)
            for k, (nx, ny, nz) in zip(e.grid.modes, e.states):
                w.writerow([_fmt(k), t, _fmt(nx), _fmt(ny), _fmt(nz)])


def read_trajectories_csv(path, protocol: QuenchProtocol, n_sites: int,
                          lam: float) -> List[ModeEnsemble]:
    """Rebuild the ensemble sequence; rows must be grouped by sample time
    in grid order, as written."""
    grid = momentum_grid(n_sites)
    per_time: Dict[float, List[List[float]]] = {}
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        _check_header(path, r, _TRAJECTORIES_HEADER)
        for lineno, row in enumerate(r, start=2):
            try:
                k, t = float(row[0]), float(row[1])
                state = [float(row[2]), float(row[3]), float(row[4])]
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}:{lineno}: bad row {row}") from exc
            modes = per_time.setdefault(t, [])
            # states carry no k, so the rows must follow the grid exactly
            if len(modes) >= len(grid) or k != grid.modes[len(modes)]:
                raise ValueError(f"{path}:{lineno}: k = {k} breaks the "
                                 f"N = {n_sites} momentum grid order")
            modes.append(state)
    out = []
    for t, states in per_time.items():
        sched = schedule_at(protocol, t)
        out.append(ModeEnsemble(grid=grid, states=np.array(states), t=t, lam=lam,
                                j=sched.j, h=sched.h, protocol=protocol))
    return out


def write_rmse_csv(path, a_vals, b_vals, rmse):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_RMSE_HEADER)
        for ia, a in enumerate(a_vals):
            for ib, b in enumerate(b_vals):
                val = rmse[ia][ib]
                ok = not np.isnan(val)
                w.writerow([_fmt(a), _fmt(b), _fmt(val) if ok else "", int(ok)])


def read_rmse_csv(path):
    rows = []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        _check_header(path, r, _RMSE_HEADER)
        for lineno, row in enumerate(r, start=2):
            try:
                rows.append((float(row[0]), float(row[1]),
                             float(row[2]) if row[2] else float("nan"),
                             bool(int(row[3]))))
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}:{lineno}: bad row {row}") from exc
    return rows


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
