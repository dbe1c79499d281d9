"""Command-line front end.

Subcommands
-----------
quench       run the mode pipeline for a (tau_q or steps) sweep, write CSVs
collapse     fit scaling exponents from correlator CSVs, write surface + SVGs
observables  recompute the observable table from a saved run directory
emit-qasm    write a Trotterized quench as an OpenQASM 3 file
oracle       dense small-N reference run, observables as JSON on stdout
reproduce    canned figure recipes with a pass/fail table

Exit code is 0 on success; on failure a machine-readable JSON error object
is printed to stderr.  The only environment variable consulted is
KZCHAIN_OUT, which overrides the output root directory.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import os
import sys
import time
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from . import __version__
from .circuit import emit_program, gate_counts, to_qasm3
from .collapse import (DEFAULT_MASK_THEORY, EXPONENT_GRID, CollapseResult,
                       CorrelationDataset, QKZ_EXPONENTS, QND_EXPONENTS,
                       exponent_sweep, rescale)
from .config import SETTINGS, RunConfig, load_config_file
from .correlators import xx_connected_profiles, zz_connected_profiles
from .io import (protocol_from_dict, protocol_to_dict, read_correlators_csv,
                 read_manifest, read_observables_csv, read_trajectories_csv,
                 write_correlators_csv, write_manifest, write_observables_csv,
                 write_rmse_csv, write_trajectories_csv)
from .mode_dynamics import (RTOL, check_nonnegative, integrator_stats,
                            run_quench)
from .observables import power_law_fit, run_record
from .protocol import Evolution, QuenchProtocol, Variant, schedule_at
from .svg import heatmap, line_plot

__all__ = ["main"]


def _out_root(cli_value: Optional[str]) -> Path:
    env = os.environ.get("KZCHAIN_OUT")
    if cli_value is not None:
        return Path(cli_value)
    if env:
        return Path(env)
    return Path("runs")


def _run_tag(p: QuenchProtocol, n_sites: int, lam: float) -> str:
    base = f"N{n_sites}_tau{p.tau_q:g}_lam{lam:g}_{p.variant.value}"
    if p.evolution is Evolution.TROTTER:
        base += f"_dt{p.dt:g}_steps{p.steps}"
    return base


def _sample_times(p: QuenchProtocol) -> Optional[List[float]]:
    if p.evolution is Evolution.TROTTER:
        return None  # fixed at the step boundaries
    if p.variant is Variant.FULL_QUENCH:
        return [0.0, p.tau_q]
    return [0.0]


def _single_run(p: QuenchProtocol, cfg: RunConfig, out_dir: Path) -> dict:
    """One (tau_q, lambda) run: dynamics, correlators, observables, files."""
    t_start = time.perf_counter()
    ensembles = run_quench(p, cfg.n_sites, lam=cfg.lam,
                           sample_times=_sample_times(p))
    t_tables = time.perf_counter()
    rec = run_record(ensembles, p)
    t_profiles = time.perf_counter()
    x_max = cfg.n_sites // 2
    zz = zz_connected_profiles(rec.tables, x_max)
    xx = xx_connected_profiles(rec.tables, x_max)
    t_write = time.perf_counter()
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trajectories_csv(out_dir / "trajectories.csv", ensembles)
    # correlator rows (tau_q, t, x, c_zz, c_xx), sample by sample
    t = np.array([s["t"] for s in rec.samples])[:, None]
    x = np.arange(1, x_max + 1)
    rows = np.stack(np.broadcast_arrays(p.tau_q, t, x, zz.c_zz, xx), axis=-1)
    write_correlators_csv(out_dir / "correlators.csv", rows.reshape(-1, 5))
    write_observables_csv(out_dir / "observables.csv", rec.samples)
    t_end = time.perf_counter()
    manifest = {
        "version": __version__,
        "protocol": protocol_to_dict(p),
        "n_sites": cfg.n_sites,
        "lambda": cfg.lam,
        "rtol": RTOL,
        "integrator": integrator_stats(p, cfg.lam, ensembles),
        "profile": {"max_multiplier": zz.max_multiplier,
                    "fallbacks": zz.fallbacks},
        "mask_threshold": cfg.mask_threshold,
        "x_max": x_max,
        "timings": {"dynamics_s": round(t_tables - t_start, 3),
                    "tables_s": round(t_profiles - t_tables, 3),
                    "profiles_s": round(t_write - t_profiles, 3),
                    "write_s": round(t_end - t_write, 3)},
    }
    write_manifest(out_dir / "manifest.json", manifest)
    return manifest


def _run_sweep(cfg: RunConfig, root: Path, parallel: bool = True) -> List[Path]:
    """Run every protocol in the sweep, each in its own directory.

    Raises ValueError before any run starts if two protocols would share
    a directory (their tau_q format alike in the run tag)."""
    protocols = cfg.protocols()
    dirs = [root / _run_tag(p, cfg.n_sites, cfg.lam) for p in protocols]
    seen = {}
    for p, d in zip(protocols, dirs):
        if d in seen:
            raise ValueError(f"tau_q values {seen[d]} and {p.tau_q} would "
                             f"share the run directory {d.name}")
        seen[d] = p.tau_q
    if parallel and len(protocols) > 1:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(len(protocols), os.cpu_count() or 1)) as ex:
            futures = [ex.submit(_single_run, p, cfg, d)
                       for p, d in zip(protocols, dirs)]
            for f in futures:
                f.result()
    else:
        for p, d in zip(protocols, dirs):
            _single_run(p, cfg, d)
    return dirs


def _config_from_args(args) -> RunConfig:
    """The config file's values, if any, overridden by the quench flags given."""
    values = load_config_file(args.config) if getattr(args, "config", None) else {}
    values.update((key, text) for key, text in vars(args).items()
                  if key in SETTINGS and text is not None)
    return RunConfig.from_settings(values)


def _single_protocol(args) -> Tuple[RunConfig, QuenchProtocol]:
    """The config and the protocol of a command that runs one quench."""
    cfg = _config_from_args(args)
    s = SETTINGS["protocol.steps" if cfg.steps else "protocol.tau_sweep"]
    if len(getattr(cfg, s.field)) > 1:
        raise ValueError(f"{args.command} runs one quench: give one {s.flag} "
                         f"value, not {getattr(cfg, s.field)}")
    return cfg, cfg.protocols()[0]


def cmd_quench(args) -> int:
    cfg = _config_from_args(args)
    root = _out_root(args.out)
    dirs = _run_sweep(cfg, root, parallel=not args.serial)
    for d in dirs:
        print(d)
    return 0


def _collapse(paths, mask: float, out_dir: Path) -> Tuple[
        CorrelationDataset, CollapseResult]:
    """Sweep EXPONENT_GRID over the t = 0 correlators of the CSVs and write
    the surface, the plots and manifest.json into out_dir.  Only at t = 0
    is the scaled time t / tau_q^(za) the same for every tau_q, so every
    CSV must hold a t = 0 row; the error names each one that does not."""
    t_read = time.perf_counter()
    records, missing = [], []
    for path in paths:
        rows = [(tau_q, x, c_zz)
                for tau_q, t, x, c_zz, _ in read_correlators_csv(path)
                if abs(t) < 1e-9]
        if not rows:
            missing.append(str(path))
        records += rows
    if missing:
        raise ValueError(f"no correlator row at t = 0 in {', '.join(missing)}")
    ds = CorrelationDataset.from_records(records, mask_threshold=mask)
    t_sweep = time.perf_counter()
    res = exponent_sweep(ds)
    t_write = time.perf_counter()
    _write_collapse_artifacts(out_dir, ds, res)
    t_end = time.perf_counter()
    write_manifest(out_dir / "manifest.json", {
        "version": __version__,
        "mask_threshold": mask,
        "records": int(len(ds.records)),
        "failed_cells": int(np.isnan(res.rmse).sum()),
        "best": {"a": res.best[0], "b": res.best[1],
                 "rmse": res.best_rmse,
                 "normalized_rmse": res.normalized_best_rmse,
                 "params": res.best_params.tolist()},
        "timings": {"read_s": round(t_sweep - t_read, 3),
                    "sweep_s": round(t_write - t_sweep, 3),
                    "write_s": round(t_end - t_write, 3)},
    })
    return ds, res


def _write_collapse_artifacts(out_dir: Path, ds: CorrelationDataset,
                              res: CollapseResult) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_rmse_csv(out_dir / "rmse_surface.csv", EXPONENT_GRID, EXPONENT_GRID,
                   res.rmse)
    markers = [(res.best[0], res.best[1], "#d62728"),
               (QKZ_EXPONENTS[0], QKZ_EXPONENTS[1], "#ffffff"),
               (QND_EXPONENTS[0], QND_EXPONENTS[1], "#000000")]
    (out_dir / "rmse_surface.svg").write_text(
        heatmap(res.rmse.tolist(), list(EXPONENT_GRID), list(EXPONENT_GRID),
                markers=markers, title="collapse RMSE", xlabel="a", ylabel="b"))
    series = []
    a, b = res.best
    for tau in ds.tau_values:
        sel = ds.records[:, 0] == tau
        sub = CorrelationDataset(records=ds.records[sel],
                                 mask_threshold=ds.mask_threshold)
        y, v = rescale(sub, a, b)
        order = np.argsort(y)
        series.append((f"tau_q={tau:g}", list(y[order]), list(np.abs(v[order]))))
    (out_dir / "collapse.svg").write_text(
        line_plot(series, title=f"best (a, b) = ({a:g}, {b:g})",
                  xlabel="x / tau^a", ylabel="|C| tau^b", log_y=True))


def cmd_collapse(args) -> int:
    check_nonnegative("--mask", args.mask)
    out_dir = _out_root(args.out) / "collapse"
    ds, res = _collapse(args.csv, args.mask, out_dir)
    print(json.dumps({
        "best_a": res.best[0], "best_b": res.best[1],
        "best_rmse": res.best_rmse,
        "normalized_best_rmse": res.normalized_best_rmse,
        "records": int(len(ds.records)),
        "failed_cells": int(np.isnan(res.rmse).sum()),
        "out_dir": str(out_dir),
    }, indent=2))
    return 0


def cmd_observables(args) -> int:
    run_dir = Path(args.run_dir)
    path = run_dir / "manifest.json"
    try:
        manifest = read_manifest(path)
        p = protocol_from_dict(manifest["protocol"])
        n_sites = manifest["n_sites"]
        if type(n_sites) is not int or n_sites < 2 or n_sites % 2:
            raise ValueError(f"n_sites must be an even integer >= 2, got {n_sites!r}")
        lam = check_nonnegative("lambda", manifest["lambda"])
    except (KeyError, TypeError, ValueError) as exc:  # bad JSON, key or value
        what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{path}: {what}") from None
    ensembles = read_trajectories_csv(run_dir / "trajectories.csv", p,
                                      n_sites, lam)
    rec = run_record(ensembles, p)
    write_observables_csv(run_dir / "observables.csv", rec.samples)
    for row in rec.samples:
        print(json.dumps(row))
    return 0


def cmd_emit_qasm(args) -> int:
    cfg, p = _single_protocol(args)
    prog = emit_program(p, cfg.n_sites, measure_basis=args.basis)
    root = _out_root(args.out)
    root.mkdir(parents=True, exist_ok=True)
    path = root / f"tfim_N{cfg.n_sites}_dt{p.dt:g}_steps{p.steps}_{args.basis}.qasm"
    path.write_text(to_qasm3(prog))
    print(json.dumps({"path": str(path), **gate_counts(prog)}))
    return 0


def cmd_oracle(args) -> int:
    # imported here: no other command needs the oracle
    from .oracle import evolve_lindblad, evolve_statevector, oracle_observables

    cfg, p = _single_protocol(args)
    # both evolutions sample t_end by default; Trotter samples every step
    states = (evolve_lindblad(p, cfg.n_sites, cfg.lam) if cfg.lam > 0
              else evolve_statevector(p, cfg.n_sites))
    sched = schedule_at(p, states[-1].t)
    obs = oracle_observables(states[-1], sched.j, sched.h)
    out = {k: (v.tolist() if isinstance(v, np.ndarray) else v)
           for k, v in obs.items()}
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# canned figure recipes


def _collapse_runs(cfg: RunConfig, dirs: List[Path], out: Path) -> CollapseResult:
    """Collapse a recipe's runs into out/collapse."""
    return _collapse([d / "correlators.csv" for d in dirs], cfg.mask_threshold,
                     out / "collapse")[1]


def _near(target: Tuple[float, float], tol: Optional[float], cfg, dirs, out):
    """The best (a, b), within tol of target in a and in b; or, with tol
    None, its distance from target, recorded without an assertion."""
    best = _collapse_runs(cfg, dirs, out).best
    dist = max(abs(best[0] - target[0]), abs(best[1] - target[1]))
    return (round(dist, 4), True) if tol is None else (best, dist <= tol)


def _rmse_ratio(bound: float, cfg, dirs, out):
    """The normalized best RMSE over that of the same sweep at lambda = 0,
    run into <out>_reference, at least bound."""
    ref_cfg, ref = dataclasses.replace(cfg, lam=0.0), Path(f"{out}_reference")
    res = _collapse_runs(cfg, dirs, out)
    res0 = _collapse_runs(ref_cfg, _run_sweep(ref_cfg, ref), ref)
    ratio = res.normalized_best_rmse / res0.normalized_best_rmse
    return round(ratio, 3), ratio >= bound


def _defect_exponent(lo: float, hi: float, cfg, dirs, out):
    """beta of the end-of-quench defect density n_def ~ tau_q^-beta, in [lo, hi]."""
    points = []
    for p, d in zip(cfg.protocols(), dirs):
        end = min(read_observables_csv(d / "observables.csv"),
                  key=lambda row: abs(row["t"] - p.tau_q))
        points.append((p.tau_q, end["n_def"]))
    _, beta, _ = power_law_fit(points)
    return round(beta, 4), lo <= beta <= hi


def _trotter_sweep(dt: float) -> dict:
    """N = 120 Trotter runs at step dt, every even step count with
    1 <= dt * steps <= 8: tau_q spans 1 to 8 at every dt, as in figS1a."""
    return dict(n_sites=120, evolution=Evolution.TROTTER, dt=dt,
                steps=[s for s in range(2, int(8.0 / dt) + 1, 2) if s * dt >= 1.0])


class Recipe(NamedTuple):
    """A canned figure: RunConfig keywords of its sweep and a check(config,
    dirs, out) -> (value, ok), printed as `label: value  (target <target>)`."""

    sweep: dict
    check: Callable[[RunConfig, List[Path], Path], Tuple[object, bool]]
    target: str
    label: str = "best (a, b)"


# The Trotter argmin moves from (0.5, 0.125) as dt grows: (0.475, 0.125),
# (0.45, 0.125), (0.425, 0.125) and (0.325, 0.1) at dt = 0.1, 0.2, 0.25 and
# 0.5.  The shift is real, so figS1b..figS1e record it.
_RECORDED = dict(check=partial(_near, QKZ_EXPONENTS, None),
                 target="recorded, no assertion",
                 label="deviation from (0.5, 0.125)")
RECIPES: Dict[str, Recipe] = {
    "fig3a": Recipe(dict(n_sites=512, lam=0.0),
                    partial(_near, QKZ_EXPONENTS, 0.0251), "(0.5, 0.125)"),
    "fig3b": Recipe(dict(n_sites=512, lam=1.0), partial(_rmse_ratio, 2.0),
                    ">= 2", "normalized RMSE ratio vs lambda=0"),
    "fig3c": Recipe(dict(n_sites=512, lam=100.0),
                    partial(_near, QND_EXPONENTS, 0.05),
                    "within 0.05 of (1/3, 1/12)"),
    "fig4a": Recipe(dict(n_sites=120, evolution=Evolution.TROTTER, dt=0.2,
                         steps=list(range(6, 17, 2)), mask_threshold=1e-3),
                    partial(_near, (0.45, 0.15), 0.0251), "(0.45, 0.15)"),
    "fig5_noiseless": Recipe(
        dict(n_sites=100, variant=Variant.FULL_QUENCH, evolution=Evolution.TROTTER,
             dt=0.25, steps=list(range(8, 33))),
        partial(_defect_exponent, 0.4, 0.6), "[0.4, 0.6]",
        "defect-density exponent beta"),
    "figS1a": Recipe(dict(n_sites=120, tau_sweep=[float(t) for t in range(1, 9)]),
                     partial(_near, QKZ_EXPONENTS, 0.0251), "(0.5, 0.125)"),
    "figS1b": Recipe(_trotter_sweep(0.1), **_RECORDED),
    "figS1c": Recipe(_trotter_sweep(0.2), **_RECORDED),
    "figS1d": Recipe(_trotter_sweep(0.25), **_RECORDED),
    "figS1e": Recipe(_trotter_sweep(0.5), **_RECORDED),
}


def cmd_reproduce(args) -> int:
    recipe = RECIPES[args.figure]
    out = _out_root(args.out) / args.figure
    cfg = RunConfig(**recipe.sweep)
    value, ok = recipe.check(cfg, _run_sweep(cfg, out), out)
    verdict = "PASS" if ok else "FAIL"
    print(f"reproduce {args.figure}\n  {verdict}  {recipe.label}: {value}  "
          f"(target {recipe.target})\nresult: {verdict}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def _add_quench_flags(parser, *flags: str, required: Tuple[str, ...] = ()) -> None:
    """Add the named quench flags of SETTINGS, each with its key as dest:
    a flag takes text, and a switch stores its one value."""
    for flag in flags:
        for s in SETTINGS.values():
            switches = dict(s.switches)
            if flag in switches:
                parser.add_argument(flag, dest=s.key, help=s.help,
                                    action="store_const", const=switches[flag])
            elif flag == s.flag:
                parser.add_argument(flag, dest=s.key, help=s.help,
                                    required=flag in required)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="kzchain", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quench", help="run the mode pipeline for a sweep")
    q.add_argument("--config", help="key-value config file")
    _add_quench_flags(q, *(s.flag for s in SETTINGS.values() if s.flag),
                      "--continuous", "--trotter", "--full")
    q.add_argument("--out", help="output root (default runs/ or $KZCHAIN_OUT)")
    q.add_argument("--serial", action="store_true", help="disable process pool")
    q.set_defaults(func=cmd_quench)

    c = sub.add_parser("collapse", help="fit scaling exponents from CSVs")
    c.add_argument("csv", nargs="+", help="correlator CSV files")
    c.add_argument("--mask", type=float, default=DEFAULT_MASK_THEORY)
    c.add_argument("--out")
    c.set_defaults(func=cmd_collapse)

    o = sub.add_parser("observables", help="recompute observables for a run dir")
    o.add_argument("run_dir")
    o.set_defaults(func=cmd_observables)

    e = sub.add_parser("emit-qasm", help="write an OpenQASM 3 quench circuit")
    _add_quench_flags(e, "--n", "--dt", "--steps", "--full", required=("--n",))
    e.add_argument("--basis", choices=("z", "x"), default="z")
    e.add_argument("--out")
    e.set_defaults(func=cmd_emit_qasm, **{"protocol.evolution": Evolution.TROTTER.value})

    r = sub.add_parser("oracle", help="dense small-N reference observables")
    _add_quench_flags(r, "--n", "--tau-q", "--lambda", "--trotter", "--dt",
                      "--steps", "--full", required=("--n",))
    r.set_defaults(func=cmd_oracle)

    p = sub.add_parser("reproduce", help="run a canned figure recipe")
    p.add_argument("figure", choices=list(RECIPES))
    p.add_argument("--out")
    p.set_defaults(func=cmd_reproduce)
    return top


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surfaced as machine-readable JSON
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
