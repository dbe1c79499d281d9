import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kzchain
from kzchain.cli import RECIPES, _build_parser, main
from kzchain.collapse import (DEFAULT_MASK_THEORY, EXPONENT_GRID,
                              CorrelationDataset, exponent_sweep)
from kzchain.config import RunConfig, load_config_file, _parse_steps
from kzchain.correlators import (MAX_MULTIPLIER, fermion_correlators,
                                 xx_connected_profiles, zz_connected_profile,
                                 zz_connected_profiles)
from kzchain.io import (protocol_from_dict, protocol_to_dict,
                        read_correlators_csv, read_manifest,
                        read_observables_csv, read_rmse_csv,
                        read_trajectories_csv, write_correlators_csv,
                        write_manifest, write_observables_csv, write_rmse_csv,
                        write_trajectories_csv)
from kzchain.mode_dynamics import run_quench
from kzchain.observables import run_record
from kzchain.oracle import evolve_statevector, oracle_observables
from kzchain.protocol import Evolution, QuenchProtocol, Variant, schedule_at


class TestCsvRoundTrips:
    def test_correlators(self, tmp_path):
        rows = [(2.0, 0.0, 1, 0.123456789012345, -0.5), (2.0, 0.0, 2, 1e-7, 0.0)]
        path = tmp_path / "c.csv"
        write_correlators_csv(path, rows)
        assert read_correlators_csv(path) == rows

    def test_observables_with_optional_column(self, tmp_path):
        rows = [{"tau_q": 1.0, "lam": 0.5, "t": 0.0, "m_x": 0.7, "n_def": 0.1,
                 "e_total": -3.0, "e_res": 0.4, "e_exc": 0.02},
                {"tau_q": 1.0, "lam": 0.5, "t": 1.0, "m_x": 0.6, "n_def": 0.2,
                 "e_total": -2.0, "e_res": 0.8, "e_exc": None}]
        path = tmp_path / "o.csv"
        write_observables_csv(path, rows)
        assert read_observables_csv(path) == rows

    def test_trajectories(self, tmp_path):
        p = QuenchProtocol(tau_q=1.0)
        ensembles = run_quench(p, 8, lam=0.2, sample_times=[-0.5, 0.0])
        path = tmp_path / "t.csv"
        write_trajectories_csv(path, ensembles)
        back = read_trajectories_csv(path, p, 8, 0.2)
        assert len(back) == 2
        for orig, rebuilt in zip(ensembles, back):
            assert rebuilt.t == orig.t and rebuilt.j == orig.j
            np.testing.assert_array_equal(rebuilt.states, orig.states)

    def test_trajectories_off_grid_rejected(self, tmp_path):
        p = QuenchProtocol(tau_q=1.0)
        path = tmp_path / "t.csv"
        write_trajectories_csv(path, run_quench(p, 8, lam=0.0))
        with pytest.raises(ValueError):
            read_trajectories_csv(path, p, 10, 0.0)

    @pytest.mark.parametrize("keep", ["header", "truncated"])
    def test_incomplete_trajectories_name_file(self, tmp_path, keep):
        # a header-only file, or one cut at a line end inside the last sample
        p = QuenchProtocol(tau_q=1.0)
        path = tmp_path / "trajectories.csv"
        write_trajectories_csv(path, run_quench(p, 8, lam=0.0,
                                                sample_times=[-0.5, 0.0]))
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:1] if keep == "header" else lines[:-1]))
        with pytest.raises(ValueError, match=r"trajectories\.csv"):
            read_trajectories_csv(path, p, 8, 0.0)

    def test_rmse_surface_with_nan(self, tmp_path):
        a, b = [0.1, 0.2], [0.3]
        rmse = [[0.5], [float("nan")]]
        path = tmp_path / "r.csv"
        write_rmse_csv(path, a, b, rmse)
        rows = read_rmse_csv(path)
        assert rows[0] == (0.1, 0.3, 0.5, True)
        assert rows[1][3] is False and math.isnan(rows[1][2])

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_correlators_csv(path)

    @pytest.mark.parametrize("kind", ["observables", "trajectories", "rmse"])
    def test_foreign_header_rejected(self, tmp_path, kind):
        # a well-formed file whose header is not the writer's must not parse
        p = QuenchProtocol(tau_q=1.0)
        path = tmp_path / f"{kind}.csv"
        if kind == "observables":
            write_observables_csv(path, [{
                "tau_q": 1.0, "lam": 0.0, "t": 0.0, "m_x": 0.7, "n_def": 0.1,
                "e_total": -3.0, "e_res": 0.4, "e_exc": None}])
            read = read_observables_csv
        elif kind == "trajectories":
            write_trajectories_csv(path, run_quench(p, 8, lam=0.0))
            read = lambda f: read_trajectories_csv(f, p, 8, 0.0)
        else:
            write_rmse_csv(path, [0.1], [0.3], [[0.5]])
            read = read_rmse_csv
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("a,b,c,d,e,f,g,h\n" + "".join(lines[1:]))
        with pytest.raises(ValueError, match=f"{kind}.csv"):
            read(path)

    @pytest.mark.parametrize("kind", ["trajectories", "rmse"])
    @pytest.mark.parametrize("damage", ["short", "unparsable"])
    def test_bad_row_names_file_and_line(self, tmp_path, kind, damage):
        p = QuenchProtocol(tau_q=1.0)
        path = tmp_path / f"{kind}.csv"
        if kind == "trajectories":
            write_trajectories_csv(path, run_quench(p, 8, lam=0.0))
            read = lambda f: read_trajectories_csv(f, p, 8, 0.0)
        else:
            write_rmse_csv(path, [0.1, 0.2], [0.3], [[0.5], [0.25]])
            read = read_rmse_csv
        lines = path.read_text().splitlines(keepends=True)
        cols = lines[2].rstrip("\r\n").split(",")
        cols = cols[:-1] if damage == "short" else cols[:2] + ["x"] + cols[3:]
        lines[2] = ",".join(cols) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=rf"{kind}\.csv:3: bad row"):
            read(path)

    def test_manifest_round_trip(self, tmp_path):
        payload = {"protocol": protocol_to_dict(
            QuenchProtocol(tau_q=2.0, evolution=Evolution.TROTTER,
                           dt=0.25, steps=8)), "n_sites": 8}
        path = tmp_path / "m.json"
        write_manifest(path, payload)
        back = read_manifest(path)
        assert back == json.loads(path.read_text())
        p = protocol_from_dict(back["protocol"])
        assert p.steps == 8 and p.evolution is Evolution.TROTTER


def _csv_writer_bytes(header, rows) -> bytes:
    """What csv.writer writes for the header and rows, the format the
    library writers must keep byte for byte."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue().encode()


def _f(x) -> str:
    return repr(float(x))


class TestCsvFormat:
    """The library writers against csv.writer on real data."""

    def test_trotter_run_files(self, tmp_path):
        # a full Trotter quench sampled at every step: its c_xx reaches
        # about 1e-33 outside the light cone
        main(["quench", "--n", "8", "--trotter", "--full", "--dt", "0.5",
              "--steps", "8", "--serial", "--out", str(tmp_path)])
        (run_dir,) = tmp_path.iterdir()
        p = QuenchProtocol(tau_q=2.0, variant=Variant.FULL_QUENCH,
                           evolution=Evolution.TROTTER, dt=0.5, steps=8)
        ensembles = run_quench(p, 8, lam=0.0)
        rec = run_record(ensembles, p)
        c_zz = zz_connected_profiles(rec.tables, 4).c_zz
        c_xx = xx_connected_profiles(rec.tables, 4)
        assert np.min(np.abs(c_xx)) < 1e-32

        trajectories = [[_f(k), _f(e.t), _f(nx), _f(ny), _f(nz)]
                        for e in ensembles
                        for k, (nx, ny, nz) in zip(e.grid.modes, e.states)]
        correlators = [[_f(p.tau_q), _f(e.t), x, _f(zz), _f(xx)]
                       for e, zz_row, xx_row in zip(ensembles, c_zz, c_xx)
                       for x, (zz, xx) in enumerate(zip(zz_row, xx_row), start=1)]
        observables = [[_f(p.tau_q), _f(0.0), _f(s["t"]), _f(s["m_x"]),
                        _f(s["n_def"]), _f(s["e_total"]), _f(s["e_res"]), ""]
                       for s in rec.samples]
        expected = {
            "trajectories.csv": _csv_writer_bytes(
                ["k", "t", "nx", "ny", "nz"], trajectories),
            "correlators.csv": _csv_writer_bytes(
                ["tau_q", "t", "x", "c_zz", "c_xx"], correlators),
            "observables.csv": _csv_writer_bytes(
                ["tau_q", "lambda", "t", "m_x", "n_def", "e_total", "e_res",
                 "e_exc"], observables),
        }
        for name, data in expected.items():
            assert (run_dir / name).read_bytes() == data, name

    def test_observables_with_and_without_excess(self, tmp_path):
        p = QuenchProtocol(tau_q=2.0)
        clean = run_quench(p, 16, lam=0.0, sample_times=[-1.0, 0.0])
        noisy = run_quench(p, 16, lam=0.3, sample_times=[-1.0, 0.0])
        rows = [{"tau_q": p.tau_q, "lam": rec.lam, **s}
                for rec in (run_record(noisy, p, clean=clean),
                            run_record(noisy, p))
                for s in rec.samples]
        assert [r["e_exc"] is None for r in rows] == [False, False, True, True]
        path = tmp_path / "observables.csv"
        write_observables_csv(path, rows)
        assert path.read_bytes() == _csv_writer_bytes(
            ["tau_q", "lambda", "t", "m_x", "n_def", "e_total", "e_res", "e_exc"],
            [[_f(r["tau_q"]), _f(r["lam"]), _f(r["t"]), _f(r["m_x"]),
              _f(r["n_def"]), _f(r["e_total"]), _f(r["e_res"]),
              "" if r["e_exc"] is None else _f(r["e_exc"])] for r in rows])

    def test_rmse_surface_with_failed_cells(self, tmp_path):
        records = [(tau, x, c)
                   for tau in (1.0, 2.0, 4.0)
                   for x, c in enumerate(zz_connected_profile(fermion_correlators(
                       run_quench(QuenchProtocol(tau_q=tau), 16, lam=0.0)[0])),
                       start=1)]
        res = exponent_sweep(CorrelationDataset.from_records(records))
        a_vals = b_vals = EXPONENT_GRID
        # a failed fit leaves its cell NaN
        rmse = res.rmse.copy()
        rmse[::2, 1::3] = np.nan
        path = tmp_path / "rmse_surface.csv"
        write_rmse_csv(path, a_vals, b_vals, rmse)
        assert path.read_bytes() == _csv_writer_bytes(
            ["a", "b", "rmse", "converged"],
            [[_f(a), _f(b), "" if np.isnan(rmse[ia, ib]) else _f(rmse[ia, ib]),
              int(not np.isnan(rmse[ia, ib]))]
             for ia, a in enumerate(a_vals) for ib, b in enumerate(b_vals)])


class TestConfig:
    def test_file_parsing(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# crossover run\n"
            "protocol.tau_sweep = 8, 16, 24\n"
            "mode_dynamics.n_sites = 256\n"
            "mode_dynamics.lambda = 100\n"
            "collapse.mask = 5e-4\n"
        )
        cfg = RunConfig.from_settings(load_config_file(cfg_file))
        assert cfg.tau_sweep == [8.0, 16.0, 24.0]
        assert cfg.n_sites == 256 and cfg.lam == 100.0
        # the output root comes from --out or KZCHAIN_OUT, not the file
        cfg_file.write_text("cli_io.out_dir = /tmp/xyz\n")
        with pytest.raises(ValueError):
            RunConfig.from_settings(load_config_file(cfg_file))

    @pytest.mark.parametrize("key", ["a_min", "a_max", "b_min", "b_max",
                                     "spacing"])
    def test_removed_grid_keys_rejected(self, tmp_path, capsys, key):
        # the collapse grid is the fixed EXPONENT_GRID
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"collapse.{key} = 0.1\n")
        out = tmp_path / "out"
        rc = main(["quench", "--config", str(cfg_file), "--n", "8",
                   "--tau-q", "2", "--serial", "--out", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert f"collapse.{key}" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("key", ["mode_dynamics.rtol", "mode_dynamics.atol"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_invalid_tolerance_rejected(self, tmp_path, key, value):
        # neither tolerance is a setting: every command runs at DEFAULT_RTOL
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{key} = {value}\n")
        name = key.split(".")[1]
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            RunConfig.from_settings(load_config_file(cfg_file))
        with pytest.raises(TypeError, match=name):
            RunConfig(**{name: float(value)})

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_invalid_lambda_rejected(self, tmp_path, value):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"mode_dynamics.lambda = {value}\n")
        with pytest.raises(ValueError, match="mode_dynamics.lambda"):
            RunConfig.from_settings(load_config_file(cfg_file))
        with pytest.raises(ValueError, match="mode_dynamics.lambda"):
            RunConfig(lam=float(value))

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("protocol.bogus = 1\n")
        with pytest.raises(ValueError):
            RunConfig.from_settings(load_config_file(cfg_file))

    def test_steps_ranges(self):
        assert _parse_steps("8..12") == [8, 9, 10, 11, 12]
        assert _parse_steps("6, 8, 10") == [6, 8, 10]
        assert _parse_steps("4..6, 16") == [4, 5, 6, 16]

    def test_trotter_protocols_set_tau(self):
        cfg = RunConfig(evolution=Evolution.TROTTER, dt=0.25, steps=[8, 12])
        taus = [p.tau_q for p in cfg.protocols()]
        assert taus == [2.0, 3.0]
        cfg.variant = Variant.FULL_QUENCH
        taus = [p.tau_q for p in cfg.protocols()]
        assert taus == [1.0, 1.5]  # full quench spends 2*tau_q of wall time


class TestCli:
    def test_quench_writes_run_dirs(self, tmp_path, capsys):
        rc = main(["quench", "--n", "8", "--tau-q", "1,2,4", "--serial",
                   "--out", str(tmp_path)])
        assert rc == 0
        dirs = sorted(tmp_path.iterdir())
        assert len(dirs) == 3
        for d in dirs:
            for name in ("correlators.csv", "observables.csv",
                         "trajectories.csv", "manifest.json"):
                assert (d / name).exists()

    def test_quench_then_collapse(self, tmp_path, capsys):
        main(["quench", "--n", "8", "--tau-q", "0.5,1,2,4", "--serial",
              "--out", str(tmp_path)])
        csvs = [str(p) for p in tmp_path.glob("*/correlators.csv")]
        capsys.readouterr()
        rc = main(["collapse", *csvs, "--out", str(tmp_path)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        rmse = read_rmse_csv(tmp_path / "collapse" / "rmse_surface.csv")
        assert out["failed_cells"] == sum(1 for row in rmse
                                          if math.isnan(row[2]))
        assert (tmp_path / "collapse" / "rmse_surface.csv").exists()
        assert (tmp_path / "collapse" / "rmse_surface.svg").exists()
        assert (tmp_path / "collapse" / "collapse.svg").exists()

    def test_collapse_writes_manifest(self, tmp_path, capsys):
        main(["quench", "--n", "8", "--tau-q", "0.5,1,2,4", "--serial",
              "--out", str(tmp_path)])
        csvs = [str(p) for p in tmp_path.glob("*/correlators.csv")]
        manifests = []
        for run in ("a", "b"):
            capsys.readouterr()
            assert main(["collapse", *csvs, "--out", str(tmp_path / run)]) == 0
            out = json.loads(capsys.readouterr().out)
            manifests.append(read_manifest(tmp_path / run / "collapse" / "manifest.json"))
        first, second = manifests
        assert set(first.pop("timings")) == {"read_s", "sweep_s", "write_s"}
        second.pop("timings")
        assert first == second
        assert set(first) == {"version", "mask_threshold", "records",
                              "failed_cells", "best"}
        assert first["mask_threshold"] == DEFAULT_MASK_THEORY  # no --mask
        assert (first["records"], first["failed_cells"]) == \
            (out["records"], out["failed_cells"])
        assert (first["best"]["a"], first["best"]["b"], first["best"]["rmse"]) == \
            (out["best_a"], out["best_b"], out["best_rmse"])
        assert (tmp_path / "a" / "collapse" / "rmse_surface.csv").read_bytes() == \
            (tmp_path / "b" / "collapse" / "rmse_surface.csv").read_bytes()

    def test_reproduce_writes_collapse_manifest(self, tmp_path, capsys):
        assert main(["reproduce", "figS1a", "--out", str(tmp_path)]) == 0
        manifest = read_manifest(tmp_path / "figS1a" / "collapse" / "manifest.json")
        assert (manifest["best"]["a"], manifest["best"]["b"]) == (0.5, 0.125)
        assert manifest["records"] > 0 and manifest["failed_cells"] == 0

    def test_recipe_table_matches_parser(self):
        # every recipe's sweep is a valid RunConfig, and the parser offers
        # exactly the table's figure ids, in its order; no sweep runs
        for recipe in RECIPES.values():
            assert RunConfig(**recipe.sweep).protocols()
        (sub,) = [a for a in _build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        (figure,) = [a for a in sub.choices["reproduce"]._actions
                     if a.dest == "figure"]
        assert list(figure.choices) == list(RECIPES)

    def test_observables_names_bad_trajectories_row(self, tmp_path, capsys):
        main(["quench", "--n", "8", "--tau-q", "2", "--serial",
              "--out", str(tmp_path)])
        (run_dir,) = tmp_path.iterdir()
        path = run_dir / "trajectories.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:2]) + "0.39269908169872414,0.0\n")
        capsys.readouterr()
        assert main(["observables", str(run_dir)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert f"{path}:3: bad row" in err["message"]

    def test_observables_names_empty_trajectories(self, tmp_path, capsys):
        main(["quench", "--n", "8", "--tau-q", "2", "--serial",
              "--out", str(tmp_path)])
        (run_dir,) = tmp_path.iterdir()
        path = run_dir / "trajectories.csv"
        path.write_text(path.read_text().splitlines(keepends=True)[0])
        capsys.readouterr()
        assert main(["observables", str(run_dir)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": f"{path}: no samples"}

    @pytest.mark.parametrize("corrupt, message", [
        (lambda m: m.pop("n_sites"), "missing key 'n_sites'"),
        (lambda m: m["protocol"].pop("tau_q"), "missing key 'tau_q'"),
        (lambda m: m["protocol"].update(variant="sideways"),
         "'sideways' is not a valid Variant"),
        (lambda m: m.update({"lambda": -1.0}), "lambda must be finite and >= 0"),
        (None, "line 2 column 1"),
        (lambda m: m.update(n_sites="8"),
         "n_sites must be an even integer >= 2, got '8'"),
        (lambda m: m.update(n_sites=7), "n_sites must be an even integer >= 2, got 7"),
        (lambda m: m.update(protocol=[]), "list indices must be integers"),
    ], ids=["no_n_sites", "no_tau_q", "bad_variant", "negative_lambda",
            "truncated", "n_sites_text", "n_sites_odd", "protocol_list"])
    def test_observables_names_bad_manifest(self, tmp_path, capsys, corrupt,
                                            message):
        main(["quench", "--n", "8", "--tau-q", "2", "--serial",
              "--out", str(tmp_path)])
        (run_dir,) = tmp_path.iterdir()
        path = run_dir / "manifest.json"
        if corrupt is None:
            path.write_text("{\n")  # cut after the opening brace
        else:
            manifest = read_manifest(path)
            corrupt(manifest)
            write_manifest(path, manifest)
        capsys.readouterr()
        assert main(["observables", str(run_dir)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"{path}: ")
        assert message in err["message"]

    def test_manifest_rerun_is_byte_identical(self, tmp_path):
        args = ["quench", "--n", "8", "--tau-q", "2", "--serial"]
        main([*args, "--out", str(tmp_path / "a")])
        main([*args, "--out", str(tmp_path / "b")])
        (run_a,) = (tmp_path / "a").iterdir()
        (run_b,) = (tmp_path / "b").iterdir()
        for name in ("correlators.csv", "observables.csv", "trajectories.csv"):
            assert (run_a / name).read_bytes() == (run_b / name).read_bytes()
        first, second = (read_manifest(run / "manifest.json")
                         for run in (run_a, run_b))
        assert set(first.pop("timings")) == {"dynamics_s", "tables_s",
                                             "profiles_s", "write_s"}
        second.pop("timings")
        assert first == second
        integrator, profile = first["integrator"], first["profile"]
        assert profile["fallbacks"] == 0
        assert 0.0 < profile["max_multiplier"] < MAX_MULTIPLIER
        # diagnostics stay in the manifest, never in a CSV
        for name in ("correlators.csv", "observables.csv", "trajectories.csv"):
            header = (run_a / name).read_text().splitlines()[0]
            assert "multiplier" not in header and "fallback" not in header
        # tau_q = 2 at the default rtol: dt = (10 * 1e-10 * 2) ** 0.25
        assert integrator["method"] == "magnus4"
        assert integrator["steps"] == math.ceil(2.0 / (2e-9) ** 0.25)
        assert 0.0 <= integrator["max_norm_error"] < 1e-13

    @pytest.mark.parametrize("args, method, steps, bound", [
        (["--tau-q", "2", "--lambda", "0.5"], "magnus4_frame", 1169, 1e-9),
        (["--trotter", "--dt", "0.25", "--steps", "6"], "trotter", 6, 1e-13),
    ])
    def test_manifest_records_integrator(self, tmp_path, args, method, steps,
                                         bound):
        main(["quench", "--n", "8", "--serial", *args, "--out", str(tmp_path)])
        (run,) = tmp_path.iterdir()
        integrator = read_manifest(run / "manifest.json")["integrator"]
        assert integrator["method"] == method and integrator["steps"] == steps
        assert 0.0 <= integrator["max_norm_error"] < bound

    def test_emit_qasm_filename_pattern(self, tmp_path, capsys):
        rc = main(["emit-qasm", "--n", "6", "--dt", "0.25", "--steps", "8",
                   "--basis", "x", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "tfim_N6_dt0.25_steps8_x.qasm").exists()

    def test_oracle_prints_json(self, capsys):
        rc = main(["oracle", "--n", "4", "--tau-q", "1"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert "n_def" in out and "energy" in out

    def test_oracle_readme_example(self, capsys):
        # the README's dephased N = 8 run, at the density-matrix cap
        rc = main(["oracle", "--n", "8", "--tau-q", "2", "--lambda", "0.1"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert sorted(out) == ["c_xx", "c_zz", "energy", "m_x", "m_z", "n_def"]
        assert len(out["m_x"]) == 8 and sorted(out["c_zz"]) == ["1", "2", "3", "4"]
        assert 0.0 < out["n_def"] < 0.5

    def test_oracle_trotter_reports_final_step(self, capsys):
        rc = main(["oracle", "--n", "4", "--trotter", "--dt", "0.25",
                   "--steps", "4"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        p = QuenchProtocol(tau_q=1.0, evolution=Evolution.TROTTER,
                           dt=0.25, steps=4)
        final = evolve_statevector(p, 4)[-1]
        sched = schedule_at(p, final.t)
        ref = oracle_observables(final, sched.j, sched.h)
        assert out["n_def"] == ref["n_def"] and out["energy"] == ref["energy"]
        assert out["m_x"] == ref["m_x"].tolist()

    @pytest.mark.parametrize("lam", ["nan", "inf", "-1"])
    def test_quench_rejects_bad_lambda(self, tmp_path, capsys, lam):
        rc = main(["quench", "--n", "8", "--tau-q", "2", "--serial",
                   f"--lambda={lam}", "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "--lambda" in err["message"]
        assert not tmp_path.exists() or not any(tmp_path.iterdir())

    def test_quench_config_file_and_flags(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("protocol.tau_sweep = 1, 2\n"
                            "mode_dynamics.n_sites = 8\n"
                            "mode_dynamics.lambda = 0.5\n"
                            "collapse.mask = 0.01\n")
        out = tmp_path / "out"
        rc = main(["quench", "--config", str(cfg_file), "--tau-q", "2",
                   "--mask", "0.02", "--serial", "--out", str(out)])
        assert rc == 0
        (run_dir,) = out.iterdir()
        assert run_dir.name == "N8_tau2_lam0.5_to_critical_point"
        manifest = read_manifest(run_dir / "manifest.json")
        assert (manifest["n_sites"], manifest["lambda"]) == (8, 0.5)
        assert manifest["mask_threshold"] == 0.02
        assert manifest["protocol"]["tau_q"] == 2.0

    @pytest.mark.parametrize("args, flag", [
        (["--n", "7", "--tau-q", "2"], "--n"),
        (["--n", "eight", "--tau-q", "2"], "--n"),
        (["--n", "8", "--tau-q", "2", "--x-max", "9"], "--x-max"),
        (["--n", "8", "--tau-q", "2", "--x-max", "0"], "--x-max"),
        (["--n", "8", "--tau-q", "2", "--dt", "0.25", "--steps", "8"], "--dt"),
        (["--n", "8", "--tau-q", "2", "--steps", "8"], "--steps"),
        (["--n", "8", "--trotter", "--steps", "8"], "--dt"),
        (["--n", "8", "--trotter", "--dt", "0.25", "--steps", "8",
          "--continuous"], "--dt"),
        (["--n", "8", "--trotter", "--dt", "0.25", "--steps", "8",
          "--tau-q", "5"], "protocol.tau_sweep (--tau-q)"),
        (["--n", "8", "--trotter", "--dt", "0.25", "--steps", "8,10",
          "--lambda", "1"], "mode_dynamics.lambda (--lambda)"),
        (["--n", "8", "--tau-q", "2", "--mask", "nan"], "collapse.mask (--mask)"),
        (["--n", "8", "--tau-q", "1,inf"], "protocol.tau_sweep (--tau-q)"),
        (["--n", "8", "--tau-q", "nan"], "protocol.tau_sweep (--tau-q)"),
        (["--n", "8", "--tau-q", "0"], "protocol.tau_sweep (--tau-q)"),
        (["--n", "8", "--trotter", "--dt", "inf", "--steps", "8"],
         "protocol.dt (--dt)"),
        (["--n", "8", "--trotter", "--dt", "-0.25", "--steps", "8"],
         "protocol.dt (--dt)"),
    ], ids=["odd_n", "n_not_int", "x_max_above_half", "x_max_zero",
            "continuous_dt", "continuous_steps", "trotter_without_dt",
            "continuous_last", "trotter_tau_q", "trotter_lambda", "mask_nan",
            "tau_q_inf", "tau_q_nan", "tau_q_zero", "dt_inf", "dt_negative"])
    def test_quench_rejects_bad_settings_before_running(self, tmp_path, capsys,
                                                        args, flag):
        rc = main(["quench", *args, "--serial", "--out", str(tmp_path / "out")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and flag in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [("--mask", "nan")])
    def test_collapse_rejects_bad_flag_before_reading(self, tmp_path, capsys,
                                                      flag, value):
        # the CSV does not exist, so reading it would fail otherwise
        rc = main(["collapse", str(tmp_path / "missing.csv"), flag, value,
                   "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and flag in err["message"]
        assert not (tmp_path / "collapse").exists()

    def test_collapse_names_empty_time_slice(self, tmp_path, capsys):
        # a full Trotter quench of an odd step count samples every step
        # and steps over t = 0, the one time the collapse reads
        main(["quench", "--n", "8", "--trotter", "--full", "--dt", "0.25",
              "--steps", "5,7,9", "--serial", "--out", str(tmp_path)])
        csvs = sorted(str(p) for p in tmp_path.glob("*/correlators.csv"))
        assert len(csvs) == 3
        capsys.readouterr()
        rc = main(["collapse", *csvs, "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "no correlator row at t = 0 in" in err["message"]
        assert all(path in err["message"] for path in csvs)
        assert not (tmp_path / "collapse").exists()

    def test_quench_rejects_clashing_run_directories(self, tmp_path, capsys):
        # both tau_q format as "1" in the run tag
        rc = main(["quench", "--n", "8", "--tau-q", "1.0000001,1.0000002",
                   "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "1.0000001" in err["message"] and "1.0000002" in err["message"]
        assert not tmp_path.exists() or not any(tmp_path.iterdir())

    @pytest.mark.parametrize("lam", ["nan", "inf", "-1"])
    def test_oracle_rejects_bad_lambda(self, capsys, lam):
        rc = main(["oracle", "--n", "4", "--tau-q", "1", f"--lambda={lam}"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "--lambda" in err["message"]

    def test_oracle_requires_tau_q(self, capsys):
        rc = main(["oracle", "--n", "4"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError",
                       "message": "oracle runs one quench: give one --tau-q "
                                  "value, not [8.0, 16.0, 24.0, 32.0, 48.0, 64.0]"}

    @pytest.mark.parametrize("argv, flags", [
        (["oracle", "--n", "4", "--trotter", "--dt", "0.25", "--steps", "4",
          "--tau-q", "7"], ["--tau-q", "--trotter"]),
        (["oracle", "--n", "4", "--tau-q", "1", "--dt", "0.25", "--steps", "4"],
         ["--dt", "--trotter"]),
        (["oracle", "--n", "4", "--trotter", "--dt", "0.25", "--steps", "4",
          "--lambda", "0.5"], ["--lambda", "--trotter"]),
        (["oracle", "--n", "4", "--tau-q", "1,2"], ["--tau-q"]),
        (["oracle", "--n", "4", "--trotter", "--dt", "0.25", "--steps", "8..10"],
         ["--steps"]),
        (["emit-qasm", "--n", "4", "--dt", "0.25", "--steps", "8..10"],
         ["--steps"]),
        (["emit-qasm", "--n", "4", "--steps", "8"], ["--dt"]),
        (["emit-qasm", "--n", "4", "--dt", "0.25"], ["--steps"]),
        (["oracle", "--n", "4", "--tau-q", "inf"], ["--tau-q"]),
        (["oracle", "--n", "4", "--tau-q", "0"], ["--tau-q"]),
        (["oracle", "--n", "4", "--trotter", "--dt", "inf", "--steps", "4"],
         ["--dt"]),
        (["emit-qasm", "--n", "4", "--dt", "inf", "--steps", "4"], ["--dt"]),
    ], ids=["trotter_tau_q", "continuous_dt", "trotter_lambda", "tau_q_sweep",
            "steps_sweep", "emit_steps_sweep", "emit_without_dt",
            "emit_without_steps", "tau_q_inf", "tau_q_zero", "trotter_dt_inf",
            "emit_dt_inf"])
    def test_single_quench_rejects_bad_settings(self, tmp_path, capsys, argv,
                                                flags):
        # oracle and emit-qasm check their flags as quench does, and each
        # runs exactly one protocol
        rc = main([*argv, *(["--out", str(tmp_path / "out")]
                            if argv[0] == "emit-qasm" else [])])
        assert rc == 1
        out, err = capsys.readouterr()
        err = json.loads(err)
        assert out == "" and err["error"] == "ValueError"
        assert all(flag in err["message"] for flag in flags), err["message"]
        assert not (tmp_path / "out").exists()

    def test_error_is_machine_readable(self, capsys):
        rc = main(["oracle", "--n", "3", "--tau-q", "1"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"

    def test_oracle_rejects_odd_n_with_lambda(self, capsys):
        rc = main(["oracle", "--n", "5", "--tau-q", "1", "--lambda", "0.1"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError",
                       "message": "mode_dynamics.n_sites (--n) must be even "
                                  "and >= 2, got 5"}

    def test_import_leaves_scipy_solvers_unloaded(self):
        # only the LSODA and DOP853 reference paths need scipy.integrate,
        # only the oracle needs scipy.sparse, and each imports it when called
        code = ("import sys, kzchain.cli; print([m for m in ('scipy.integrate',"
                " 'scipy.optimize', 'scipy.sparse') if m in sys.modules])")
        path = [str(Path(kzchain.__file__).parents[1]),
                os.environ.get("PYTHONPATH", "")]
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
        assert out.stdout.strip() == "[]"

    def test_output_root_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("KZCHAIN_OUT", str(tmp_path / "envroot"))
        monkeypatch.chdir(tmp_path)
        rc = main(["emit-qasm", "--n", "4", "--dt", "0.5", "--steps", "2"])
        assert rc == 0
        assert (tmp_path / "envroot" / "tfim_N4_dt0.5_steps2_z.qasm").exists()

    def test_observables_recompute(self, tmp_path, capsys):
        main(["quench", "--n", "8", "--tau-q", "2", "--serial",
              "--out", str(tmp_path)])
        (run_dir,) = tmp_path.iterdir()
        before = (run_dir / "observables.csv").read_bytes()
        rows = read_observables_csv(run_dir / "observables.csv")
        capsys.readouterr()
        rc = main(["observables", str(run_dir)])
        assert rc == 0
        assert (run_dir / "observables.csv").read_bytes() == before
        # one JSON line per row, keys in the column order of the file
        assert capsys.readouterr().out.splitlines() == \
            [json.dumps(row) for row in rows]
        assert list(rows[0]) == ["tau_q", "lam", "t", "m_x", "n_def",
                                 "e_total", "e_res", "e_exc"]

    def test_observables_builds_no_profiles(self, tmp_path, monkeypatch, capsys):
        # the observables table has scalar columns only; the correlator
        # profiles belong to correlators.csv, which quench writes
        main(["quench", "--n", "8", "--tau-q", "2", "--serial",
              "--out", str(tmp_path)])
        (run_dir,) = tmp_path.iterdir()
        before = (run_dir / "observables.csv").read_bytes()

        def forbidden(*args, **kwargs):
            raise AssertionError("observables reached a correlator profile")

        import kzchain.cli
        import kzchain.correlators
        import kzchain.observables
        for mod in (kzchain.cli, kzchain.correlators, kzchain.observables):
            for name in ("zz_connected_profiles", "zz_connected_profile",
                         "xx_connected_profiles", "xx_connected"):
                monkeypatch.setattr(mod, name, forbidden, raising=False)
        rc = main(["observables", str(run_dir)])
        assert rc == 0, capsys.readouterr().err
        assert (run_dir / "observables.csv").read_bytes() == before
