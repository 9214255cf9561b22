"""Tests for the command-line scenarios: artifacts, determinism, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from thinflow import cli
from thinflow import gronwall as gw
from thinflow.diagnostics import DiagnosticSeries

PLANAR_CFG = """\
# planar regime preset: vertical-average data and forcing only
l1=1.0
l2=1.0
eps=0.125
nu=1.0
n1=6
n2=6
n3=2
dt=0.002
t_end=0.2
scheme=etd-rk2
diag_stride=2
initial.kind=z-independent
initial.u=0.08
forcing.kind=steady
forcing.profile=z-independent
forcing.amplitude=0.02
seed=42
"""


def run_cli(args):
    return cli.main(args)


@pytest.fixture
def planar_cfg(tmp_path):
    path = tmp_path / "sim.cfg"
    path.write_text(PLANAR_CFG)
    return str(path)


class TestConfigParsing:
    def test_line_anchored_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("l1=1.0\nthis is not a pair\n")
        rc = run_cli(["simulate", "-c", str(bad)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "bad.cfg:2" in err

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = tmp_path / "x.cfg"
        cfg.write_text("l1=1.0\n")
        rc = run_cli(["simulate", "-c", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_CONFIG
        assert "l2" in capsys.readouterr().err

    def test_scenario_mismatch(self, tmp_path, capsys):
        cfg = tmp_path / "x.cfg"
        cfg.write_text("scenario=sweep\n")
        rc = run_cli(["simulate", "-c", str(cfg)])
        assert rc == cli.EXIT_CONFIG
        assert "scenario" in capsys.readouterr().err

    def test_set_overrides_file(self, planar_cfg, tmp_path):
        out = tmp_path / "out"
        rc = run_cli([
            "simulate", "-c", planar_cfg, "--out", str(out), "--set", "t_end=0.02",
        ])
        assert rc == cli.EXIT_OK
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["t_end"] == 0.02

    def test_no_subcommand_usage(self):
        for argv in ([], ["render"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2

    def test_unknown_kind_is_config_error(self, tmp_path, capsys):
        rc = run_cli([
            "simulate", "--out", str(tmp_path / "o"),
            "--set", "l1=1", "--set", "l2=1", "--set", "eps=0.1", "--set", "nu=1",
            "--set", "n1=4", "--set", "n2=4", "--set", "n3=1",
            "--set", "dt=0.001", "--set", "t_end=0.01",
            "--set", "initial.kind=spiral",
        ])
        assert rc == cli.EXIT_CONFIG

    def test_removed_dealias_key_is_config_error(self, planar_cfg, tmp_path, capsys):
        rc = run_cli([
            "simulate", "-c", planar_cfg, "--out", str(tmp_path / "o"), "--set", "dealias=true",
        ])
        assert rc == cli.EXIT_CONFIG
        assert "'dealias' was removed" in capsys.readouterr().err


    @pytest.mark.parametrize("how", ["--out", "out key"])
    def test_output_path_that_is_a_file_is_config_error(self, planar_cfg, tmp_path, capsys, how):
        """An existing regular file as the output directory exits 2 with one error line
        (1 is verify-inequalities' failing verdict) and leaves the file as it was."""
        target = tmp_path / "taken"
        target.write_text("keep\n")
        where = ["--out", str(target)] if how == "--out" else ["--set", f"out={target}"]
        rc = run_cli(["simulate", "-c", planar_cfg, *where])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: cannot create output directory:")
        assert target.read_text() == "keep\n"

class TestSimulate:
    def test_artifacts_and_planar_closure(self, planar_cfg, tmp_path):
        out = tmp_path / "run"
        rc = run_cli(["simulate", "-c", planar_cfg, "--out", str(out)])
        assert rc == cli.EXIT_OK
        for name in ("diagnostics.csv", "run_meta.json", "manifest.json", "run_final.ckpt"):
            assert (out / name).exists()
        series = DiagnosticSeries.from_csv(out / "diagnostics.csv")
        # planar preset: the chi column is identically tiny
        assert np.all(series.chi <= 1e-10 * np.maximum(series.h1, 1e-300))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scenario"] == "simulate"
        assert "config_hash" in manifest
        assert manifest["config"]["seed"] == "42"

    def test_deterministic_artifacts(self, planar_cfg, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["simulate", "-c", planar_cfg, "--out", str(out1)]) == 0
        assert run_cli(["simulate", "-c", planar_cfg, "--out", str(out2)]) == 0
        assert (out1 / "diagnostics.csv").read_bytes() == (out2 / "diagnostics.csv").read_bytes()
        assert (out1 / "run_final.ckpt").read_bytes() == (out2 / "run_final.ckpt").read_bytes()

    def test_seed_changes_artifacts(self, planar_cfg, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli(["simulate", "-c", planar_cfg, "--out", str(out1)])
        run_cli(["simulate", "-c", planar_cfg, "--out", str(out2), "--seed", "7"])
        assert (out1 / "diagnostics.csv").read_bytes() != (out2 / "diagnostics.csv").read_bytes()

    def test_blowup_exit_code_and_dump(self, tmp_path):
        out = tmp_path / "boom"
        rc = run_cli([
            "simulate", "--out", str(out),
            "--set", "l1=1", "--set", "l2=1", "--set", "eps=0.2", "--set", "nu=1e-6",
            "--set", "n1=6", "--set", "n2=6", "--set", "n3=2",
            "--set", "dt=0.5", "--set", "t_end=50", "--set", "enforce_cfl=false",
            "--set", "initial.kind=random-divfree", "--set", "initial.u=50",
        ])
        assert rc == cli.EXIT_BLOWUP
        dump = json.loads((out / "blowup.json").read_text())
        assert dump["max_coeff"] > 1e12 or dump["n_nonfinite"] > 0
        # partial diagnostics are preserved; there is no final state to write
        assert (out / "diagnostics.csv").exists()
        assert not (out / "run_final.ckpt").exists()

    def test_negative_checkpoint_stride_rejected(self, planar_cfg, tmp_path, capsys):
        out = tmp_path / "neg"
        rc = run_cli(["simulate", "-c", planar_cfg, "--out", str(out),
                      "--set", "checkpoint_stride=-5"])
        assert rc == cli.EXIT_CONFIG
        assert "checkpoint_stride" in capsys.readouterr().err
        assert not list(out.glob("*.ckpt"))

    def test_checkpoint_write_failure_exit_code(self, planar_cfg, tmp_path, monkeypatch, capsys):
        """A failed checkpoint write is reported on stderr with its own exit code;
        the diagnostics, run_meta.json and the manifest are still written."""
        save = cli.sv.save_checkpoint
        calls = []

        def failing_second(*args, **kwargs):
            calls.append(args[1])
            if len(calls) == 2:
                raise OSError(28, "No space left on device")
            save(*args, **kwargs)

        monkeypatch.setattr(cli.sv, "save_checkpoint", failing_second)
        out = tmp_path / "run"
        rc = run_cli([
            "simulate", "-c", planar_cfg, "--out", str(out), "--set", "checkpoint_stride=20",
        ])
        assert rc == cli.EXIT_IO
        err = capsys.readouterr().err
        assert "checkpoint write failed at step 20" in err
        assert "No space left on device" in err
        for name in ("diagnostics.csv", "run_meta.json", "manifest.json", "run_step00000000.ckpt"):
            assert (out / name).exists()
        assert sorted(p.name for p in out.glob("*.ckpt")) == ["run_step00000000.ckpt"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifacts"] == ["diagnostics.csv", "run_meta.json", "run_step00000000.ckpt"]

    def test_diagnostics_path_taken_by_a_directory(self, planar_cfg, tmp_path, capsys):
        """A directory where diagnostics.csv goes exits 2 with one error line, not a traceback."""
        out = tmp_path / "run"
        (out / "diagnostics.csv").mkdir(parents=True)
        rc = run_cli(["simulate", "-c", planar_cfg, "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "diagnostics.csv" in err[0]
        assert not (out / "manifest.json").exists()

    def test_env_var_output_root(self, planar_cfg, tmp_path, monkeypatch):
        monkeypatch.setenv("THINFLOW_OUT_ROOT", str(tmp_path / "root"))
        monkeypatch.chdir(tmp_path)
        rc = run_cli(["simulate", "-c", planar_cfg])
        assert rc == cli.EXIT_OK
        assert (tmp_path / "root" / "simulate" / "diagnostics.csv").exists()


class TestVerifyInequalities:
    def test_reports_and_envelope(self, planar_cfg, tmp_path):
        run_dir = tmp_path / "run"
        assert run_cli(["simulate", "-c", planar_cfg, "--out", str(run_dir)]) == 0
        out = tmp_path / "verify"
        rc = run_cli([
            "verify-inequalities", "--out", str(out),
            "--set", f"in={run_dir}", "--set", "regime=planar",
        ])
        assert rc == cli.EXIT_OK
        reports = json.loads((out / "inequality_reports.json").read_text())
        assert {r["name"] for r in reports} == {"planar-phi", "planar-psi", "planar-energy"}
        assert all(r["verdict"] == "pass" for r in reports)
        assert (out / "residual_traces_planar.csv").exists()
        containment = json.loads((out / "containment.json").read_text())
        assert containment["containment"]["contained"]
        bounds = json.loads((out / "regularity_bounds.json").read_text())
        assert bounds["c_uniform"] is not None

    def test_all_regimes(self, planar_cfg, tmp_path):
        run_dir = tmp_path / "run"
        run_cli(["simulate", "-c", planar_cfg, "--out", str(run_dir)])
        out = tmp_path / "verify"
        rc = run_cli([
            "verify-inequalities", "--out", str(out),
            "--set", f"in={run_dir}", "--set", "regime=all",
        ])
        assert rc == cli.EXIT_OK
        reports = json.loads((out / "inequality_reports.json").read_text())
        assert len(reports) == 9

    def test_reports_do_not_depend_on_the_input_path(self, planar_cfg, tmp_path, monkeypatch):
        """An absolute and a relative path to one simulate directory give
        byte-identical reports: trajectory_id is the directory's own name."""
        assert run_cli(["simulate", "-c", planar_cfg, "--out", str(tmp_path / "run")]) == 0
        monkeypatch.chdir(tmp_path)
        for out, in_dir in (("abs", str(tmp_path / "run")), ("rel", "./run/")):
            rc = run_cli([
                "verify-inequalities", "--out", out, "--set", f"in={in_dir}",
                "--set", "regime=planar", "--set", "envelope=false",
            ])
            assert rc == cli.EXIT_OK
        reports = (tmp_path / "abs" / "inequality_reports.json").read_bytes()
        assert reports == (tmp_path / "rel" / "inequality_reports.json").read_bytes()
        assert {r["trajectory_id"] for r in json.loads(reports)} == {"run"}

    def test_missing_input_dir(self, tmp_path, capsys):
        rc = run_cli(["verify-inequalities", "--out", str(tmp_path / "v")])
        assert rc == cli.EXIT_CONFIG
        assert "in" in capsys.readouterr().err

    def test_split_regime_skips_envelope(self, planar_cfg, tmp_path):
        run_dir = tmp_path / "run"
        run_cli(["simulate", "-c", planar_cfg, "--out", str(run_dir)])
        out = tmp_path / "verify"
        rc = run_cli([
            "verify-inequalities", "--out", str(out),
            "--set", f"in={run_dir}", "--set", "regime=full-split",
        ])
        assert rc == cli.EXIT_OK
        assert not (out / "envelope.csv").exists()
        assert (out / "inequality_reports.json").exists()


class TestEstimateAndSweep:
    def test_estimate_artifacts(self, tmp_path):
        out = tmp_path / "est"
        rc = run_cli([
            "estimate-constants", "--out", str(out),
            "--set", "inequality=planar-l4",
            "--set", "l1=1", "--set", "l2=1", "--set", "eps=0.2", "--set", "nu=1",
            "--set", "n1=8", "--set", "n2=8", "--set", "n3=1",
            "--set", "budget=40", "--seed", "3",
        ])
        assert rc == cli.EXIT_OK
        est = json.loads((out / "estimate.json").read_text())
        assert est["max_ratio"] >= 0.44
        assert est["maximizer_checkpoint"] == "maximizer.ckpt"
        assert (out / "maximizer.ckpt").exists()
        assert (out / "ratios.csv").read_text().splitlines()[0] == (
            "eps,n1,n2,n3,max_ratio,upper_bound,trials,best_kind"
        )

    def test_sweep_structure_and_fit(self, tmp_path):
        out = tmp_path / "sweep"
        rc = run_cli([
            "sweep", "--out", str(out),
            "--set", "inequality=thin-sup",
            "--set", "eps_list=0.25,0.125,0.0625,0.03125",
            "--set", "budget=8", "--set", "cap=32",
        ])
        assert rc == cli.EXIT_OK
        fit = json.loads((out / "scaling_fit.json").read_text())
        assert abs(fit["slope"] - 0.5) <= 0.12
        for eps in ("0.25", "0.125", "0.0625", "0.03125"):
            assert (out / f"eps_{eps}" / "estimate.json").exists()
            assert (out / f"eps_{eps}" / "maximizer.ckpt").exists()
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 5

    def test_sweep_subdirectory_taken_by_a_file(self, tmp_path, capsys):
        """A regular file where an eps_* directory goes exits 2 with one error line."""
        out = tmp_path / "sweep"
        out.mkdir()
        (out / "eps_0.25").write_text("keep\n")
        rc = run_cli([
            "sweep", "--out", str(out), "--set", "eps_list=0.25,0.125,0.0625",
            "--set", "budget=4", "--set", "cap=16",
        ])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "eps_0.25" in err[0]
        assert (out / "eps_0.25").read_text() == "keep\n"

    def test_sweep_rejects_eps_values_sharing_a_directory(self, tmp_path, capsys):
        """eps_{eps:g} keeps 6 significant digits: 0.1000001 and 0.1000002 both map to
        eps_0.1, so the second estimate would overwrite the first's files."""
        out = tmp_path / "sweep"
        rc = run_cli([
            "sweep", "--out", str(out),
            "--set", "eps_list=0.25,0.1000001,0.1000002",
            "--set", "budget=4", "--set", "cap=16",
        ])
        assert rc == cli.EXIT_CONFIG
        assert "eps_0.1" in capsys.readouterr().err
        assert not list(out.glob("eps_*"))
        assert not (out / "manifest.json").exists()

    def test_sweep_rejects_fewer_than_three_eps_values(self, tmp_path, capsys):
        """A slope needs three points: the list is rejected before any estimate runs."""
        out = tmp_path / "sweep"
        rc = run_cli([
            "sweep", "--out", str(out), "--set", "eps_list=0.25,0.125",
            "--set", "budget=4", "--set", "cap=16",
        ])
        assert rc == cli.EXIT_CONFIG
        assert "at least 3 eps values" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("setting", ["p=1", "p=0.5", "oversample=0"])
    def test_estimate_rejects_bad_exponent_or_oversampling(self, tmp_path, capsys, setting):
        out = tmp_path / "est"
        rc = run_cli([
            "estimate-constants", "--out", str(out), "--set", "inequality=hausdorff-young",
            "--set", "l1=1", "--set", "l2=1", "--set", "eps=0.2", "--set", "nu=1",
            "--set", "n1=3", "--set", "n2=3", "--set", "n3=2",
            "--set", "budget=8", "--set", setting,
        ])
        assert rc == cli.EXIT_CONFIG
        assert "p > 1 and oversample >= 1" in capsys.readouterr().err
        assert not (out / "estimate.json").exists()


class TestRescaleAndThresholds:
    def test_rescale_check(self, tmp_path):
        out = tmp_path / "rc"
        rc = run_cli([
            "rescale-check", "--out", str(out),
            "--set", "l1=2", "--set", "l2=1", "--set", "eps=0.125", "--set", "nu=0.5",
            "--set", "n1=5", "--set", "n2=5", "--set", "n3=2",
        ])
        assert rc == cli.EXIT_OK
        rep = json.loads((out / "rescale_report.json").read_text())
        assert rep["n"] == 2
        assert rep["residual_f_identity"] <= 1e-12
        assert rep["residual_u_identity"] <= 1e-12
        assert rep["roundtrip_residual"] <= 1e-12
        assert rep["rhs_residual"] <= 1e-10

    def test_thresholds(self, tmp_path):
        out = tmp_path / "th"
        rc = run_cli([
            "thresholds", "--out", str(out),
            "--set", "eps_list=0.1,0.01,0.001", "--set", "delta=0.01",
        ])
        assert rc == cli.EXIT_OK
        table = json.loads((out / "thresholds.json").read_text())
        assert len(table["rows"]) == 3
        assert all(r["uniform"] == 1.0 for r in table["rows"])
        lines = (out / "thresholds.csv").read_text().splitlines()
        assert len(lines) == 4

    def test_eps_validation_surfaces(self, tmp_path, capsys):
        for eps_list in ("1.5", ""):
            out = tmp_path / f"x{eps_list}"
            rc = run_cli(["thresholds", "--out", str(out), "--set", f"eps_list={eps_list}"])
            assert rc == cli.EXIT_CONFIG, eps_list
            assert not (out / "manifest.json").exists()


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        """python -m thinflow.cli works as the installed entry point does."""
        proc = subprocess.run(
            [sys.executable, "-m", "thinflow.cli", "thresholds",
             "--out", str(tmp_path / "th"), "--set", "eps_list=0.1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "th" / "thresholds.csv").exists()

    def test_import_leaves_out_the_ode_solvers(self):
        """Importing the command loads no scipy.integrate: the envelopes are closed forms."""
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, thinflow.cli; assert 'scipy.integrate' not in sys.modules"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr


class TestInputAndNumericalErrors:
    @pytest.fixture
    def run_dir(self, planar_cfg, tmp_path):
        out = tmp_path / "run"
        assert run_cli(["simulate", "-c", planar_cfg, "--out", str(out), "--set", "t_end=0.02"]) == 0
        return out

    def verify(self, run_dir, tmp_path):
        return run_cli([
            "verify-inequalities", "--out", str(tmp_path / "verify"),
            "--set", f"in={run_dir}", "--set", "regime=planar",
        ])

    @pytest.mark.parametrize("lines, message", [
        (0, "unexpected diagnostics CSV header"), (1, "no diagnostics rows"),
    ], ids=["empty", "header-only"])
    def test_truncated_diagnostics_csv(self, run_dir, tmp_path, capsys, lines, message):
        csv_path = run_dir / "diagnostics.csv"
        csv_path.write_text("".join(csv_path.read_text().splitlines(keepends=True)[:lines]))
        assert self.verify(run_dir, tmp_path) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("path", [["domain"], ["U"], ["F"], ["domain", "nu"]])
    def test_run_meta_missing_key(self, run_dir, tmp_path, capsys, path):
        meta_path = run_dir / "run_meta.json"
        meta = json.loads(meta_path.read_text())
        *parents, key = path
        owner = meta[parents[0]] if parents else meta
        del owner[key]
        meta_path.write_text(json.dumps(meta))
        assert self.verify(run_dir, tmp_path) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "run_meta.json" in err and repr(key) in err

    def test_envelope_failure_exit_code(self, run_dir, tmp_path, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise gw.NumericalError("psi envelope integration failed: overflow")

        monkeypatch.setattr(gw, "solve_envelope", failing)
        assert self.verify(run_dir, tmp_path) == cli.EXIT_NUMERICAL
        assert "psi envelope integration failed" in capsys.readouterr().err

    def test_envelope_solved_once(self, run_dir, tmp_path, monkeypatch):
        """verify-inequalities checks containment against the one envelope it writes."""
        calls = []
        solve = gw.solve_envelope

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(gw, "solve_envelope", counting)
        assert self.verify(run_dir, tmp_path) in (cli.EXIT_OK, 1)
        assert (tmp_path / "verify" / "containment.json").exists()
        assert len(calls) == 1

    def test_other_runtime_errors_propagate(self, run_dir, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise NotImplementedError("not a numerical failure")

        monkeypatch.setattr(gw, "solve_envelope", failing)
        with pytest.raises(NotImplementedError):
            self.verify(run_dir, tmp_path)
