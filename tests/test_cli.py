"""Tests for the command-line scenarios: artifacts, determinism, exit codes."""

import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from thinflow import cli
from thinflow import diagnostics as dg
from thinflow import gronwall as gw
from thinflow import inequalities as iq
from thinflow import solver as sv
from thinflow import spectral as sp
from thinflow.artifacts import record
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


def write_file(path, text: str) -> str:
    path.write_text(text)
    return str(path)


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

    @pytest.mark.parametrize("argv, message", [
        (lambda tmp, cfg: ["simulate", "-c", str(tmp / "missing.cfg")], "cannot read config"),
        (lambda tmp, cfg: ["simulate", "-c", write_file(tmp / "bad.cfg", "l1=1.0\n = 2.0\n")],
         "bad.cfg:2: empty key"),
        (lambda tmp, cfg: ["simulate", "-c", cfg, "--set", "enforce_cfl=maybe"],
         "config key 'enforce_cfl': cannot parse 'maybe' as bool"),
        (lambda tmp, cfg: ["simulate", "-c", cfg, "--set", "forcing.kind=gust"],
         "config key 'forcing.kind': unknown kind 'gust'"),
        (lambda tmp, cfg: ["sweep", "--set", "eps_list=0.25,abc,0.0625"],
         "config key 'eps_list': expected comma-separated floats"),
        (lambda tmp, cfg: ["thresholds", "--set", "delta"], "--set 'delta': expected KEY=VALUE"),
        (lambda tmp, cfg: ["estimate-constants", "-c", cfg],
         "missing required config key 'inequality'"),
        (lambda tmp, cfg: ["sweep", "--set", "budget=4"], "missing required config key 'eps_list'"),
    ], ids=["unreadable-file", "empty-key", "bad-bool", "unknown-forcing", "bad-float-list",
            "set-without-equals", "no-inequality", "sweep-without-eps-list"])
    def test_config_errors(self, planar_cfg, tmp_path, capsys, argv, message):
        """Each bad input exits 2 with one error line naming what is wrong."""
        out = tmp_path / "o"
        rc = run_cli([*argv(tmp_path, planar_cfg), "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and message in err[0]
        assert not (out / "manifest.json").exists()

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

    def test_blowup_exit_code_and_dump(self, tmp_path, capsys):
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
        # a run that blew up is not input to verify-inequalities
        capsys.readouterr()
        rc = run_cli(["verify-inequalities", "--out", str(tmp_path / "v"), "--set", f"in={out}"])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "error: input run blew up; nothing to verify\n"

    def test_sinusoidal_forcing(self, planar_cfg, tmp_path):
        """forcing.kind=sin: F = amplitude ||profile||, and the F column samples
        F |sin(omega t + phase)|."""
        out = tmp_path / "sin"
        rc = run_cli([
            "simulate", "-c", planar_cfg, "--out", str(out),
            "--set", "forcing.kind=sin", "--set", "forcing.profile=taylor-green-like",
            "--set", "forcing.omega=5.0", "--set", "forcing.phase=0.3",
        ])
        assert rc == cli.EXIT_OK
        d = cli._domain_from(cli.parse_config_file(planar_cfg))
        # the Taylor-Green profile draws nothing from the seed
        profile = sp.leray(sv.make_initial(d, "taylor-green-like", u_target=1.0))
        F = json.loads((out / "run_meta.json").read_text())["F"]
        assert F == pytest.approx(0.02 * sp.norm_l2(profile), rel=1e-14)
        series = DiagnosticSeries.from_csv(out / "diagnostics.csv")
        np.testing.assert_allclose(
            series.forcing, F * np.abs(np.sin(5.0 * series.times + 0.3)), rtol=1e-13, atol=0.0
        )

    def test_enforce_cfl_true_rejects_a_step_above_the_bound(self, planar_cfg, tmp_path, capsys):
        rc = run_cli([
            "simulate", "-c", planar_cfg, "--out", str(tmp_path / "o"),
            "--set", "initial.u=50", "--set", "enforce_cfl=true",
        ])
        assert rc == cli.EXIT_CONFIG
        assert "exceeds the advective bound" in capsys.readouterr().err

    def test_readme_minimal_config_runs(self, tmp_path):
        """The README's minimal simulate config, shortened to t_end=0.01, exits 0."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"A minimal simulate config:\n\n```ini\n(.*?)```", readme, re.S)
        cfg = write_file(tmp_path / "minimal.cfg", block.group(1))
        rc = run_cli(["simulate", "-c", cfg, "--out", str(tmp_path / "o"), "--set", "t_end=0.01"])
        assert rc == cli.EXIT_OK

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
                "--set", "regime=planar",
            ])
            assert rc == cli.EXIT_OK
        reports = (tmp_path / "abs" / "inequality_reports.json").read_bytes()
        assert reports == (tmp_path / "rel" / "inequality_reports.json").read_bytes()
        assert {r["trajectory_id"] for r in json.loads(reports)} == {"run"}

    def test_failing_verdict_exits_1(self, rising_planar_series, small_domain, tmp_path):
        series, U = rising_planar_series
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        series.to_csv(run_dir / "diagnostics.csv")
        meta = {"U": U, "F": 0.0, "domain": record(small_domain), "blowup": None}
        (run_dir / "run_meta.json").write_text(json.dumps(meta))
        out = tmp_path / "verify"
        rc = run_cli([
            "verify-inequalities", "--out", str(out),
            "--set", f"in={run_dir}", "--set", "regime=planar",
        ])
        assert rc == 1
        reports = json.loads((out / "inequality_reports.json").read_text())
        phi = {r["name"]: r for r in reports}["planar-phi"]
        assert phi["verdict"] == "fail"
        assert phi["residual_max"] > phi["slack"]
        assert (out / "manifest.json").exists()

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

    def test_thresholds_default_eps_list(self, tmp_path):
        out = tmp_path / "th"
        assert run_cli(["thresholds", "--out", str(out)]) == cli.EXIT_OK
        table = json.loads((out / "thresholds.json").read_text())
        assert [r["eps"] for r in table["rows"]] == [0.1, 0.01, 0.001]
        assert len((out / "thresholds.csv").read_text().splitlines()) == 4

    def test_eps_validation_surfaces(self, tmp_path, capsys):
        for eps_list in ("1.5", ""):
            out = tmp_path / f"x{eps_list}"
            rc = run_cli(["thresholds", "--out", str(out), "--set", f"eps_list={eps_list}"])
            assert rc == cli.EXIT_CONFIG, eps_list
            assert not (out / "manifest.json").exists()


def _default(fn, name):
    return inspect.signature(fn).parameters[name].default


_SIM_ARGS = [
    "--set", "l1=1", "--set", "l2=1", "--set", "eps=0.2", "--set", "nu=1",
    "--set", "n1=4", "--set", "n2=4", "--set", "n3=1",
    "--set", "dt=0.002", "--set", "t_end=0.01",
    "--set", "initial.kind=q-perturbed", "--set", "forcing.kind=sin",
    "--set", "forcing.profile=random-divfree",
]
_BOX_ARGS = [
    "--set", "l1=1", "--set", "l2=1", "--set", "eps=0.2", "--set", "nu=1",
    "--set", "n1=2", "--set", "n2=2", "--set", "n3=1",
]

#: command, its arguments, and each key the CLI forwards with the default of the
#: library parameter it is passed to
_FORWARDED = [
    ("simulate", _SIM_ARGS, {
        "initial.slope": _default(sv.make_initial, "slope"),
        "initial.q_fraction": _default(sv.make_initial, "q_fraction"),
        "forcing.slope": _default(sv.make_initial, "slope"),
        "forcing.phase": _default(sv.ForcingSpec.sinusoidal, "phase"),
        "scheme": _default(sv.SolverConfig, "scheme"),
        "diag_stride": _default(sv.SolverConfig, "diag_stride"),
        "checkpoint_stride": _default(sv.SolverConfig, "checkpoint_stride"),
        "enforce_cfl": _default(sv.SolverConfig, "enforce_cfl"),
    }),
    ("verify-inequalities", ["--set", "regime=planar"], {
        "slack_rel": _default(dg.check_diff_inequalities, "slack_rel"),
    }),
    ("estimate-constants", _BOX_ARGS + ["--set", "inequality=hausdorff-young"], {
        key: _default(iq.estimate_constant, key)
        for key in ("budget", "seed", "oversample", "alpha", "p")
    }),
    ("sweep", ["--set", "eps_list=0.25,0.125,0.0625", "--set", "budget=4"], {
        "n3": _default(iq.thin_sweep_resolution, "n3"),
        "cap": _default(iq.thin_sweep_resolution, "cap"),
    }),
    ("thresholds", [], {
        "delta": _default(gw.literature_thresholds, "delta"),
        "c": _default(gw.literature_thresholds, "c"),
    }),
]


def _artifact_bytes(out: Path) -> dict:
    return {
        str(p.relative_to(out)): p.read_bytes()
        for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"
    }


class TestLibraryDefaults:
    @pytest.mark.parametrize("command, args, defaults", _FORWARDED,
                             ids=[c for c, _, _ in _FORWARDED])
    def test_unset_key_takes_the_library_default(self, tmp_path, command, args, defaults):
        """Setting a forwarded key to its library default writes the bytes of leaving it unset."""
        if command == "verify-inequalities":
            run_dir = tmp_path / "run"
            assert run_cli(["simulate", "--out", str(run_dir), *_SIM_ARGS]) == cli.EXIT_OK
            args = [*args, "--set", f"in={run_dir}"]
        assert run_cli([command, "--out", str(tmp_path / "unset"), *args]) in (cli.EXIT_OK, 1)
        unset = _artifact_bytes(tmp_path / "unset")
        assert unset
        for key, value in defaults.items():
            out = tmp_path / key
            rc = run_cli([command, "--out", str(out), *args, "--set", f"{key}={value}"])
            assert rc in (cli.EXIT_OK, 1)
            assert _artifact_bytes(out) == unset, key


#: command and arguments of a run it accepts, small enough to run in a test
_MINIMAL = [
    ("simulate", _SIM_ARGS),
    ("sweep", ["--set", "eps_list=0.25,0.125,0.0625", "--set", "budget=4", "--set", "cap=16"]),
    ("estimate-constants", _BOX_ARGS + ["--set", "inequality=hausdorff-young", "--set", "budget=4"]),
    ("verify-inequalities", ["--set", "in=RUN"]),
    ("rescale-check", _BOX_ARGS),
    ("thresholds", []),
]


class _ReadSpy(dict):
    """A config dict that records each key a command looks up."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


class TestUnreadKeys:
    @pytest.fixture
    def run_dir(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(["simulate", "--out", str(out), *_SIM_ARGS]) == cli.EXIT_OK
        return out

    @staticmethod
    def _args(args, run_dir):
        return [a.replace("RUN", str(run_dir)) for a in args]

    @pytest.mark.parametrize("command, args", _MINIMAL, ids=[c for c, _ in _MINIMAL])
    def test_stray_key_exits_2_before_any_write(self, tmp_path, capsys, command, args):
        """A key the command does not read exits 2 with one error line naming it and
        the command, and the output directory stays empty."""
        out = tmp_path / "o"
        argv = [command, "--out", str(out), *self._args(args, tmp_path / "none"),
                "--set", "bogus=1"]
        assert run_cli(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {command} does not read config key(s) 'bogus'"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("argv, keys", [
        (["thresholds", "--set", "eps_list=0.1", "--set", "deltaa=5", "--set", "envelope=false"],
         "'deltaa', 'envelope'"),
        (["verify-inequalities", "--set", "in=RUN", "--set", "regime=planar",
          "--set", "envelope=false"], "'envelope'"),
        (["sweep", "--set", "eps_list=0.25,0.125,0.0625", "--set", "budget=4",
          "--set", "refine=true"], "'refine'"),
    ], ids=["misspelt-delta", "removed-envelope", "removed-refine"])
    def test_misspelt_and_removed_keys(self, run_dir, tmp_path, capsys, argv, keys):
        out = tmp_path / "o"
        assert run_cli([*self._args(argv, run_dir), "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: {argv[0]} does not read config key(s) {keys}\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command, args", _MINIMAL, ids=[c for c, _ in _MINIMAL])
    def test_each_command_reads_exactly_its_keys(self, run_dir, tmp_path, command, args):
        """The table names every key the command looks up (dealias only to reject it),
        and the command looks up every key the table names."""
        extra = ["--set", "forcing.omega=2.0"] if command == "simulate" else []
        parsed = cli.build_parser().parse_args([command, *self._args(args, run_dir), *extra])
        spy = _ReadSpy(cli.resolve_config(parsed))
        (tmp_path / "o").mkdir()
        code, _ = cli._COMMANDS[command](spy, str(tmp_path / "o"))
        assert code in (cli.EXIT_OK, 1)
        assert spy.read - {"dealias"} <= {"out", "seed", *cli._KEYS[command]}
        assert set(cli._KEYS[command]) <= spy.read


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

    def test_package_import_loads_no_submodule(self):
        """import thinflow alone loads neither scipy nor any thinflow submodule."""
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, thinflow; loaded = [m for m in sys.modules "
             "if m.split('.')[0] == 'scipy' or m.startswith('thinflow.')]; "
             "assert not loaded, loaded"],
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
