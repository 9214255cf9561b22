"""Every CLI scenario writes the same JSON and CSV artifacts as the stored references.

tests/data/cli/ holds the JSON and CSV files that the seven scenarios below
wrote on small configs, one subdirectory per scenario (checkpoints and
manifest.json, which carries wall time, are left out).  No artifact depends
on the paths a scenario is given: verify-inequalities writes only its input
directory's own name (trajectory_id), whether the path is absolute or
relative.  The comparison pins the schemas: the set of files, every CSV
header and row length, every JSON key, and every string, int, bool and null
exactly; numbers match to rtol 1e-10, atol 0, the rule of
``conftest.assert_matches_reference``.  Each scenario's manifest must list
every other file it wrote, checkpoints included.  To write the files from
the current code (only when an artifact is meant to change):

    PYTHONPATH=src python tests/test_cli_artifacts.py
"""

import csv
import json
import math
import os
import shutil
import tempfile
from pathlib import Path

import pytest

from thinflow import cli

REFERENCE_DIR = Path(__file__).parent / "data" / "cli"
RTOL = 1e-10

_DOMAIN = ["--set", "l1=1.0", "--set", "l2=1.0", "--set", "nu=1.0"]

# (output directory, argv without --out, exit code)
SCENARIOS = [
    ("simulate", [
        "simulate", *_DOMAIN, "--set", "eps=0.125",
        "--set", "n1=6", "--set", "n2=6", "--set", "n3=2",
        "--set", "dt=0.002", "--set", "t_end=0.04", "--set", "scheme=etd-rk2",
        "--set", "initial.kind=z-independent", "--set", "initial.u=0.08",
        "--set", "forcing.kind=steady", "--set", "forcing.profile=z-independent",
        "--set", "forcing.amplitude=0.02", "--seed", "42",
    ], cli.EXIT_OK),
    ("verify", [
        "verify-inequalities", "--set", "in=simulate", "--set", "regime=all",
    ], cli.EXIT_OK),
    ("estimate-planar-l4", [
        "estimate-constants", *_DOMAIN, "--set", "eps=0.2", "--set", "inequality=planar-l4",
        "--set", "n1=8", "--set", "n2=8", "--set", "n3=1", "--set", "budget=24", "--seed", "3",
    ], cli.EXIT_OK),
    ("estimate-thin-l4", [
        "estimate-constants", *_DOMAIN, "--set", "eps=0.125", "--set", "inequality=thin-l4",
        "--set", "n1=5", "--set", "n2=5", "--set", "n3=2", "--set", "budget=16", "--seed", "5",
    ], cli.EXIT_OK),
    ("sweep", [
        "sweep", "--set", "inequality=thin-sup", "--set", "eps_list=0.25,0.125,0.0625",
        "--set", "budget=6", "--set", "cap=16", "--seed", "11",
    ], cli.EXIT_OK),
    ("rescale-check", [
        "rescale-check", "--set", "l1=2", "--set", "l2=1", "--set", "eps=0.125",
        "--set", "nu=0.5", "--set", "n1=5", "--set", "n2=5", "--set", "n3=2", "--seed", "2",
    ], cli.EXIT_OK),
    ("thresholds", [
        "thresholds", "--set", "eps_list=0.1,0.01,0.001", "--set", "delta=0.01",
    ], cli.EXIT_OK),
]


def _run_all(workdir: Path) -> Path:
    """Run every scenario with relative paths from workdir; return workdir."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for out, argv, code in SCENARIOS:
            rc = cli.main(argv + ["--out", out])
            assert rc == code, f"{out}: exit {rc}, expected {code}"
    finally:
        os.chdir(cwd)
    return workdir


def _prune(root: Path) -> Path:
    """Drop the checkpoints and manifests from an output root; return it."""
    for path in list(root.rglob("*")):
        if path.is_file() and (path.suffix not in (".json", ".csv") or path.name == "manifest.json"):
            path.unlink()
    return root


def _artifact_files(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


def _cell(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _compare(got, ref, where: str) -> None:
    """Exact for keys, strings, ints, bools and nulls; rtol for floats."""
    assert type(got) is type(ref), f"{where}: {type(got).__name__} != {type(ref).__name__}"
    if isinstance(ref, dict):
        assert sorted(got) == sorted(ref), f"{where}: keys {sorted(got)} != {sorted(ref)}"
        for key in ref:
            _compare(got[key], ref[key], f"{where}.{key}")
    elif isinstance(ref, list):
        assert len(got) == len(ref), f"{where}: length {len(got)} != {len(ref)}"
        for i, (g, r) in enumerate(zip(got, ref)):
            _compare(g, r, f"{where}[{i}]")
    elif isinstance(ref, float):
        if math.isnan(ref):
            assert math.isnan(got), f"{where}: {got!r} != nan"
        else:
            assert abs(got - ref) <= RTOL * abs(ref), f"{where}: {got!r} != {ref!r}"
    else:
        assert got == ref, f"{where}: {got!r} != {ref!r}"


def _load(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [rows[0]] + [[_cell(v) for v in row] for row in rows[1:]]


@pytest.fixture(scope="module")
def written(tmp_path_factory) -> Path:
    """The output root as the scenarios left it, manifests and checkpoints included."""
    return _run_all(tmp_path_factory.mktemp("cli-written"))


@pytest.fixture(scope="module")
def produced(written, tmp_path_factory) -> Path:
    return _prune(shutil.copytree(written, tmp_path_factory.mktemp("cli-artifacts") / "out"))


def test_same_artifact_files(produced):
    assert _artifact_files(produced) == _artifact_files(REFERENCE_DIR)


@pytest.mark.parametrize("name", _artifact_files(REFERENCE_DIR))
def test_artifact_matches_reference(produced, name):
    _compare(_load(produced / name), _load(REFERENCE_DIR / name), name)


@pytest.mark.parametrize("out", [scenario[0] for scenario in SCENARIOS])
def test_manifest_lists_every_artifact(written, out):
    """A manifest names every file its scenario wrote, checkpoints included."""
    root = written / out
    listed = json.loads((root / "manifest.json").read_text())["artifacts"]
    assert listed == [name for name in _artifact_files(root) if name != "manifest.json"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        root = _prune(_run_all(Path(tmp)))
        shutil.rmtree(REFERENCE_DIR, ignore_errors=True)
        shutil.copytree(root, REFERENCE_DIR)
