"""Smoke tests of the benchmark itself: every workload at a tiny size.

Run with ``python -m pytest perfbench``.  No timing is gated; each run must
pass every output check and print exactly the metrics BENCHMARK.json names.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def _run(run_py: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, run_py, *args], capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_passes_every_check(workload, trace):
    proc = _run(os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "5",
                "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_refuses_to_run_without_the_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path / "perfbench" / "run.py"), "--workload", "closure",
                "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    assert not (tmp_path / ".perfbench_out").exists()
