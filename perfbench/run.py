"""Benchmark of thinflow's CLI scenarios, confined to one CPU.

    python3 perfbench/run.py --workload closure|box32|thin-sweep \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from a source checkout; thinflow is imported from its ``src``.  The
benchmark pins itself to one CPU, then repeats whole rounds of the workload,
each in a fresh worker process, until S seconds have passed.  A round times
set-up (import plus inputs) and the chain of CLI invocations, and checks
every output against computations made apart from the program.  With
``--trace 1`` rounds alternate untraced and traced, and a probe process
times single layer calls at the workload's mode box.  ``--smoke`` runs one
round (one pair when traced) at a tiny size, with every check.

The last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics BENCHMARK.json names when
untraced, its per-layer ones when traced.  A record with the environment, /proc steal and load figures and
every round's numbers is written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import workloads  # noqa: E402  (sibling module; the script's directory is on sys.path)

ROUND_TIMEOUT_S = 170


def _proc_counters(cpu: int) -> dict:
    """Steal ticks (all CPUs and the pinned one) and load average, read-only."""
    out = {}
    with open("/proc/stat") as fh:
        for line in fh:
            f = line.split()
            if f[0] in ("cpu", f"cpu{cpu}"):
                out["steal_ticks" if f[0] == "cpu" else "steal_ticks_pinned"] = int(f[8])
    with open("/proc/loadavg") as fh:
        out["loadavg"] = [float(v) for v in fh.read().split()[:3]]
    return out


def _round(args, out: str, traced: bool, probe: bool = False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, args.workload,
           str(args.seed), out]
    cmd += ["--smoke"] * args.smoke + ["--trace"] * traced + ["--probe"] * probe
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "thinflow", "__init__.py")):
        print(f"no thinflow source under {ROOT}/src; run from a source checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    allowed = sorted(os.sched_getaffinity(0))
    cpu = allowed[-1]
    os.sched_setaffinity(0, {cpu})  # the workers inherit the one-CPU mask
    run_dir = os.path.join(ROOT, ".perfbench_out", f"{args.workload}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    round_dir = os.path.join(run_dir, "round")

    counters0 = _proc_counters(cpu)
    start = time.perf_counter()
    rounds, problems = [], []
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        shutil.rmtree(round_dir, ignore_errors=True)
        rounds.append(_round(args, round_dir, traced))
        rounds[-1]["traced"] = traced
        pair_done = not args.trace or len(rounds) % 2 == 0
        if pair_done and (args.smoke or time.perf_counter() - start >= args.seconds):
            break
    shutil.rmtree(round_dir, ignore_errors=True)
    probes = _round(args, round_dir, False, probe=True)["probes"] if args.trace else {}
    counters1 = _proc_counters(cpu)

    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(1 for r in rounds for op in r["ops"] if op["failures"])
    for i, r in enumerate(rounds):
        for op in r["ops"]:
            problems += [f"round {i} {op['name']}: {msg}" for msg in op["failures"]]
    if len({r["digest"] for r in rounds}) != 1:
        problems.append("artifacts differ between rounds with the same config and seed")
    if any(len(r["env"]["affinity"]) != 1 for r in rounds):
        problems.append("a round ran on more than one CPU")

    med = lambda key, rs=rounds: statistics.median(r[key] for r in rs)  # noqa: E731
    plain = [r for r in rounds if not r["traced"]]
    if args.trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        values = {k: statistics.median(r["layers"][k] for r in traced_rounds)
                  for k in traced_rounds[0]["layers"]}
        values.update(probes)
        values["setup.import_s"] = med("import_s")
        values["trace.overhead_s"] = med("wall_s", traced_rounds) - med("wall_s", plain)
    else:
        values = {
            "wall_s": med("wall_s"),
            "cpu_s": med("cpu_s"),
            "work_per_s": statistics.median(r["units"] / r["wall_s"] for r in rounds),
            "setup_s": med("setup_s"),
            "peak_rss_mb": med("peak_rss_mb"),
            "artifact_mb": med("artifact_bytes") / 1e6,
        }
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "env": dict(rounds[0]["env"], allowed_cpus=allowed, pinned_cpu=cpu),
        "steal_ticks_delta": counters1["steal_ticks"] - counters0["steal_ticks"],
        "steal_ticks_pinned_delta": counters1["steal_ticks_pinned"] - counters0["steal_ticks_pinned"],
        "loadavg_start": counters0["loadavg"], "loadavg_end": counters1["loadavg"],
        "elapsed_s": time.perf_counter() - start,
        "attempted": attempted, "failed": failed, "problems": problems,
        "rounds": [{k: v for k, v in r.items() if k != "env"} for r in rounds],
        "metrics": metrics,
    }
    with open(os.path.join(run_dir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=2)
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    print(f"rounds {len(rounds)}, ops attempted {attempted}, failed {failed}, "
          f"steal ticks {record['steal_ticks_delta']}, record {run_dir}/record.json")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
