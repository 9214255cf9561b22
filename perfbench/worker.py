"""One round of a workload, in a fresh process started by run.py.

Usage: worker.py ROOT WORKLOAD SEED OUT [--smoke] [--trace] [--probe]

Times set-up (importing thinflow from ROOT/src and writing the config), then
the timed body (the workload's chain of ``thinflow.cli.main`` calls), then
checks every output apart from the program.  ``--trace`` wraps the layers
during the body; ``--probe`` runs the layer probes instead of a round.  The
last line of stdout is one JSON object with the round's figures.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time


def _artifacts(out: str) -> tuple[int, str]:
    """Bytes of the CSV/JSON/checkpoint files, and a digest of all but manifests."""
    size, digest = 0, hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(out)):
        dirs.sort()
        for name in sorted(files):
            if not name.endswith((".csv", ".json", ".ckpt")):
                continue
            path = os.path.join(folder, name)
            size += os.path.getsize(path)
            if name != "manifest.json":  # manifests carry wall time
                digest.update(os.path.relpath(path, out).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return size, digest.hexdigest()


def main(argv: list[str]) -> int:
    t0 = time.perf_counter()
    root, workload, seed, out = argv[0], argv[1], int(argv[2]), argv[3]
    smoke, traced, probe = "--smoke" in argv, "--trace" in argv, "--probe" in argv
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import thinflow
    import thinflow.cli

    import_s = time.perf_counter() - t0
    if not os.path.abspath(thinflow.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"thinflow was imported from {thinflow.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    spec = workloads.spec(workload, seed, smoke)
    if probe:
        import tracing

        print(json.dumps({"probes": tracing.probes(spec, seed)}))
        return 0
    os.makedirs(out, exist_ok=True)
    cfg_path = os.path.join(out, "workload.cfg")
    workloads.write_config(spec["config"], cfg_path)
    ops = workloads.chain(workload, cfg_path, out)
    setup_s = time.perf_counter() - t0

    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    codes = []
    c0, w0 = time.process_time(), time.perf_counter()
    for _, argv_op, _ in ops:
        try:
            codes.append(thinflow.cli.main(argv_op))
        except Exception as exc:  # an op that raises is a failed op, not a crashed round
            codes.append(f"{type(exc).__name__}: {exc}")
    wall_s, cpu_s = time.perf_counter() - w0, time.process_time() - c0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy
    import scipy
    import verify

    result = {
        "setup_s": setup_s, "import_s": import_s, "wall_s": wall_s, "cpu_s": cpu_s,
        "units": spec["units"], "peak_rss_mb": rss_mb,
        "env": {
            "affinity": sorted(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write(os.path.join(out, "..", f"spans-{os.path.basename(out)}.json"))
        result["layers"] = tracing.layer_metrics(tracer.spans)
    result["ops"] = []
    for (name, _, op_out), code in zip(ops, codes):
        if code != 0:
            fails = [f"exit status {code}"]
        else:
            try:
                fails = verify.check(workload, name, op_out, spec)
            except Exception as exc:  # unreadable or missing output fails the op
                fails = [f"{type(exc).__name__}: {exc}"]
        result["ops"].append({"name": name, "failures": fails})
    result["artifact_bytes"], result["digest"] = _artifacts(out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
