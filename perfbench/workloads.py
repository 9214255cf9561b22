"""Workload definitions: the CLI configs, the invocation chains, the work units.

Every workload is built from the run's seed alone, so the same seed gives
the same inputs.  The seed goes to the program as its ``seed`` config key;
nothing else in a config depends on it.  ``smoke`` shrinks each workload to
a size that runs in a second or two while keeping every check.
"""

from __future__ import annotations

import os

WORKLOADS = ("closure", "box32", "thin-sweep")

# thin-sup sweep: eps = 2^-2 .. 2^-6 on the default l1 = l2 = 4 box
_SWEEP_EPS = (0.25, 0.125, 0.0625, 0.03125, 0.015625)
_SWEEP_EPS_SMOKE = (0.25, 0.125, 0.0625)


def spec(name: str, seed: int, smoke: bool) -> dict:
    """Config, chain and probe box of one workload.

    Keys: ``config`` (key -> value for the ``-c`` file), ``units`` (solver
    steps, or eps points for the sweep), ``box`` (l1, l2, eps, nu, n1, n2,
    n3) and ``initial`` (kind, H1 size) for the layer probes, ``dt`` for the
    step probes.
    """
    if name == "closure":
        n, steps, stride = ((4, 4, 2), 20, 5) if smoke else ((8, 8, 2), 300, 50)
        dt = 0.002
        config = {
            "l1": "1.0", "l2": "1.0", "eps": "0.125", "nu": "1.0",
            "n1": n[0], "n2": n[1], "n3": n[2],
            "dt": dt, "t_end": repr(steps * dt), "scheme": "etd-rk2",
            "initial.kind": "z-independent", "initial.u": "0.08",
            "forcing.kind": "steady", "forcing.profile": "z-independent",
            "forcing.amplitude": "0.02",
            "diag_stride": 1, "checkpoint_stride": stride, "seed": seed,
        }
        return {
            "config": config, "units": steps, "dt": dt,
            "box": (1.0, 1.0, 0.125, 1.0) + n, "initial": ("z-independent", 0.08),
        }
    if name == "box32":
        n, steps, stride = ((6, 6, 2), 4, 2) if smoke else ((32, 32, 8), 24, 12)
        dt = 0.0005
        config = {
            "l1": "1.0", "l2": "1.0", "eps": "0.125", "nu": "1.0",
            "n1": n[0], "n2": n[1], "n3": n[2],
            "dt": dt, "t_end": repr(steps * dt), "scheme": "etd-rk2",
            "initial.kind": "q-perturbed", "initial.u": "1.0",
            "forcing.kind": "off",
            "diag_stride": 1, "checkpoint_stride": stride, "seed": seed,
        }
        return {
            "config": config, "units": steps, "dt": dt,
            "box": (1.0, 1.0, 0.125, 1.0) + n, "initial": ("q-perturbed", 1.0),
        }
    if name == "thin-sweep":
        eps_list = _SWEEP_EPS_SMOKE if smoke else _SWEEP_EPS
        cap, budget = (16, 4) if smoke else (64, 20)
        config = {
            "inequality": "thin-sup", "eps_list": ",".join(map(repr, eps_list)),
            "l1": "4.0", "n3": 2, "cap": cap, "budget": budget, "seed": seed,
        }
        finest = min(cap, max(4, round(1.0 / eps_list[-1])))
        return {
            "config": config, "units": len(eps_list), "dt": 1e-4,
            "box": (4.0, 4.0, eps_list[-1], 1.0, finest, finest, 2),
            "initial": ("random-divfree", 1.0), "eps_list": eps_list, "cap": cap,
        }
    raise ValueError(f"unknown workload {name!r}; pick one of {WORKLOADS}")


def chain(name: str, cfg_path: str, out: str) -> list[tuple[str, list[str], str]]:
    """The CLI invocations of one round: (op name, argv, output directory)."""
    sim = os.path.join(out, "sim")
    if name == "closure":
        ver = os.path.join(out, "verify")
        return [
            ("simulate", ["simulate", "-c", cfg_path, "--out", sim], sim),
            ("verify", ["verify-inequalities", "--set", f"in={sim}",
                        "--set", "regime=all", "--out", ver], ver),
        ]
    if name == "box32":
        return [("simulate", ["simulate", "-c", cfg_path, "--out", sim], sim)]
    sweep = os.path.join(out, "sweep")
    return [("sweep", ["sweep", "-c", cfg_path, "--out", sweep], sweep)]


def write_config(config: dict, path: str) -> None:
    with open(path, "w") as fh:
        for key, value in config.items():
            fh.write(f"{key}={value}\n")
