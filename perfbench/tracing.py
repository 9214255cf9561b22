"""Layer spans from wrappers installed on the program's module namespaces.

The wrappers replace public names (and the imported fft / linprog / leray
names each module calls through) for the duration of one timed body, so the
program's source is not touched.  Spans are kept in memory as
``[name, start, end, parent, extra]`` and written once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time

# (module, attribute or Class.method, span name, what ``extra`` records)
TARGETS = (
    ("thinflow.cli", "main", "cli.main", None),
    ("thinflow.spectral", "fftn", "spectral.fft", "points"),
    ("thinflow.spectral", "ifftn", "spectral.fft", "points"),
    ("thinflow.spectral", "save_checkpoint", "spectral.save_checkpoint", "bytes"),
    ("thinflow.solver", "save_checkpoint", "spectral.save_checkpoint", "bytes"),
    ("thinflow.solver", "run", "solver.run", None),
    ("thinflow.solver", "step", "solver.step", None),
    ("thinflow.solver", "leray", "solver.leray", None),
    ("thinflow.diagnostics", "sample_functionals", "diagnostics.sample_functionals", None),
    ("thinflow.diagnostics", "check_diff_inequalities", "diagnostics.check_diff_inequalities", None),
    ("thinflow.diagnostics", "linprog", "diagnostics.linprog", None),
    ("thinflow.diagnostics", "DiagnosticSeries.to_csv", "diagnostics.to_csv", None),
    ("thinflow.diagnostics", "DiagnosticSeries.from_csv", "diagnostics.from_csv", None),
    ("thinflow.gronwall", "solve_envelope", "gronwall.solve_envelope", None),
    ("thinflow.gronwall", "check_trajectory", "gronwall.check_trajectory", None),
    ("thinflow.inequalities", "estimate_constant", "inequalities.estimate_constant", None),
    ("thinflow.inequalities", "sup_norm", "inequalities.sup_norm", None),
    ("thinflow.inequalities", "ifft2", "inequalities.ifft2", "points"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, fn, name: str, extra: str | None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            if extra == "points":
                span[4] = int(args[0].size)
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if extra == "bytes":
                    path = args[1] if len(args) > 1 else kwargs["path"]
                    span[4] = os.path.getsize(path)

        return traced

    def install(self) -> None:
        for module, attr, name, extra in TARGETS:
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, extra))
            else:
                new = self._wrap(raw, name, extra)
            setattr(owner, attr, new)
            self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def write(self, path: str) -> None:
        base = self.spans[0][1] if self.spans else 0.0
        rows = [[n, t0 - base, t1 - base, parent, extra] for n, t0, t1, parent, extra in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals of one traced round.

    Self time is a span's duration minus the durations of its direct
    children.  The per-step ratios count only spans under a solver.step.
    """
    child_s = [0.0] * len(spans)
    in_step = [False] * len(spans)
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        if parent >= 0:
            child_s[parent] += t1 - t0
            in_step[i] = in_step[parent] or spans[parent][0] == "solver.step"

    def durations(name):
        return [t1 - t0 for n, t0, t1, _, _ in spans if n == name]

    def total(name):
        return sum(durations(name))

    def self_s(name):
        return sum(s[2] - s[1] - child_s[i] for i, s in enumerate(spans) if s[0] == name)

    def p50_ms(name):
        d = durations(name)
        return 1000.0 * statistics.median(d) if d else 0.0

    def count(name, parent=None):
        return sum(1 for s in spans if s[0] == name and (parent is None or
                   (s[3] >= 0 and spans[s[3]][0] == parent)))

    steps = count("solver.step")
    per_step = 1.0 / steps if steps else 0.0
    fft_in_step = [s for i, s in enumerate(spans) if s[0] == "spectral.fft" and in_step[i]]
    return {
        "spectral.fft.calls_per_step": len(fft_in_step) * per_step,
        "spectral.fft.points_per_step": sum(s[4] for s in fft_in_step) * per_step,
        "spectral.fft.total_s": total("spectral.fft"),
        "spectral.save_checkpoint.total_s": total("spectral.save_checkpoint"),
        "spectral.save_checkpoint.bytes": sum(s[4] for s in spans if s[0] == "spectral.save_checkpoint"),
        "solver.step.calls": steps,
        "solver.step.p50_ms": p50_ms("solver.step"),
        "solver.step.self_s": self_s("solver.step"),
        "solver.run.self_s": self_s("solver.run"),
        "solver.leray.calls_per_step": count("solver.leray", parent="solver.step") * per_step,
        "diagnostics.sample_functionals.calls": count("diagnostics.sample_functionals"),
        "diagnostics.sample_functionals.p50_ms": p50_ms("diagnostics.sample_functionals"),
        "diagnostics.check_diff_inequalities.total_s": total("diagnostics.check_diff_inequalities"),
        "diagnostics.linprog.calls": count("diagnostics.linprog"),
        "diagnostics.to_csv.total_s": total("diagnostics.to_csv"),
        "diagnostics.from_csv.total_s": total("diagnostics.from_csv"),
        "gronwall.solve_envelope.total_s": total("gronwall.solve_envelope"),
        "gronwall.check_trajectory.total_s": total("gronwall.check_trajectory"),
        "inequalities.estimate_constant.total_s": total("inequalities.estimate_constant"),
        "inequalities.sup_norm.calls": count("inequalities.sup_norm"),
        "inequalities.sup_norm.p50_ms": p50_ms("inequalities.sup_norm"),
        "inequalities.ifft2.points": sum(s[4] for s in spans if s[0] == "inequalities.ifft2"),
        "cli.self_s": self_s("cli.main"),
    }


def _p50_ms(fn, min_reps: int = 3, min_s: float = 0.5, max_reps: int = 200) -> float:
    fn()  # warm-up: builds cached steppers and wave-vector grids
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or (time.perf_counter() - start < min_s and len(times) < max_reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1000.0 * statistics.median(times)


def probes(spec: dict, seed: int) -> dict[str, float]:
    """Layer probes at the workload's own mode box, median of repeated calls."""
    import numpy as np
    from thinflow import inequalities as iq
    from thinflow import solver as sv
    from thinflow import spectral as sp

    l1, l2, eps, nu, n1, n2, n3 = spec["box"]
    domain = sp.DomainSpec(l1=l1, l2=l2, eps=eps, nu=nu, n1=n1, n2=n2, n3=n3)
    kind, size = spec["initial"]
    u = sv.make_initial(domain, kind, u_target=size, seed=seed)
    state = sv.RunState(u=u, t=0.0, step=0)
    slab = np.array(u.coeffs[0, :, :, n3])
    planar = iq.Field2D(l1, l2, n1, n2, slab)

    def step_with(scheme):
        cfg = sv.SolverConfig(dt=spec["dt"], t_end=1.0, scheme=scheme, enforce_cfl=False)
        return lambda: sv.step(state, None, cfg)

    return {
        "spectral.transform_pair.p50_ms": _p50_ms(lambda: sp.to_spectral(sp.to_physical(u), domain)),
        "solver.nonlinear_term.p50_ms": _p50_ms(lambda: sv.nonlinear_term(u)),
        "solver.step_etd-rk4.p50_ms": _p50_ms(step_with("etd-rk4")),
        "solver.step_imex-cn.p50_ms": _p50_ms(step_with("imex-cn")),
        "inequalities.lp_norm4.p50_ms": _p50_ms(lambda: iq.lp_norm(u, 4.0)),
        "inequalities.planar_l4.p50_ms": _p50_ms(lambda: planar.norm_l4() / planar.norm_ds(0.5)),
    }
