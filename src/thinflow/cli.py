"""Experiment orchestration: configured runs, sweeps, and artifact output.

Subcommands: simulate | sweep | estimate-constants | verify-inequalities |
rescale-check | thresholds.  Configuration is a plain-text key=value file
(``#`` comments allowed); any value can be overridden on the command line
with repeated ``--set key=value`` flags, which is what scripted sweeps use.
A key the command does not read exits 2 before anything is computed or
written, so a misspelt or removed key cannot pass silently; every command
takes out and seed, which --out and --seed set.  A key left unset takes the
default of the library function it is passed to; the CLI sets its own only
where that function has none (initial.u, the seed) or where it deliberately
differs: forcing.amplitude=0.01, the sweep's budget=20 and rescale-check's
slope=-1.0.
Every scenario writes its artifacts (CSV/JSON in the formats of
thinflow.artifacts) plus a manifest.json carrying the resolved config, its
hash, package versions and wall time.  Each command takes the config and the
output directory and returns its exit code and artifact names; main writes
the manifest, which lists every file the command wrote.  All randomness flows
from the single ``seed`` key, so identical config and seed reproduce identical
CSV/JSON artifact bytes on one BLAS kernel and numpy SIMD level (manifests
carry wall time and are exempt).  Across kernels and levels values agree to
the reference pins' rtol, except roundoff-level residuals, and bytes can
differ in the last bit.  The default output root is the
THINFLOW_OUT_ROOT environment variable, falling back to ./thinflow-out.

Exit codes: 0 success, 1 verification found failing inequalities, 2 invalid
configuration or input (line-anchored message) or an output path that cannot
be written, 3 simulation blow-up
(forensic dump written to blowup.json), 4 numerical failure (a constant-fit
LP failed, or the psi^2 envelope is not finite), 5 a simulate checkpoint
could not be written (the run's other artifacts are kept).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from typing import get_type_hints

import numpy as np
import scipy

from . import __version__
from . import diagnostics as dg
from . import gronwall as gw
from . import inequalities as iq
from . import solver as sv
from . import spectral as sp
from .artifacts import record, write_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_NUMERICAL = 4
EXIT_IO = 5


class ConfigError(Exception):
    pass


def parse_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        out[key] = value.strip()
    return out


def _coerce(cfg: dict, key: str, cast, default=None, required: bool = False):
    if key not in cfg:
        if required:
            raise ConfigError(f"missing required config key {key!r}")
        return default
    raw = cfg[key]
    try:
        if cast is bool:
            if raw.lower() in ("1", "true", "yes", "on"):
                return True
            if raw.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as {cast.__name__}") from exc


def _given(cfg: dict, prefix: str = "", **casts) -> dict:
    """The keyword arguments cfg sets: name -> key prefix + name, cast by _coerce."""
    return {k: _coerce(cfg, prefix + k, cast) for k, cast in casts.items() if prefix + k in cfg}


def _float_list(cfg: dict, key: str, required: bool = False, default=None):
    raw = cfg.get(key)
    if raw is None:
        if required:
            raise ConfigError(f"missing required config key {key!r}")
        return default
    try:
        values = [float(v) for v in raw.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: expected comma-separated floats") from exc
    if not values:
        raise ConfigError(f"config key {key!r}: expected at least one value")
    return values


def _domain_from(cfg: dict) -> sp.DomainSpec:
    """The DomainSpec fields, in declaration order, each cast to its annotated type."""
    hints = get_type_hints(sp.DomainSpec)
    return sp.DomainSpec(**{k: _coerce(cfg, k, cast, required=True) for k, cast in hints.items()})


_DOMAIN_KEYS = tuple(get_type_hints(sp.DomainSpec))
#: the config keys each command reads, besides out and seed
_KEYS = {
    "simulate": (
        *_DOMAIN_KEYS, "dt", "t_end", "scheme", "diag_stride", "checkpoint_stride",
        "enforce_cfl", "initial.kind", "initial.u", "initial.slope", "initial.q_fraction",
        "forcing.kind", "forcing.profile", "forcing.slope", "forcing.amplitude",
        "forcing.omega", "forcing.phase",
    ),
    "sweep": ("inequality", "eps_list", "l1", "l2", "n3", "cap", "budget"),
    "estimate-constants": (*_DOMAIN_KEYS, "inequality", "budget", "oversample", "alpha", "p"),
    "verify-inequalities": ("in", "regime", "slack_rel"),
    "rescale-check": (*_DOMAIN_KEYS, "slope"),
    "thresholds": ("eps_list", "delta", "c"),
}


def _check_keys(cfg: dict, scenario: str) -> None:
    """A ConfigError naming the keys of cfg that the scenario does not read."""
    stray = sorted(set(cfg) - {"out", "seed", *_KEYS[scenario]})
    if stray:
        raise ConfigError(f"{scenario} does not read config key(s) {', '.join(map(repr, stray))}")


def _out_dir(cfg: dict, scenario: str) -> str:
    root = cfg.get("out")
    if root is None:
        root = os.path.join(os.environ.get("THINFLOW_OUT_ROOT", "thinflow-out"), scenario)
    try:
        os.makedirs(root, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from exc
    return root


def _config_hash(cfg: dict) -> str:
    blob = "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg))
    return hashlib.sha256(blob.encode()).hexdigest()


def _write_manifest(out: str, scenario: str, cfg: dict, artifacts: list[str], t0: float) -> None:
    write_json(os.path.join(out, "manifest.json"), {
        "scenario": scenario,
        "config": dict(sorted(cfg.items())),
        "config_hash": _config_hash(cfg),
        "thinflow_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "wall_time_s": time.time() - t0,
        "artifacts": sorted(artifacts),
    })


def _build_forcing(cfg: dict, domain: sp.DomainSpec, rng: np.random.Generator) -> sv.ForcingSpec | None:
    kind = cfg.get("forcing.kind", "off")
    if kind == "off":
        return None
    profile_kind = cfg.get("forcing.profile", "z-independent")
    profile = sv.make_initial(
        domain,
        profile_kind,
        u_target=1.0,
        seed=int(rng.integers(0, 2**31)),
        **_given(cfg, "forcing.", slope=float),
    )
    amplitude = _coerce(cfg, "forcing.amplitude", float, default=0.01)
    if kind == "steady":
        return sv.ForcingSpec.steady(profile, amplitude)
    if kind == "sin":
        return sv.ForcingSpec.sinusoidal(
            profile,
            omega=_coerce(cfg, "forcing.omega", float, default=1.0),
            amplitude=amplitude,
            **_given(cfg, "forcing.", phase=float),
        )
    raise ConfigError(f"config key 'forcing.kind': unknown kind {kind!r}")


def cmd_simulate(cfg: dict, out: str) -> tuple[int, list[str]]:
    if "dealias" in cfg:
        raise ConfigError(
            "config key 'dealias' was removed: products are always formed on the "
            "padded grid; delete the key"
        )
    domain = _domain_from(cfg)
    run_cfg = sv.SolverConfig(
        dt=_coerce(cfg, "dt", float, required=True),
        t_end=_coerce(cfg, "t_end", float, required=True),
        **_given(cfg, scheme=str, diag_stride=int, checkpoint_stride=int, enforce_cfl=bool),
    )
    _check_keys(cfg, "simulate")
    seed = _coerce(cfg, "seed", int, default=0)
    rng = np.random.default_rng(seed)
    u0 = sv.make_initial(
        domain,
        cfg.get("initial.kind", "random-divfree"),
        u_target=_coerce(cfg, "initial.u", float, default=0.1),
        seed=int(rng.integers(0, 2**31)),
        **_given(cfg, "initial.", slope=float, q_fraction=float),
    )
    forcing = _build_forcing(cfg, domain, rng)
    F = forcing.f_bound if forcing is not None else 0.0
    result = sv.run(u0, forcing, run_cfg, out_dir=out, run_id="run")
    U = sp.h1_norm(u0)
    result.series.to_csv(os.path.join(out, "diagnostics.csv"))
    write_json(os.path.join(out, "run_meta.json"), {
        "U": U,
        "F": F,
        "M": max(U, (domain.l1 / domain.nu) * F),
        "domain": record(domain),
        "scheme": run_cfg.scheme,
        "dt": run_cfg.dt,
        "t_end": run_cfg.t_end,
        "seed": seed,
        "blowup": result.blowup,
    })
    artifacts = ["diagnostics.csv", "run_meta.json"]
    artifacts += [os.path.basename(p) for p in result.checkpoints]
    if result.io_error is not None:
        print(f"error: {result.io_error}", file=sys.stderr)
    if result.blew_up:
        write_json(os.path.join(out, "blowup.json"), result.blowup)
        print(f"blow-up at t={result.blowup['time']:.6g}; forensic dump in {out}/blowup.json")
        return EXIT_BLOWUP, artifacts + ["blowup.json"]
    if result.io_error is not None:
        return EXIT_IO, artifacts
    print(f"simulate: {len(result.series)} samples -> {out}")
    return EXIT_OK, artifacts


def cmd_verify_inequalities(cfg: dict, out: str) -> tuple[int, list[str]]:
    in_dir = cfg.get("in")
    if in_dir is None:
        raise ConfigError("missing required config key 'in' (a simulate output directory)")
    _check_keys(cfg, "verify-inequalities")
    series = dg.DiagnosticSeries.from_csv(os.path.join(in_dir, "diagnostics.csv"))
    with open(os.path.join(in_dir, "run_meta.json")) as fh:
        meta = json.load(fh)
    if meta.get("blowup"):
        raise ConfigError("input run blew up; nothing to verify")
    try:
        domain = sp.DomainSpec(**meta["domain"])
        U, F = meta["U"], meta["F"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"{in_dir}/run_meta.json: missing or bad entry: {exc}") from None
    regime = cfg.get("regime", "planar")
    regimes = list(dg.REGIMES) if regime == "all" else [regime]
    slack = _given(cfg, slack_rel=float)
    artifacts = []
    all_reports = []
    # the input directory's own name: the reports do not depend on how its path was written
    trajectory_id = os.path.basename(os.path.abspath(in_dir))
    for reg in regimes:
        reports = dg.check_diff_inequalities(
            series, eps=domain.eps, regime=reg, trajectory_id=trajectory_id, **slack
        )
        all_reports.extend(reports)
        trace_name = f"residual_traces_{reg}.csv"
        dg.write_residual_traces(reports, os.path.join(out, trace_name))
        artifacts.append(trace_name)
    write_json(
        os.path.join(out, "inequality_reports.json"), [r.to_dict() for r in all_reports]
    )
    bounds = dg.evaluate_regularity_bounds(
        series, U=U, F=F, l1=domain.l1, l2=domain.l2,
        nu=domain.nu, eps=domain.eps,
    )
    write_json(os.path.join(out, "regularity_bounds.json"), bounds.to_dict())
    artifacts += ["inequality_reports.json", "regularity_bounds.json"]

    # the envelope needs one of the two system regimes (the split per-quantity
    # inequalities alone do not assemble into a comparison system)
    env_regime = "planar" if "planar" in regimes else ("full" if "full" in regimes else None)
    if env_regime is not None:
        system = gw.InequalitySystem.from_fits(domain, all_reports, U=U, F=F, regime=env_regime)
        env = gw.solve_envelope(system, series.times)
        containment = gw.check_trajectory(series, env)
        env.to_csv(os.path.join(out, "envelope.csv"))
        write_json(os.path.join(out, "containment.json"), {
            "containment": containment.to_dict(),
            "psi_peak_bound": env.psi_peak_bound,
            "psi_tail_bound": env.psi_tail_bound,
            "dissipation_integral": env.dissipation_integral,
            "derived_constants": env.constants,
            "system": record(env.system),
        })
        artifacts += ["envelope.csv", "containment.json"]

    n_pass = sum(r.passed for r in all_reports)
    print(f"verify-inequalities: {n_pass}/{len(all_reports)} pass -> {out}")
    return (EXIT_OK if n_pass == len(all_reports) else 1), artifacts


def _write_estimate(
    est: iq.ConstantEstimate, domain: sp.DomainSpec, out: str, extra: dict | None = None
) -> None:
    """maximizer.ckpt (a planar maximizer embedded in 3D) and estimate.json in out."""
    maximizer = est.maximizer
    if isinstance(maximizer, iq.Field2D):
        maximizer = maximizer.embed(eps=domain.eps, nu=domain.nu)
    sp.save_checkpoint(maximizer, os.path.join(out, "maximizer.ckpt"), extra=extra)
    write_json(
        os.path.join(out, "estimate.json"),
        est.to_dict() | {"maximizer_checkpoint": "maximizer.ckpt"},
    )


def cmd_estimate_constants(cfg: dict, out: str) -> tuple[int, list[str]]:
    domain = _domain_from(cfg)
    inequality = _coerce(cfg, "inequality", str, required=True)
    _check_keys(cfg, "estimate-constants")
    est = iq.estimate_constant(
        inequality, domain,
        **_given(cfg, budget=int, seed=int, oversample=int, alpha=float, p=float),
    )
    _write_estimate(est, domain, out, extra={"inequality": inequality})
    iq.write_sweep_csv(os.path.join(out, "ratios.csv"), [domain.eps], [est])
    print(f"estimate-constants[{inequality}]: max ratio {est.max_ratio:.6g} -> {out}")
    return EXIT_OK, ["estimate.json", "maximizer.ckpt", "ratios.csv"]


def cmd_sweep(cfg: dict, out: str) -> tuple[int, list[str]]:
    inequality = cfg.get("inequality", "thin-sup")
    eps_values = _float_list(cfg, "eps_list", required=True)
    _check_keys(cfg, "sweep")
    subdirs = [f"eps_{eps:g}" for eps in eps_values]
    shared = sorted({name for name in subdirs if subdirs.count(name) > 1})
    if shared:
        raise ConfigError(
            f"config key 'eps_list': several eps values would write to {', '.join(shared)}"
        )
    if len(eps_values) < 3:
        raise ConfigError("config key 'eps_list': a sweep needs at least 3 eps values")
    l1 = _coerce(cfg, "l1", float, default=4.0)
    l2 = _coerce(cfg, "l2", float, default=l1)
    resolution = _given(cfg, n3=int, cap=int)
    budget = _coerce(cfg, "budget", int, default=20)
    seed = _coerce(cfg, "seed", int, default=0)
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(len(eps_values))]

    estimates = []
    for eps, subdir, point_seed in zip(eps_values, subdirs, seeds):
        res = iq.thin_sweep_resolution(eps, l1=l1, **resolution)
        domain = sp.DomainSpec(l1=l1, l2=l2, eps=eps, nu=1.0, n1=res[0], n2=res[1], n3=res[2])
        est = iq.estimate_constant(inequality, domain, budget=budget, seed=point_seed, refine=False)
        sub = os.path.join(out, subdir)
        os.makedirs(sub, exist_ok=True)
        _write_estimate(est, domain, sub)
        estimates.append(est)

    iq.write_sweep_csv(os.path.join(out, "sweep.csv"), eps_values, estimates)
    fit = iq.fit_eps_scaling(inequality, eps_values, estimates)
    write_json(os.path.join(out, "scaling_fit.json"), fit.to_dict())
    print(
        f"sweep[{inequality}]: slope {fit.slope:.4f}"
        + (f" (expected {fit.expected_slope})" if fit.expected_slope else "")
        + f" -> {out}"
    )
    artifacts = ["sweep.csv", "scaling_fit.json"]
    artifacts += [f"{sub}/{name}" for sub in subdirs for name in ("estimate.json", "maximizer.ckpt")]
    return EXIT_OK, artifacts


def cmd_rescale_check(cfg: dict, out: str) -> tuple[int, list[str]]:
    domain = _domain_from(cfg)
    _check_keys(cfg, "rescale-check")
    seed = _coerce(cfg, "seed", int, default=0)
    rng = np.random.default_rng(seed)
    slope = _coerce(cfg, "slope", float, default=-1.0)
    u = sp.leray(sp.random_field(domain, rng, slope=slope)) * 0.1
    f = sp.leray(sp.random_field(domain, rng, slope=slope)) * 0.1
    res = gw.rescale(u, f)
    back = gw.inverse_rescale(res.u_tilde, domain)
    roundtrip = sp.norm_l2(back - u) / max(sp.norm_l2(u), 1e-300)
    write_json(os.path.join(out, "rescale_report.json"), {
        "n": res.n,
        "normalized_domain": {
            "l1": res.domain.l1, "l2": res.domain.l2, "eps": res.domain.eps,
        },
        "time_factor": res.time_factor,
        "residual_f_identity": res.residual_f_identity,
        "residual_u_identity": res.residual_u_identity,
        "roundtrip_residual": roundtrip,
        "rhs_residual": gw.rescale_rhs_residual(u, f),
    })
    print(
        f"rescale-check: n={res.n} identities "
        f"(f: {res.residual_f_identity:.2e}, u: {res.residual_u_identity:.2e}) -> {out}"
    )
    return EXIT_OK, ["rescale_report.json"]


def cmd_thresholds(cfg: dict, out: str) -> tuple[int, list[str]]:
    eps_values = _float_list(cfg, "eps_list", default=[0.1, 0.01, 0.001])
    _check_keys(cfg, "thresholds")
    table = gw.literature_thresholds(eps_values, **_given(cfg, delta=float, c=float))
    gw.write_thresholds_csv(table, os.path.join(out, "thresholds.csv"))
    write_json(os.path.join(out, "thresholds.json"), table)
    print(f"thresholds: {len(eps_values)} eps values -> {out}")
    return EXIT_OK, ["thresholds.csv", "thresholds.json"]


_COMMANDS = {
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "estimate-constants": cmd_estimate_constants,
    "verify-inequalities": cmd_verify_inequalities,
    "rescale-check": cmd_rescale_check,
    "thresholds": cmd_thresholds,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thinflow",
        description="Pseudo-spectral thin-box Navier-Stokes experiments",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} scenario")
        p.add_argument("-c", "--config", help="key=value config file")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config value (repeatable)",
        )
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="seed (overrides config)")
    return parser


def resolve_config(args) -> dict[str, str]:
    cfg: dict[str, str] = {}
    if args.config:
        cfg.update(parse_config_file(args.config))
    if "scenario" in cfg and cfg["scenario"] != args.scenario:
        raise ConfigError(
            f"config declares scenario={cfg['scenario']!r} but the "
            f"{args.scenario!r} subcommand was invoked"
        )
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected KEY=VALUE")
        key, value = item.split("=", 1)
        cfg[key.strip()] = value.strip()
    if args.out:
        cfg["out"] = args.out
    if args.seed is not None:
        cfg["seed"] = str(args.seed)
    cfg.pop("scenario", None)
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        t0 = time.time()
        out = _out_dir(cfg, args.scenario)
        code, artifacts = _COMMANDS[args.scenario](cfg, out)
        _write_manifest(out, args.scenario, cfg, artifacts, t0)
        return code
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except dg.NumericalError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
