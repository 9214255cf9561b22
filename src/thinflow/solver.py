"""Time integration of the Galerkin-truncated system on the thin box.

The evolution is d/dt u = nu lap(u) - PL(u . grad u) + PL f restricted to the
domain's mode box, with PL the combination of the mode cutoff and the
divergence-free projection.  Diffusion is diagonal in modes and extremely
stiff in the thin direction (multiplier ~ p^2/eps^2), so the default schemes
treat it exactly through exponential integrators; the nonlinear and forcing
terms are explicit.

Advection is computed in divergence form, div(u u), which equals u . grad u
pointwise for divergence-free band-limited fields.  The six distinct
products u_i u_j are formed on a padded grid, so the convolution is exact on
the retained band and advection stays energy-neutral to roundoff.  One
nonlinear evaluation costs one synthesis of the three velocity components
and one analysis of the six products, each a c2c transform over (x, y) of
the n3 + 1 planes p >= 0 plus a real transform along z.

A step works on the p >= 0 half box throughout: the linear factors are
built there, and advection, the Leray projection and the stage updates run
there.  The transforms keep the half exactly Hermitian on its p = 0 plane
and every linear factor is even in k, so steps need no re-symmetrization:
the full box of the new field is the half's conjugate mirror, formed once.

When every p != 0 coefficient of u is exactly zero (no tolerance), u is
z-independent, so are its products, and the d/dz term vanishes: both
transforms then run on the (x, y) part of the padded grid over the p = 0
slab, which is alias-free for the same reason, and only that plane is
projected.  The result has exactly zero p != 0 modes, and the linear factors
are diagonal, so planar data with planar forcing stays planar and every
later evaluation takes the slab path too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .diagnostics import DiagnosticSeries, SeriesBuilder
from .spectral import (
    DomainSpec,
    SpectralField,
    default_grid,
    divergence_defect,
    grid_coords,
    h1_norm,
    kvec_grids,
    ksq_grid,
    leray,
    norm_l2,
    proj_p,
    proj_q,
    random_field,
    save_checkpoint,
    to_spectral,
    _analyze,
    _analyze_half,
    _divergence_defect,
    _leray_raw,
    _mirror,
    _synth,
    _synth_half,
)

__all__ = [
    "Modulation",
    "ForcingSpec",
    "SolverConfig",
    "RunState",
    "RunResult",
    "BlowUpError",
    "SCHEMES",
    "nonlinear_term",
    "step",
    "run",
    "cfl_estimate",
    "make_initial",
    "mean_drift_reduce",
    "MeanDriftReduction",
    "translate",
    "reconstruct_unreduced",
]

SCHEMES = ("etd-rk2", "etd-rk4", "imex-cn")

_DIV_CONTRACT_TOL = 1e-8
_CFL_SAFETY = 0.5
_BLOWUP_THRESHOLD = 1e12
_REPROJECT_TOL = 1e-12


@dataclass(frozen=True)
class Modulation:
    """Scalar time modulation of a forcing profile: off, constant or sin."""

    kind: str = "constant"
    amplitude: float = 1.0
    omega: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if self.kind not in ("off", "constant", "sin"):
            raise ValueError(f"unknown modulation kind {self.kind!r}")
        if self.kind == "sin" and self.omega <= 0.0:
            raise ValueError("sin modulation needs omega > 0")

    def value(self, t: float) -> float:
        if self.kind == "off":
            return 0.0
        if self.kind == "constant":
            return self.amplitude
        return self.amplitude * math.sin(self.omega * t + self.phase)

    def sup_abs(self) -> float:
        return 0.0 if self.kind == "off" else abs(self.amplitude)

    def integral(self, t: float) -> float:
        """Integral of the modulation from 0 to t."""
        if self.kind == "off":
            return 0.0
        if self.kind == "constant":
            return self.amplitude * t
        return self.amplitude * (math.cos(self.phase) - math.cos(self.omega * t + self.phase)) / self.omega

    def double_integral(self, t: float) -> float:
        """Iterated integral from 0 to t of integral(s) ds."""
        if self.kind == "off":
            return 0.0
        if self.kind == "constant":
            return 0.5 * self.amplitude * t * t
        w, ph = self.omega, self.phase
        return self.amplitude * (t * math.cos(ph) / w - (math.sin(w * t + ph) - math.sin(ph)) / w**2)


@dataclass(frozen=True)
class ForcingSpec:
    """Divergence-free forcing: a projected profile times a time modulation.

    The profile must already be Leray-projected (and mean-free); the
    constructors below project it once.  A scalar modulation keeps it
    divergence-free, so evaluations do not project again.  f_bound is
    sup_t ||f(t)||_2.
    """

    profile: SpectralField
    modulation: Modulation
    f_bound: float

    @classmethod
    def off(cls, domain: DomainSpec) -> "ForcingSpec":
        return cls(SpectralField.zeros(domain), Modulation(kind="off"), 0.0)

    @classmethod
    def steady(cls, profile: SpectralField, amplitude: float = 1.0) -> "ForcingSpec":
        proj = leray(profile)
        mod = Modulation(kind="constant", amplitude=amplitude)
        return cls(proj, mod, norm_l2(proj) * mod.sup_abs())

    @classmethod
    def sinusoidal(
        cls, profile: SpectralField, omega: float, amplitude: float = 1.0, phase: float = 0.0
    ) -> "ForcingSpec":
        proj = leray(profile)
        mod = Modulation(kind="sin", amplitude=amplitude, omega=omega, phase=phase)
        return cls(proj, mod, norm_l2(proj) * mod.sup_abs())

    def value(self, t: float) -> SpectralField:
        return self.profile * self.modulation.value(t)

    def l2_at(self, t: float) -> float:
        return norm_l2(self.profile) * abs(self.modulation.value(t))

    def _raw(self, t: float) -> np.ndarray | None:
        """The p >= 0 half box of value(t), or None when it is zero."""
        a = self.modulation.value(t)
        if a == 0.0:
            return None
        return self.profile.coeffs[..., self.profile.domain.n3 :] * a


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping parameters.

    dt must respect the advective bound reported by cfl_estimate unless
    enforce_cfl is switched off (the diffusion is handled exactly or
    implicitly, so only advection constrains the step).
    """

    dt: float
    t_end: float
    scheme: str = "etd-rk2"
    diag_stride: int = 1
    checkpoint_stride: int = 0
    enforce_cfl: bool = True

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; pick one of {SCHEMES}")
        if self.diag_stride < 1:
            raise ValueError("diag_stride must be >= 1")


@dataclass(frozen=True)
class RunState:
    u: SpectralField
    t: float
    step: int


@dataclass
class RunResult:
    series: DiagnosticSeries
    final_state: RunState | None
    checkpoints: list[str]
    blowup: dict | None = None
    io_error: str | None = None

    @property
    def blew_up(self) -> bool:
        return self.blowup is not None


class BlowUpError(RuntimeError):
    """Raised when coefficients overflow or go NaN; carries a forensic dump."""

    def __init__(self, report: dict):
        super().__init__(
            f"blow-up at t={report['time']:.6g} (step {report['step']}): "
            f"max|coeff|={report['max_coeff']:.3e}"
        )
        self.report = report


# the six distinct products u_i u_j, and for each i the product index of (i, j), j = 0..2
_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
_ROWS = ([0, 3, 4], [3, 1, 5], [4, 5, 2])


def _products(u: np.ndarray) -> np.ndarray:
    """The six products u_i u_j of velocity samples, in _PAIRS order."""
    prods = np.empty((len(_PAIRS),) + u.shape[1:])
    for q, (i, j) in enumerate(_PAIRS):
        np.multiply(u[i], u[j], out=prods[q])
    return prods


def _nonlinear_raw(
    coeffs: np.ndarray,
    spec: DomainSpec,
    grid: tuple[int, int, int],
    f_raw: np.ndarray | None,
) -> np.ndarray:
    """-L div(u u) + f on the p >= 0 half box, from u's half box coeffs.

    div(u u) equals (u . grad u) for divergence-free u.  One synthesis of
    the 3 velocity components, one analysis of the 6 products.  When every
    p > 0 coefficient is exactly zero, u is z-independent: both then run on
    the p = 0 slab, and only that plane of the result is nonzero and
    projected.
    """
    n1, n2, n3 = spec.n1, spec.n2, spec.n3
    k1, k2, k3 = kvec_grids(spec)
    if not coeffs[..., 1:].any():
        # the p = 0 plane, shaped as a half box of one plane
        uu = _analyze(_products(_synth(coeffs[..., 0], grid[:2])), (n1, n2))[..., None]
        adv = k1 * uu[_ROWS[0]] + k2 * uu[_ROWS[1]]
    else:
        uu = _analyze_half(_products(_synth_half(coeffs, grid)), (n1, n2, n3))
        adv = k1 * uu[_ROWS[0]] + k2 * uu[_ROWS[1]] + k3[..., n3:] * uu[_ROWS[2]]
    adv *= 2j * np.pi
    out = np.zeros(coeffs.shape, dtype=np.complex128)
    np.negative(_leray_raw(adv, spec), out=out[..., : adv.shape[-1]])
    if f_raw is not None:
        out += f_raw
    out[:, n1, n2, 0] = 0.0
    return out


def nonlinear_term(u: SpectralField) -> SpectralField:
    """-L(u . grad u) for a divergence-free field.

    Rejects inputs whose per-mode relative divergence exceeds the contract
    tolerance; the result is mean-zero and divergence-free by construction.
    """
    defect = divergence_defect(u)
    if defect > _DIV_CONTRACT_TOL:
        raise ValueError(
            f"nonlinear_term requires a divergence-free field (defect {defect:.3e})"
        )
    spec = u.domain
    half = _nonlinear_raw(u.coeffs[..., spec.n3 :], spec, default_grid(spec), None)
    return SpectralField._wrap(spec, _mirror(half))


class _Stepper:
    """Exponential/implicit factors for one (domain, dt, scheme), on the p >= 0 half box."""

    def __init__(self, spec: DomainSpec, dt: float, scheme: str):
        self.spec = spec
        self.dt = dt
        self.scheme = scheme
        self.grid = default_grid(spec)
        lam = -spec.nu * (2.0 * np.pi) ** 2 * ksq_grid(spec)[..., spec.n3 :]
        z = lam * dt
        if scheme == "etd-rk2":
            # phi_1(z) = (e^z - 1)/z and phi_2(z) = (e^z - 1 - z)/z^2
            self.E = np.exp(z)
            self.p1 = dt * _contour_mean(lambda w: (np.exp(w) - 1.0) / w, z)
            self.p2 = dt * _contour_mean(lambda w: (np.exp(w) - 1.0 - w) / w**2, z)
        elif scheme == "etd-rk4":
            # half-step stage weight and the three Cox-Matthews update weights
            self.E = np.exp(z)
            self.E2 = np.exp(z / 2.0)
            self.Q = dt * _contour_mean(lambda w: (np.exp(w / 2.0) - 1.0) / w, z)
            self.f1 = dt * _contour_mean(
                lambda w: (-4.0 - w + (4.0 - 3.0 * w + w**2) * np.exp(w)) / w**3, z
            )
            self.f2 = dt * _contour_mean(lambda w: (2.0 + w + (w - 2.0) * np.exp(w)) / w**3, z)
            self.f3 = dt * _contour_mean(
                lambda w: (-4.0 - 3.0 * w - w**2 + (4.0 - w) * np.exp(w)) / w**3, z
            )
        elif scheme == "imex-cn":
            self.cn_num = 1.0 + 0.5 * z
            self.cn_den = 1.0 / (1.0 - 0.5 * z)
        else:  # pragma: no cover - guarded by SolverConfig
            raise ValueError(scheme)

    def nonlinear(self, coeffs: np.ndarray, t: float, forcing: ForcingSpec | None) -> np.ndarray:
        f_raw = forcing._raw(t) if forcing is not None else None
        return _nonlinear_raw(coeffs, self.spec, self.grid, f_raw)

    def advance(self, coeffs: np.ndarray, t: float, forcing: ForcingSpec | None) -> np.ndarray:
        dt = self.dt
        if self.scheme == "etd-rk2":
            n0 = self.nonlinear(coeffs, t, forcing)
            mid = self.E * coeffs + self.p1 * n0
            n1 = self.nonlinear(mid, t + dt, forcing)
            out = mid + self.p2 * (n1 - n0)
        elif self.scheme == "etd-rk4":
            n0 = self.nonlinear(coeffs, t, forcing)
            a = self.E2 * coeffs + self.Q * n0
            na = self.nonlinear(a, t + dt / 2, forcing)
            b = self.E2 * coeffs + self.Q * na
            nb = self.nonlinear(b, t + dt / 2, forcing)
            c = self.E2 * a + self.Q * (2.0 * nb - n0)
            nc = self.nonlinear(c, t + dt, forcing)
            out = self.E * coeffs + self.f1 * n0 + 2.0 * self.f2 * (na + nb) + self.f3 * nc
        else:  # imex-cn with explicit trapezoid for the nonlinearity
            n0 = self.nonlinear(coeffs, t, forcing)
            pred = self.cn_den * (self.cn_num * coeffs + dt * n0)
            n1 = self.nonlinear(pred, t + dt, forcing)
            out = self.cn_den * (self.cn_num * coeffs + 0.5 * dt * (n0 + n1))
        return out


def _contour_mean(integrand, z: np.ndarray) -> np.ndarray:
    """Value at each real z of an entire function, as its mean over a unit circle.

    integrand is evaluated on the whole array of contour points at once.  The
    mean is uniformly accurate including near z = 0, where the closed forms
    of the exponential-integrator weights cancel (Kassam & Trefethen 2005).
    For real z the circle's lower half mirrors the upper half, so 32 points
    on the upper half are sampled and the real part kept.
    """
    theta = np.pi * (np.arange(32) + 0.5) / 32
    zz = z[..., None] + np.exp(1j * theta)
    return integrand(zz).mean(axis=-1).real


_get_stepper = lru_cache(maxsize=32)(_Stepper)


def _check_blowup(half: np.ndarray, t: float, step_no: int, threshold: float) -> None:
    """Raise BlowUpError, with a report on the full box, unless the half box is finite and bounded."""
    max_coeff = float(np.max(np.abs(half)))
    if np.isfinite(max_coeff) and max_coeff <= threshold:
        return
    coeffs = _mirror(half)
    finite = np.nan_to_num(coeffs, nan=0.0, posinf=0.0, neginf=0.0)
    raise BlowUpError(
        {
            "time": t,
            "step": step_no,
            "max_coeff": max_coeff,
            "l2_of_finite_part": float(np.sqrt(np.sum(np.abs(finite) ** 2))),
            "n_nonfinite": int(np.size(coeffs) - np.count_nonzero(np.isfinite(coeffs))),
        }
    )


def step(state: RunState, forcing: ForcingSpec | None, cfg: SolverConfig) -> RunState:
    """Advance one step of cfg.dt, preserving mean-zero and divergence-free."""
    spec = state.u.domain
    stepper = _get_stepper(spec, cfg.dt, cfg.scheme)
    # contiguous, because numpy's elementwise loops over the strided view are slow on small boxes
    half = np.ascontiguousarray(state.u.coeffs[..., spec.n3 :])
    half = stepper.advance(half, state.t, forcing)
    _check_blowup(half, state.t + cfg.dt, state.step + 1, _BLOWUP_THRESHOLD)
    reproject = _divergence_defect(half, spec) > _REPROJECT_TOL
    u = SpectralField._wrap(spec, _mirror(half))
    if reproject:
        u = leray(u)
    return RunState(u=u, t=state.t + cfg.dt, step=state.step + 1)


def cfl_estimate(u: SpectralField) -> float:
    """Advective step bound 0.5 * min(grid spacing) / max |u| on the product grid."""
    d = u.domain
    grid = default_grid(d)
    phys = _synth(u.coeffs, grid)
    vmax = float(np.sqrt(np.max(np.sum(phys**2, axis=0))))
    h = min(d.l1 / grid[0], d.l2 / grid[1], d.eps / grid[2])
    if vmax == 0.0:
        return float("inf")
    return _CFL_SAFETY * h / vmax


def run(
    u0: SpectralField,
    forcing: ForcingSpec | None,
    cfg: SolverConfig,
    out_dir=None,
    run_id: str = "run",
) -> RunResult:
    """Integrate to t_end, sampling diagnostics every diag_stride steps.

    Returns partial diagnostics plus a forensic report if the run blows up.
    Checkpoints are written under out_dir when checkpoint_stride > 0.
    """
    defect = divergence_defect(u0)
    if defect > _DIV_CONTRACT_TOL:
        raise ValueError(f"initial data is not divergence-free (defect {defect:.3e})")
    if cfg.enforce_cfl:
        bound = cfl_estimate(u0)
        if cfg.dt > bound:
            raise ValueError(
                f"dt={cfg.dt} exceeds the advective bound {bound:.3e}; "
                "lower dt or disable enforce_cfl"
            )
    n_steps = max(1, math.ceil(cfg.t_end / cfg.dt - 1e-9))
    last_dt = cfg.t_end - (n_steps - 1) * cfg.dt

    builder = SeriesBuilder()
    checkpoints: list[str] = []
    io_errors: list[str] = []

    def f_l2(t: float) -> float:
        return forcing.l2_at(t) if forcing is not None else 0.0

    def maybe_checkpoint(state: RunState, force: bool = False) -> None:
        # disk failures are surfaced in the result, never abort the run
        if out_dir is None or cfg.checkpoint_stride <= 0 or io_errors:
            return
        if force or state.step % cfg.checkpoint_stride == 0:
            import os

            path = os.path.join(out_dir, f"{run_id}_step{state.step:08d}.ckpt")
            try:
                save_checkpoint(state.u, path, time=state.t, step=state.step)
            except OSError as exc:
                io_errors.append(f"checkpoint write failed at step {state.step}: {exc}")
                return
            checkpoints.append(path)

    state = RunState(u=u0, t=0.0, step=0)
    builder.append(state.t, state.u, f_l2(state.t))
    maybe_checkpoint(state)
    blowup = None
    try:
        for i in range(n_steps):
            dt_i = cfg.dt if i < n_steps - 1 else last_dt
            if abs(dt_i - cfg.dt) < 1e-12 * cfg.dt:
                state = step(state, forcing, cfg)
            else:
                state = step(state, forcing, replace(cfg, dt=dt_i, enforce_cfl=False))
            if state.step % cfg.diag_stride == 0 or i == n_steps - 1:
                builder.append(state.t, state.u, f_l2(state.t))
                maybe_checkpoint(state, force=(i == n_steps - 1))
    except BlowUpError as exc:
        blowup = exc.report
        state = None
    return RunResult(
        series=builder.finish(),
        final_state=state,
        checkpoints=checkpoints,
        blowup=blowup,
        io_error=io_errors[0] if io_errors else None,
    )


# ---------------------------------------------------------------------------
# Initial data.
# ---------------------------------------------------------------------------

def make_initial(
    domain: DomainSpec,
    kind: str,
    u_target: float,
    seed: int = 0,
    slope: float = -2.0,
    q_fraction: float = 0.3,
) -> SpectralField:
    """Divergence-free, mean-zero initial data with ||u||_H1 = u_target.

    kinds: 'random-divfree' (3D power-law spectrum), 'z-independent'
    (vertical-average modes only), 'q-perturbed' (z-independent base plus a
    q_fraction-weighted oscillatory part), 'taylor-green-like' (the planar
    cellular vortex).
    """
    rng = np.random.default_rng(seed)
    if kind == "random-divfree":
        base = leray(random_field(domain, rng, slope=slope))
    elif kind == "z-independent":
        base = leray(proj_p(random_field(domain, rng, slope=slope)))
    elif kind == "q-perturbed":
        planar = leray(proj_p(random_field(domain, rng, slope=slope)))
        osc = leray(proj_q(random_field(domain, rng, slope=slope)))
        nr = h1_norm(planar)
        nq = h1_norm(osc)
        if nr == 0.0 or nq == 0.0:
            raise ValueError("empty spectrum: cannot build a q-perturbed field")
        base = planar * ((1.0 - q_fraction) / nr) + osc * (q_fraction / nq)
    elif kind == "taylor-green-like":
        grid = default_grid(domain)
        x, y, _ = grid_coords(domain, grid)
        X = x[:, None, None]
        Y = y[None, :, None]
        phys = np.zeros((3,) + grid)
        phys[0] = np.sin(2 * np.pi * X / domain.l1) * np.cos(2 * np.pi * Y / domain.l2)
        phys[1] = (
            -(domain.l2 / domain.l1)
            * np.cos(2 * np.pi * X / domain.l1)
            * np.sin(2 * np.pi * Y / domain.l2)
        )
        phys = np.broadcast_to(phys, (3,) + grid).copy()
        base = leray(to_spectral(phys, domain))
    else:
        raise ValueError(f"unknown initial-data kind {kind!r}")
    if u_target == 0.0:
        return SpectralField.zeros(domain)
    nb = h1_norm(base)
    if nb == 0.0:
        raise ValueError(f"empty spectrum: {kind!r} produced a zero field")
    return base * (u_target / nb)


# ---------------------------------------------------------------------------
# Mean-drift reduction.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeanDriftReduction:
    """Mean-free problem plus the translation path of the removed means.

    The original solution is recovered as u(x, t) = U(x - drift(t), t)
    + mean_velocity(t), where U solves the reduced problem.
    """

    u0: SpectralField
    forcing: ForcingSpec
    u_mean0: np.ndarray
    f_mean: np.ndarray
    modulation: Modulation

    def mean_velocity(self, t: float) -> np.ndarray:
        return self.u_mean0 + self.f_mean * self.modulation.integral(t)

    def drift(self, t) -> np.ndarray:
        """Accumulated translation (xi, eta, zeta) at time(s) t."""
        t_arr = np.asarray(t, dtype=float)
        single = t_arr.ndim == 0
        t_arr = np.atleast_1d(t_arr)
        out = np.empty((len(t_arr), 3))
        for i, ti in enumerate(t_arr):
            out[i] = self.u_mean0 * ti + self.f_mean * self.modulation.double_integral(float(ti))
        return out[0] if single else out


def mean_drift_reduce(
    domain: DomainSpec,
    u0_raw: np.ndarray,
    f_profile_raw: np.ndarray,
    modulation: Modulation = Modulation(kind="constant"),
) -> MeanDriftReduction:
    """Split off the spatial means of raw initial data and forcing.

    u0_raw and f_profile_raw are coefficient arrays on the mode box whose
    (0,0,0) mode may be nonzero (it must be real: the mean of a real field).
    Returns the mean-free problem together with the drift path; the mean of
    the velocity evolves as u_mean0 + f_mean * integral(modulation).
    """
    u0_raw = np.asarray(u0_raw, dtype=np.complex128)
    f_profile_raw = np.asarray(f_profile_raw, dtype=np.complex128)
    center = (domain.n1, domain.n2, domain.n3)
    u_mean = u0_raw[(slice(None),) + center]
    f_mean = f_profile_raw[(slice(None),) + center]
    for name, mean in (("u0", u_mean), ("forcing", f_mean)):
        if np.max(np.abs(mean.imag)) > 1e-12 * max(1.0, np.max(np.abs(mean))):
            raise ValueError(f"{name} mean must be real (field must be real-valued)")
    u0 = SpectralField(domain, u0_raw)          # construction pins the mean mode
    profile = SpectralField(domain, f_profile_raw)
    proj = leray(profile)
    forcing = ForcingSpec(proj, modulation, norm_l2(proj) * modulation.sup_abs())
    return MeanDriftReduction(
        u0=u0,
        forcing=forcing,
        u_mean0=u_mean.real.copy(),
        f_mean=f_mean.real.copy(),
        modulation=modulation,
    )


def translate(f: SpectralField, shift) -> SpectralField:
    """Evaluate the field at x + shift (spectral phase multiplication)."""
    d = f.domain
    s = np.asarray(shift, dtype=float)
    k1, k2, k3 = kvec_grids(d)
    phase = np.exp(2j * np.pi * (k1 * s[0] + k2 * s[1] + k3 * s[2]))
    return SpectralField._wrap(d, f.coeffs * phase)


def reconstruct_unreduced(
    u_reduced: SpectralField, reduction: MeanDriftReduction, t: float
) -> np.ndarray:
    """Raw coefficients of the original (nonzero-mean) solution at time t."""
    shifted = translate(u_reduced, -reduction.drift(t))
    raw = shifted.coeffs.copy()
    raw[(slice(None), u_reduced.domain.n1, u_reduced.domain.n2, u_reduced.domain.n3)] = (
        reduction.mean_velocity(t)
    )
    return raw
