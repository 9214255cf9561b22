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
nonlinear evaluation synthesizes the three velocity components one at a
time and analyses the six products one at a time, each a real transform
along z plus a c2c transform over (x, y) of the n3 + 1 planes p >= 0.  A
product is formed and transformed along z block by block of x rows, at
most spectral._BLOCK_BYTES of samples per block, the grid norms' budget too
(24 of 98 rows at (32,32,8); small grids take one block), into one plane
stack that a single c2c call then finishes.  Each product is added into the
advection rows as soon as it is ready, so neither a full-grid product nor a
stack of products is held.

A step works on the field's stored p >= 0 half box throughout: the linear
factors are built there, and advection, the Leray projection and the stage
updates run there.  The transforms keep the half exactly Hermitian on its
p = 0 plane and every linear factor is even in k, so steps need no
re-symmetrization: the new half box is the new field.

When every p != 0 coefficient of u is exactly zero (no tolerance), u is
z-independent, so are its products, and the d/dz term vanishes: both
transforms then run on the (x, y) part of the padded grid over the p = 0
slab, which is alias-free for the same reason, and only that plane is
projected.  The result has exactly zero p != 0 modes, and the linear factors
are diagonal, so planar data with planar forcing stays planar and every
later evaluation takes the slab path too.

Forcing (ForcingSpec) is a Leray-projected profile times a scalar
amplitude, constant or sinusoidal in time; its bound is derived, not passed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

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
    _block_rows,
    _box_sum,
    _c2c_half,
    _leray_raw,
    _mirror,
    _r2c_planes,
    _synth_half,
)

__all__ = [
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
]

SCHEMES = ("etd-rk2", "etd-rk4", "imex-cn")

_DIV_CONTRACT_TOL = 1e-8
_CFL_SAFETY = 0.5
_BLOWUP_THRESHOLD = 1e12
_REPROJECT_TOL = 1e-12


@dataclass(frozen=True)
class ForcingSpec:
    """Divergence-free forcing f(t) = amplitude_at(t) * profile.

    The profile must already be Leray-projected (and mean-free); the
    constructors below project it once.  A scalar factor keeps it
    divergence-free, so evaluations do not project again.  The factor is
    amplitude when omega == 0 (steady, or off at amplitude 0) and
    amplitude * sin(omega t + phase) otherwise.  f_bound = sup_t ||f(t)||_2
    is derived from the profile and the amplitude.
    """

    profile: SpectralField
    amplitude: float = 0.0
    omega: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if self.omega < 0.0:
            raise ValueError(f"forcing needs omega >= 0, got {self.omega}")

    @classmethod
    def off(cls, domain: DomainSpec) -> "ForcingSpec":
        return cls(SpectralField.zeros(domain))

    @classmethod
    def steady(cls, profile: SpectralField, amplitude: float = 1.0) -> "ForcingSpec":
        return cls(leray(profile), amplitude)

    @classmethod
    def sinusoidal(
        cls, profile: SpectralField, omega: float, amplitude: float = 1.0, phase: float = 0.0
    ) -> "ForcingSpec":
        if omega <= 0.0:
            raise ValueError("sinusoidal forcing needs omega > 0")
        return cls(leray(profile), amplitude, omega, phase)

    @cached_property
    def profile_l2(self) -> float:
        """||profile||_2, computed once."""
        return norm_l2(self.profile)

    @property
    def f_bound(self) -> float:
        return self.profile_l2 * abs(self.amplitude)

    def amplitude_at(self, t: float) -> float:
        if self.omega == 0.0:
            return self.amplitude
        return self.amplitude * math.sin(self.omega * t + self.phase)

    def value(self, t: float) -> SpectralField:
        return self.profile * self.amplitude_at(t)

    def l2_at(self, t: float) -> float:
        return self.profile_l2 * abs(self.amplitude_at(t))

    def _raw(self, t: float) -> np.ndarray | None:
        """The p >= 0 half box of value(t), or None when it is zero."""
        a = self.amplitude_at(t)
        if a == 0.0:
            return None
        return self.profile.half * a


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
        if self.checkpoint_stride < 0:
            raise ValueError("checkpoint_stride must be >= 0")


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


def _product_halves(
    u: list | np.ndarray, pairs: tuple[tuple[int, int], ...], modes: tuple[int, ...]
) -> np.ndarray:
    """Half boxes of the products u[i] u[j] of velocity samples for the given pairs.

    The products are formed block by block of x rows, as many rows as fit
    in spectral._BLOCK_BYTES for all pairs at once (_block_rows), into one
    reused buffer; each block's r2c pass writes its rows of one plane stack,
    which one c2c call then finishes.  Every transform line is independent
    of the others, so the result is the same bits as one _analyze_half call
    on the whole products.
    """
    grid = u[pairs[0][0]].shape
    rows = _block_rows(8 * len(pairs) * math.prod(grid[1:]))
    buf = np.empty((len(pairs), min(rows, grid[0])) + grid[1:])
    planes = np.empty((len(pairs),) + grid[:-1] + (modes[-1] + 1,), dtype=np.complex128)
    for a in range(0, grid[0], rows):
        block = buf[:, : min(rows, grid[0] - a)]
        for q, (i, j) in enumerate(pairs):
            np.multiply(u[i][a : a + rows], u[j][a : a + rows], out=block[q])
        _r2c_planes(block, planes[:, a : a + rows], math.prod(grid))
    return _c2c_half(planes, modes)


def _nonlinear_raw(
    coeffs: np.ndarray,
    spec: DomainSpec,
    grid: tuple[int, int, int],
    f_raw: np.ndarray | None,
) -> np.ndarray:
    """-L div(u u) + f on the p >= 0 half box, from u's half box coeffs.

    div(u u) equals (u . grad u) for divergence-free u.  The velocity
    components are synthesized one at a time, then the six products u_i u_j
    are analysed one by one in the order 00, 01, 11, 02, 12, 22 (each
    streamed by x rows, _product_halves) and added into the advection rows
    as soon as they are ready, through one scratch half box; u_0 and u_1 are
    dropped after their last product.  coeffs is dropped once synthesized,
    before the result is allocated, so a stage value passed straight in is
    freed then.  When every p > 0 coefficient is exactly zero, u is
    z-independent: both transforms then run on the p = 0 slab, the five
    products the x and y derivatives read in one call, and only that plane
    of the result is nonzero and projected.
    """
    n1, n2, n3 = spec.n1, spec.n2, spec.n3
    k1, k2, k3 = kvec_grids(spec)
    shape = coeffs.shape
    if not coeffs[..., 1:].any():
        # synthesize the n >= 0 half of the p = 0 plane; uu holds half boxes of one plane
        phys = _synth_half(coeffs[:, :, n2:, 0], grid[:2])
        del coeffs
        out = np.zeros(shape, dtype=np.complex128)
        pairs = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2))
        uu = _mirror(_product_halves(phys, pairs, (n1, n2)), 2)[..., None]
        adv = out[..., :1]
        adv[...] = k1 * uu[:3] + k2 * uu[[1, 3, 4]]
    else:
        u = [_synth_half(c, grid) for c in coeffs]
        del coeffs
        adv = out = np.zeros(shape, dtype=np.complex128)
        # row 2 is the scratch until u0 u2 writes it; the scratch half box that
        # replaces it is made after that product is gathered, off the gather's peak
        tmp = adv[2]
        k = (k1, k2, k3[..., n3:])
        for j in range(3):
            for i in range(j + 1):
                uij = _product_halves(u, ((i, j),), (n1, n2, n3))[0]
                if j == 2 and i == 0:
                    tmp = np.empty_like(uij)
                # row j sums k_i u_i u_j over i = 0, 1, 2 left to right, as one expression would
                if i == 0:
                    np.multiply(k[0], uij, out=adv[j])
                else:
                    adv[j] += np.multiply(k[i], uij, out=tmp)
                if i < j:
                    adv[i] += np.multiply(k[j], uij, out=tmp)
                # free the product, and u_i after its last one, before the next
                del uij
                if j == 2:
                    u[i] = None
    adv *= 2j * np.pi
    np.negative(_leray_raw(adv, spec, out=adv), out=adv)
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
    return SpectralField._wrap(spec, _nonlinear_raw(u.half, spec, default_grid(spec), None))


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

    def advance(self, coeffs: np.ndarray, t: float, forcing: ForcingSpec | None) -> np.ndarray:
        """coeffs advanced by dt.  Each stage value goes straight into _nonlinear_raw,
        which frees it once synthesized; an update that needs it again re-forms it
        with the same operations, so the bits are those of keeping it."""
        dt, spec, grid = self.dt, self.spec, self.grid

        def f(s: float) -> np.ndarray | None:
            return forcing._raw(s) if forcing is not None else None

        if self.scheme == "etd-rk2":
            n0 = _nonlinear_raw(coeffs, spec, grid, f(t))
            n1 = _nonlinear_raw(self.E * coeffs + self.p1 * n0, spec, grid, f(t + dt))
            out = (self.E * coeffs + self.p1 * n0) + self.p2 * (n1 - n0)
        elif self.scheme == "etd-rk4":
            n0 = _nonlinear_raw(coeffs, spec, grid, f(t))
            na = _nonlinear_raw(self.E2 * coeffs + self.Q * n0, spec, grid, f(t + dt / 2))
            nb = _nonlinear_raw(self.E2 * coeffs + self.Q * na, spec, grid, f(t + dt / 2))
            nc = _nonlinear_raw(
                self.E2 * (self.E2 * coeffs + self.Q * n0) + self.Q * (2.0 * nb - n0),
                spec, grid, f(t + dt),
            )
            out = self.E * coeffs + self.f1 * n0 + 2.0 * self.f2 * (na + nb) + self.f3 * nc
        else:  # imex-cn with explicit trapezoid for the nonlinearity
            n0 = _nonlinear_raw(coeffs, spec, grid, f(t))
            n1 = _nonlinear_raw(
                self.cn_den * (self.cn_num * coeffs + dt * n0), spec, grid, f(t + dt)
            )
            out = self.cn_den * (self.cn_num * coeffs + 0.5 * dt * (n0 + n1))
        return out


def _contour_mean(integrand, z: np.ndarray) -> np.ndarray:
    """Value at each real z of an entire function, as its mean over a unit circle.

    integrand is evaluated once per distinct value of z (np.unique), on all
    of their contour points at once, and the means are scattered back
    through the inverse index: a box's |k|^2 takes far fewer values than it
    has modes (2,344 of 38,025 at (32,32,8)).  The mean is uniformly
    accurate including near z = 0, where the closed forms of the
    exponential-integrator weights cancel (Kassam & Trefethen 2005).  For
    real z the circle's lower half mirrors the upper half, so 32 points on
    the upper half are sampled and the real part kept.
    """
    zu, inverse = np.unique(z, return_inverse=True)
    theta = np.pi * (np.arange(32) + 0.5) / 32
    zz = zu[:, None] + np.exp(1j * theta)
    return integrand(zz).mean(axis=-1).real[inverse].reshape(z.shape)


_get_stepper = lru_cache(maxsize=32)(_Stepper)


def _check_blowup(u: SpectralField, t: float, step_no: int) -> None:
    """Raise BlowUpError, with a report on the full box, unless u is finite and bounded."""
    max_coeff = float(np.max(np.abs(u.half)))
    if np.isfinite(max_coeff) and max_coeff <= _BLOWUP_THRESHOLD:
        return
    finite = np.nan_to_num(u.half, nan=0.0, posinf=0.0, neginf=0.0)
    raise BlowUpError(
        {
            "time": t,
            "step": step_no,
            "max_coeff": max_coeff,
            "l2_of_finite_part": float(np.sqrt(_box_sum(np.abs(finite) ** 2))),
            "n_nonfinite": int(_box_sum(~np.isfinite(u.half))),
        }
    )


def step(state: RunState, forcing: ForcingSpec | None, cfg: SolverConfig) -> RunState:
    """Advance one step of cfg.dt, preserving mean-zero and divergence-free."""
    spec = state.u.domain
    stepper = _get_stepper(spec, cfg.dt, cfg.scheme)
    u = SpectralField._wrap(spec, stepper.advance(state.u.half, state.t, forcing))
    _check_blowup(u, state.t + cfg.dt, state.step + 1)
    if divergence_defect(u) > _REPROJECT_TOL:
        u = leray(u)
    return RunState(u=u, t=state.t + cfg.dt, step=state.step + 1)


def cfl_estimate(u: SpectralField) -> float:
    """Advective step bound 0.5 * min(grid spacing) / max |u| on the product grid."""
    d = u.domain
    grid = default_grid(d)
    phys = _synth_half(u.half, grid)
    # |u|^2 in place, summed in np.sum's order over the component axis
    np.square(phys, out=phys)
    phys[0] += phys[1]
    phys[0] += phys[2]
    vmax = float(np.sqrt(np.max(phys[0])))
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
    run is the one writer of a run's checkpoints, each state once.  When
    out_dir is given it writes {run_id}_step{N:08d}.ckpt at each step N
    before the last that is a multiple of checkpoint_stride (> 0), and the
    final state as {run_id}_final.ckpt, the last entry of checkpoints, at any
    stride.  A run that blows up keeps its stride files and writes no final
    file.  The first failed write is reported in io_error and ends the
    writing; the run goes on.
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

    def checkpoint(state: RunState, name: str) -> None:
        # disk failures are surfaced in the result, never abort the run
        if out_dir is None or io_errors:
            return
        path = os.path.join(out_dir, f"{run_id}_{name}.ckpt")
        try:
            save_checkpoint(state.u, path, time=state.t, step=state.step)
        except OSError as exc:
            io_errors.append(f"checkpoint write failed at step {state.step}: {exc}")
            return
        checkpoints.append(path)

    state = RunState(u=u0, t=0.0, step=0)
    builder.append(state.t, state.u, f_l2(state.t))
    blowup = None
    try:
        for i in range(n_steps):
            # each state before the last, sampled or not, goes to a stride file
            if cfg.checkpoint_stride > 0 and state.step % cfg.checkpoint_stride == 0:
                checkpoint(state, f"step{state.step:08d}")
            dt_i = cfg.dt if i < n_steps - 1 else last_dt
            if abs(dt_i - cfg.dt) < 1e-12 * cfg.dt:
                state = step(state, forcing, cfg)
            else:
                state = step(state, forcing, replace(cfg, dt=dt_i))
            if state.step % cfg.diag_stride == 0 or i == n_steps - 1:
                builder.append(state.t, state.u, f_l2(state.t))
    except BlowUpError as exc:
        blowup = exc.report
        state = None
    else:
        checkpoint(state, "final")
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
        base = leray(to_spectral(phys, domain))
    else:
        raise ValueError(f"unknown initial-data kind {kind!r}")
    if u_target == 0.0:
        return SpectralField.zeros(domain)
    nb = h1_norm(base)
    if nb == 0.0:
        raise ValueError(f"empty spectrum: {kind!r} produced a zero field")
    return base * (u_target / nb)
