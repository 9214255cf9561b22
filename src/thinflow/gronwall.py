"""Comparison-ODE envelopes, the rescaling map, and literature thresholds.

Given positive constants for the differential-inequality system

    d/dt phi^2   <= -phi_damping   phi_tilde^2 + phi_source  F^2
    d/dt psi^2   <= -psi_damping   psi_tilde^2 + psi_coupling phi^2 psi^2 / eps
                                                + psi_source  F^2
    d/dt theta^2 <= -energy_damping (phi^2 + psi^2) + energy_source F^2

together with the Poincare-type hypotheses phi <= poincare_phi * phi_tilde,
psi <= poincare_psi * psi_tilde, theta^2 <= poincare_energy (phi^2 + psi^2),
solve_envelope solves the scalar comparison equalities (tilde quantities
eliminated through the Poincare constants, the energy equation reduced the
same way so the comparison is order-preserving) in closed form, with no ODE
solver: theta^2 and phi^2 are exponentials, and psi^2, linear once phi^2 is
known, takes its integrating factor and a Gauss-Legendre source integral.
It also evaluates the closed-form peak and tail bounds for psi.  In the
'full' regime the system carries the extra shear term
(-shear_damping + shear_coupling sqrt(eps) (phi+psi)) chi^2; it is
nonpositive while the guard shear_coupling sqrt(eps) (phi+psi) stays below
shear_damping, which check_trajectory traces along a simulated run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .artifacts import record, write_csv
from .diagnostics import DiagnosticSeries, InequalityReport, NumericalError
from .solver import nonlinear_term
from .spectral import (
    DomainSpec,
    SpectralField,
    default_grid,
    deriv,
    leray,
    min_nonzero_k,
    norm_ds,
    norm_l2,
    proj_p,
    proj_q,
    to_physical,
    _half_shape,
)

__all__ = [
    "InequalitySystem",
    "GronwallEnvelope",
    "ContainmentReport",
    "RescaleResult",
    "solve_envelope",
    "check_trajectory",
    "rescale",
    "inverse_rescale",
    "rescale_rhs_residual",
    "literature_thresholds",
    "write_thresholds_csv",
    "evaluate_iftimie_condition",
]


#: the tiny positive value fitted zero constants are floored at
_CONSTANT_FLOOR = 1e-12


@dataclass(frozen=True)
class InequalitySystem:
    """Constants of the comparison system plus the data sizes U, F, eps.

    All constants are strictly positive; M = max(U, F) is derived.  The
    'full' regime additionally carries shear_damping (the chi^2 damping
    coefficient, which doubles as the guard threshold), shear_coupling (the
    coefficient of sqrt(eps)(phi+psi) chi^2) and optionally data_threshold
    (the smallness level the regime demands of M).
    """

    poincare_energy: float
    poincare_phi: float
    poincare_psi: float
    phi_damping: float
    phi_source: float
    psi_damping: float
    psi_coupling: float
    psi_source: float
    energy_damping: float
    energy_source: float
    U: float
    F: float
    eps: float
    regime: str = "planar"
    shear_damping: float | None = None
    shear_coupling: float | None = None
    data_threshold: float | None = None

    def __post_init__(self):
        for name in (
            "poincare_energy", "poincare_phi", "poincare_psi",
            "phi_damping", "phi_source", "psi_damping", "psi_coupling",
            "psi_source", "energy_damping", "energy_source",
        ):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"system constant {name} must be positive")
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")
        if self.U < 0.0 or self.F < 0.0:
            raise ValueError("U and F must be nonnegative")
        if self.regime not in ("planar", "full"):
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.regime == "full":
            if self.shear_damping is None or self.shear_coupling is None:
                raise ValueError("full regime requires shear_damping and shear_coupling")
            if self.shear_damping <= 0.0 or self.shear_coupling < 0.0:
                raise ValueError("shear constants must be positive")

    @property
    def M(self) -> float:
        return max(self.U, self.F)

    @classmethod
    def from_fits(
        cls,
        domain: DomainSpec,
        reports: list[InequalityReport],
        U: float,
        F: float,
        regime: str = "planar",
        data_threshold: float | None = None,
    ) -> "InequalitySystem":
        """Assemble a system from fitted inequality reports.

        Poincare constants come from the sharp spectral values of the
        domain; fitted zeros are floored at _CONSTANT_FLOOR (a weaker
        constant only enlarges the envelope, so domination is preserved).
        """
        kmin = min_nonzero_k(domain)
        c_poi = 1.0 / (2.0 * np.pi * kmin)
        by_name = {r.name: r.fitted_constants for r in reports}
        prefix = "planar" if regime == "planar" else "full"
        phi_fit = by_name[f"{prefix}-phi"]
        psi_fit = by_name[f"{prefix}-psi"]
        en_fit = by_name[f"{prefix}-energy"]
        get = lambda d, k: max(d.get(k, 0.0), _CONSTANT_FLOOR)
        kwargs = dict(
            poincare_energy=c_poi**2,
            poincare_phi=c_poi,
            poincare_psi=c_poi,
            phi_damping=get(phi_fit, "damping"),
            phi_source=get(phi_fit, "source"),
            psi_damping=get(psi_fit, "damping"),
            psi_coupling=get(psi_fit, "coupling"),
            psi_source=get(psi_fit, "source"),
            energy_damping=get(en_fit, "damping"),
            energy_source=get(en_fit, "source"),
            U=U,
            F=F,
            eps=domain.eps,
            regime=regime,
            data_threshold=data_threshold,
        )
        if regime == "full":
            kwargs["shear_damping"] = min(
                get(phi_fit, "shear_damping"), get(psi_fit, "shear_damping")
            )
            kwargs["shear_coupling"] = max(
                phi_fit.get("shear_coupling", 0.0), psi_fit.get("shear_coupling", 0.0)
            )
        return cls(**kwargs)


@dataclass
class GronwallEnvelope:
    """Upper-bound trajectories and closed-form bounds for theta^2, phi^2, psi^2."""

    times: np.ndarray
    theta_sq: np.ndarray
    phi_sq: np.ndarray
    psi_sq: np.ndarray
    psi_peak_bound: float
    psi_tail_bound: float
    dissipation_integral: float
    constants: dict
    system: InequalitySystem = field(repr=False)

    def to_csv(self, path) -> None:
        cols = (self.times, self.theta_sq, self.phi_sq, self.psi_sq)
        write_csv(
            path,
            ["t", "theta_sq_bound", "phi_sq_bound", "psi_sq_bound"],
            zip(*(c.tolist() for c in cols)),
        )


def _linear_envelope(a: float, b: float, x0: float, t: np.ndarray) -> np.ndarray:
    """Solution of x' = -a x + b, x(0) = x0 (a > 0)."""
    return b / a + (x0 - b / a) * np.exp(-a * t)


#: the 8-point Gauss-Legendre rule on [-1, 1], correctly rounded (written out, so the
#: bits do not depend on the LAPACK build, as numpy's leggauss would): positive nodes, weights
_GL_X = np.array([0.1834346424956498, 0.525532409916329, 0.7966664774136267, 0.9602898564975363])
_GL_W = np.array([0.362683783378362, 0.31370664587788727, 0.22238103445337448,
                  0.10122853629037626])
#: the same rule on [0, 1], for the psi source integral
_GL_NODES = np.concatenate((1.0 - _GL_X[::-1], 1.0 + _GL_X)) / 2.0
_GL_WEIGHTS = np.concatenate((_GL_W[::-1], _GL_W)) / 2.0
#: exponent parts below this size change no double and need no resolving
_NEGLIGIBLE = 2.0**-60
#: a damped interval is integrated only over its last _DAMPED_SPAN / |g| of time
_DAMPED_SPAN = 60.0
#: the most quadrature pieces one envelope may take
_MAX_PIECES = 2**20
#: quadrature pieces evaluated per numpy pass
_PIECE_BLOCK = 2**12


@np.errstate(over="ignore", invalid="ignore")
def _psi_envelope(
    lam: float, d: float, a: float, x0: float, s: float, times: np.ndarray
) -> np.ndarray:
    """psi^2 at times, from x' = g(t) x + s, x(0) = x0, with g(t) = lam + d e^{-a t}.

    With G' = g, each step is x(t1) = e^{G(t1)-G(t0)} x(t0) + s I, where
    I = int_{t0}^{t1} e^{G(t1)-G(tau)} dtau, and every exponent
    G(t1) - G(tau) = lam h - d e^{-a tau} expm1(-a h) / a, h = t1 - tau, is
    formed directly.  I is 8-point Gauss-Legendre on equal pieces of each
    step on which |g| h <= 1 (and a h <= 1 while the e^{-a t} part of the
    exponent is not negligible); where g < 0 on the whole step, the pieces
    cover only its last _DAMPED_SPAN / min|g|, beyond which the integrand
    is below e^-60 of its value at t1.
    """
    t = np.concatenate(([0.0], times))
    t0, t1 = t[:-1], t[1:]
    h = t1 - t0
    if np.any(h < 0.0):
        raise ValueError("envelope times must be nondecreasing and nonnegative")

    def exponent(tau, span):
        # G(tau + span) - G(tau)
        return lam * span - d * np.exp(-a * tau) * np.expm1(-a * span) / a

    log_growth = exponent(t0, h)
    if x0 > 0.0 and math.log(x0) + float(np.max(np.cumsum(log_growth))) > 710.0:
        # psi^2 >= U^2 e^{G}: no double holds it
        raise NumericalError("psi envelope integration failed: the envelope overflows")
    integral = np.zeros_like(h)
    if s > 0.0:
        # |g| <= rate on a step; g is monotone, so its sign on a step shows at the ends
        phi_part = abs(d) * np.exp(-a * t0)
        rate = abs(lam) + phi_part
        rate = np.where(phi_part > _NEGLIGIBLE * a, np.maximum(rate, a), rate)
        g_max = np.maximum(lam + d * np.exp(-a * t0), lam + d * np.exp(-a * t1))
        damped = np.divide(_DAMPED_SPAN, -g_max, out=np.full_like(h, np.inf), where=g_max < 0.0)
        span = np.minimum(h, damped)
        pieces = np.maximum(1.0, np.ceil(rate * span))
        if not np.all(np.isfinite(pieces)) or pieces.sum() > _MAX_PIECES:
            raise NumericalError(
                "psi envelope integration failed: the source integral needs more than "
                f"{_MAX_PIECES} quadrature pieces"
            )
        pieces = pieces.astype(np.int64)
        width = span / pieces
        step = np.repeat(np.arange(len(h)), pieces)
        first = np.cumsum(pieces) - pieces
        for b in range(0, len(step), _PIECE_BLOCK):
            n = step[b : b + _PIECE_BLOCK]
            j = np.arange(b, b + len(n)) - first[n]
            # nodes by their distance back from t1, so the damped exponent keeps its digits
            back = (j[:, None] + _GL_NODES) * width[n, None]
            vals = (np.exp(exponent(t1[n, None] - back, back)) * _GL_WEIGHTS).sum(axis=1) * width[n]
            integral += np.bincount(n, weights=vals, minlength=len(h))
    growth = np.exp(log_growth)
    x = x0
    psi_sq = np.empty_like(h)
    for i, (e, v) in enumerate(zip(growth.tolist(), (s * integral).tolist())):
        x = e * x + v
        psi_sq[i] = x
    if not np.all(np.isfinite(psi_sq)):
        bad = float(times[int(np.argmin(np.isfinite(psi_sq)))])
        raise NumericalError(
            f"psi envelope integration failed: the envelope is not finite at t = {bad:.6g}"
        )
    return psi_sq


def solve_envelope(
    sys: InequalitySystem, horizon: float, times: np.ndarray | None = None
) -> GronwallEnvelope:
    """Evaluate the comparison envelopes and the closed bounds.

    phi^2 has the exponential closed form; theta^2 uses the Gronwall
    reduction through the energy Poincare constant (the literal coupled
    replacement is not order-preserving, see the module docstring).  psi^2
    solves the linear scalar equation psi' = g(t) psi + s, psi(0) = U^2,
    with g(t) = -a_psi + (psi_coupling / eps) phi^2(t) and s = psi_source F^2,
    in closed form: with G' = g,

        psi^2(t_{n+1}) = e^{G(t_{n+1}) - G(t_n)} psi^2(t_n)
                         + s int_{t_n}^{t_{n+1}} e^{G(t_{n+1}) - G(tau)} dtau,

    each exponent difference formed directly and the integral taken by
    8-point Gauss-Legendre on pieces with |g| h <= 1 (_psi_envelope).  An
    envelope that is not finite raises NumericalError (the command exits 4).
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if times is None:
        times = np.linspace(0.0, horizon, 513)
    times = np.asarray(times, dtype=float)
    U2 = sys.U**2
    F2 = sys.F**2
    M = sys.M

    a_phi = sys.phi_damping / sys.poincare_phi**2
    b_phi = sys.phi_source * F2
    phi_sq = _linear_envelope(a_phi, b_phi, U2, times)

    a_th = sys.energy_damping / sys.poincare_energy
    b_th = sys.energy_source * F2
    th0 = 2.0 * sys.poincare_energy * U2
    theta_sq = _linear_envelope(a_th, b_th, th0, times)

    a_psi = sys.psi_damping / sys.poincare_psi**2
    cpl = sys.psi_coupling / sys.eps
    # phi^2(t) = b/a + (U^2 - b/a) e^{-a t}, so g(t) = lam + d e^{-a t}
    phi_inf = b_phi / a_phi
    psi_sq = _psi_envelope(
        cpl * phi_inf - a_psi, cpl * (U2 - phi_inf), a_phi, U2, sys.psi_source * F2, times
    )

    # Closed-form peak/tail bounds traced through the standard chain
    # (cap phi and theta by their envelope levels, absorb the coupling term
    # with the energy inequality, integrate with the psi damping factor);
    # these are one admissible choice of the derived constants.
    poi_en = sys.poincare_energy
    inv_damp = 1.0 / sys.energy_damping
    kappa_phi = max(1.0, math.sqrt(sys.phi_source / a_phi))
    kappa_th = max(math.sqrt(2.0 * poi_en), math.sqrt(sys.energy_source / a_th))
    coupling_gain = sys.psi_coupling * kappa_phi**2 * inv_damp
    A_peak = 1.0 + sys.psi_source / a_psi
    B_peak = coupling_gain * (sys.energy_source / a_psi + 2.0 * poi_en + kappa_th**2)
    psi_peak_coef = math.sqrt(A_peak + B_peak)
    psi_peak_bound = psi_peak_coef * max(M, M**2 / math.sqrt(sys.eps))

    kappa_phi_inf = math.sqrt(sys.phi_source / a_phi)
    kappa_th_inf = math.sqrt(sys.energy_source / a_th)
    gain_inf = sys.psi_coupling * kappa_phi_inf**2 * inv_damp
    A_tail = sys.psi_source / a_psi
    B_tail = gain_inf * (sys.energy_source / a_psi + kappa_th_inf**2)
    psi_tail_coef = math.sqrt(A_tail + B_tail)
    psi_tail_bound = psi_tail_coef * max(sys.F, sys.F**2 / math.sqrt(sys.eps))

    constants = {
        "energy_level": max(2.0 * poi_en, poi_en * inv_damp * sys.energy_source),
        "energy_rate": a_th,
        "phi_level": max(1.0, sys.phi_source / a_phi),
        "phi_rate": a_phi,
        "psi_rate": a_psi,
        "psi_peak_coef": psi_peak_coef,
        "psi_tail_coef": psi_tail_coef,
        "transient_time": max(1.0 / a_phi, 1.0 / a_th, 1.0 / a_psi),
    }
    dissipation = float(np.trapezoid(phi_sq + psi_sq, times))
    return GronwallEnvelope(
        times=times,
        theta_sq=theta_sq,
        phi_sq=phi_sq,
        psi_sq=psi_sq,
        psi_peak_bound=psi_peak_bound,
        psi_tail_bound=psi_tail_bound,
        dissipation_integral=dissipation,
        constants=constants,
        system=sys,
    )


@dataclass
class ContainmentReport:
    """Envelope-domination verdict plus the guard trace of a trajectory."""

    contained: bool
    first_violation: tuple[str, float] | None
    guard_threshold: float | None
    guard_max: float | None
    guard_first_crossing: float | None
    small_data_ok: bool | None
    margins: dict

    @property
    def guard_crossed(self) -> bool:
        return self.guard_first_crossing is not None

    def to_dict(self) -> dict:
        return record(self) | {"guard_crossed": self.guard_crossed}


def check_trajectory(
    series: DiagnosticSeries,
    env: GronwallEnvelope,
    slack_rel: float = 1e-6,
) -> ContainmentReport:
    """Verify a simulated trajectory never exceeds env, its system's envelope
    solved on the series' own times (a ValueError otherwise).

    The series and the system must agree on U, F and eps (checked against
    the series' initial values and forcing column).  For the 'full' regime
    the guard shear_coupling sqrt(eps) (phi + psi) is traced against the
    shear_damping threshold and the first strict crossing is reported.
    """
    sys = env.system
    if not np.array_equal(env.times, series.times):
        raise ValueError("the envelope must be solved on the series' sample times")
    phi, psi, _, _ = series.family(sys.regime)
    tol = 1.0 + 1e-9
    if phi[0] > sys.U * tol + 1e-12 or psi[0] > sys.U * tol + 1e-12:
        raise ValueError(
            f"mismatched parameters: series starts at phi={phi[0]:.3e}, psi={psi[0]:.3e} "
            f"but the system declares U={sys.U:.3e}"
        )
    if float(np.max(series.forcing, initial=0.0)) > sys.F * tol + 1e-12:
        raise ValueError("mismatched parameters: series forcing exceeds the declared F")

    abs_slack = 1e-12 * max(sys.U**2, sys.F**2, 1.0)
    checks = [
        ("theta_sq", series.theta**2, env.theta_sq),
        ("phi_sq", phi**2, env.phi_sq),
        ("psi_sq", psi**2, env.psi_sq),
    ]
    first_violation = None
    margins = {}
    for name, values, bound in checks:
        allowed = bound * (1.0 + slack_rel) + abs_slack
        over = values > allowed
        margins[name] = float(np.min(allowed - values))
        if np.any(over) and first_violation is None:
            first_violation = (name, float(series.times[int(np.argmax(over))]))

    guard_threshold = guard_max = guard_first = None
    small_ok = None
    if sys.regime == "full":
        guard = sys.shear_coupling * np.sqrt(sys.eps) * (phi + psi)
        guard_threshold = float(sys.shear_damping)
        guard_max = float(np.max(guard))
        # counted as crossed already at equality, so a "never" verdict
        # certifies the sampled guard stays strictly below the threshold
        crossed = guard >= guard_threshold
        if np.any(crossed):
            guard_first = float(series.times[int(np.argmax(crossed))])
    if sys.data_threshold is not None:
        small_ok = sys.M <= sys.data_threshold
    return ContainmentReport(
        contained=first_violation is None,
        first_violation=first_violation,
        guard_threshold=guard_threshold,
        guard_max=guard_max,
        guard_first_crossing=guard_first,
        small_data_ok=small_ok,
        margins=margins,
    )


# ---------------------------------------------------------------------------
# The normalizing rescaling map.
# ---------------------------------------------------------------------------

@dataclass
class RescaleResult:
    """Rescaled fields on the normalized box plus the verified identities."""

    u_tilde: SpectralField
    f_tilde: SpectralField | None
    domain: DomainSpec
    n: int
    time_factor: float
    residual_f_identity: float | None
    residual_u_identity: float


def _quadrature_l2(f: SpectralField) -> float:
    grid = default_grid(f.domain)
    phys = to_physical(f, grid)
    return float(np.sqrt(f.domain.volume * np.mean(np.sum(phys**2, axis=0))))


def _normal_form(src: DomainSpec) -> tuple[DomainSpec, int, np.ndarray]:
    """The unit-viscosity box of src, its copy count n = floor(l1/l2), and the
    target's y-mode rows (the source's y modes times n) in storage order."""
    n = int(math.floor(src.l1 / src.l2))
    target = DomainSpec(l1=1.0, l2=n * src.l2 / src.l1, eps=src.eps / src.l1, nu=1.0,
                        n1=src.n1, n2=src.n2 * n, n3=src.n3)
    return target, n, np.arange(-src.n2, src.n2 + 1) * n + target.n2


def _map_half(g: SpectralField, target: DomainSpec, rows, scale: float) -> SpectralField:
    """scale * g on the target box: its half box lands on the given y rows, the rest is zero."""
    half = np.zeros(_half_shape(target), dtype=np.complex128)
    half[:, :, rows, :] = scale * g.half
    return SpectralField._wrap(target, half)


def rescale(u: SpectralField, f: SpectralField | None = None) -> RescaleResult:
    """Map fields on [0,l1]x[0,l2]x[0,eps] to the unit-viscosity normal form.

    With n the integer part of l1/l2, the new fields live on
    [0,1] x [0, n l2/l1] x [0, eps/l1]; u is scaled by l1/nu and f by
    l1^3/nu^2, and time contracts by nu/l1^2.  The y mode k of the source
    becomes the mode n k of the target, so the map copies the stored half
    boxes into a zeroed target half and needs no Hermitian repair.  The L2
    identity for f and the gradient-seminorm identity for u are verified by
    physical-grid quadrature on both boxes and their relative residuals are
    reported.  (The seminorm is the exact invariant; the inhomogeneous H1
    norm picks up an extra l1 factor on its L2 part.)
    """
    src = u.domain
    target, n, rows = _normal_form(src)
    u_tilde = _map_half(u, target, rows, src.l1 / src.nu)

    # gradient-seminorm identity by quadrature on both boxes
    factor_u = src.nu / math.sqrt(n * src.l1)

    def quad_grad(g: SpectralField) -> float:
        return _quadrature_l2(deriv(g, 1.0))

    lhs_u = quad_grad(u)
    rhs_u = factor_u * quad_grad(u_tilde)
    scale_u = max(lhs_u, rhs_u, 1e-300)
    residual_u = abs(lhs_u - rhs_u) / scale_u

    f_tilde = None
    residual_f = None
    if f is not None:
        if f.domain != src:
            raise ValueError("u and f must share a domain")
        f_tilde = _map_half(f, target, rows, src.l1**3 / src.nu**2)
        factor_f = src.nu**2 / (math.sqrt(n) * src.l1**1.5)
        lhs_f = _quadrature_l2(f)
        rhs_f = factor_f * _quadrature_l2(f_tilde)
        residual_f = abs(lhs_f - rhs_f) / max(lhs_f, rhs_f, 1e-300)

    return RescaleResult(
        u_tilde=u_tilde,
        f_tilde=f_tilde,
        domain=target,
        n=n,
        time_factor=src.l1**2 / src.nu,
        residual_f_identity=residual_f,
        residual_u_identity=residual_u,
    )


def inverse_rescale(u_tilde: SpectralField, original: DomainSpec) -> SpectralField:
    """Undo rescale: recover the field on the original box.

    u_tilde must live on the normal form of original, with no mode off the
    rows that rescale writes (a ValueError otherwise); those rows of its
    half box, scaled back by nu/l1, are the result's half box.
    """
    target, _, rows = _normal_form(original)
    if u_tilde.domain != target:
        raise ValueError("box does not match the rescaling of the original domain")
    half = u_tilde.half
    off_lattice = half.copy()
    off_lattice[:, :, rows, :] = 0.0
    scale = float(np.max(np.abs(half)))
    if scale > 0 and float(np.max(np.abs(off_lattice))) > 1e-10 * scale:
        raise ValueError("field has off-lattice horizontal modes; not in the image of rescale")
    return SpectralField._wrap(original, half[:, :, rows, :] * (original.nu / original.l1))


def rescale_rhs_residual(u: SpectralField, f: SpectralField | None = None) -> float:
    """Relative defect of the evolution identity under rescaling.

    The rescaled fields must satisfy the unit-viscosity equation: the right
    side evaluated on the normalized box equals l1^3/nu^2 times the mapped
    right side of the original equation.  u, f and the original right side
    are each mapped once; pure spectral computation, so the residual is
    roundoff-level.
    """
    def rhs(field: SpectralField, forcing: SpectralField | None) -> SpectralField:
        d = field.domain
        lap = deriv(field, 2.0) * (-d.nu)
        out = lap + nonlinear_term(field)
        if forcing is not None:
            out = out + leray(forcing)
        return out

    src = u.domain
    target, _, rows = _normal_form(src)
    u_scale = src.l1 / src.nu
    # rhs(u, f) also rejects an f on another domain
    rhs_mapped = _map_half(rhs(u, f), target, rows, u_scale) * (src.l1**2 / src.nu)
    f_tilde = None if f is None else _map_half(f, target, rows, src.l1**3 / src.nu**2)
    rhs_tilde = rhs(_map_half(u, target, rows, u_scale), f_tilde)
    num = norm_l2(rhs_tilde - rhs_mapped)
    den = max(norm_l2(rhs_tilde), 1e-300)
    return num / den


# ---------------------------------------------------------------------------
# Literature thresholds.
# ---------------------------------------------------------------------------

_DEFAULT_ALPHA_LABEL = "alpha(eps) = 1/log(1/eps)  [artifact plotting default, user-replaceable]"


#: the small exponents of the literature bounds, each set to the one delta:
#: d1..d8 of Raugel-Sell, then Moise-Temam-Ziane's and Iftimie's
_DELTA_NAMES = tuple(f"d{i}" for i in range(1, 9)) + ("mtz", "iftimie")


def literature_thresholds(
    eps_values,
    delta: float = 0.01,
    alpha_fn=None,
    c: float = 1.0,
) -> dict:
    """Side-by-side smallness thresholds from the thin-domain literature.

    Raugel-Sell and Moise-Temam-Ziane bounds are power laws in eps whose
    small exponents are all set to delta; Iftimie's sufficient condition
    follows from his anisotropic hypothesis; the 'uniform' column is the
    scale-free M <= 1/c threshold whose eps-independence this toolkit
    illustrates.  alpha_fn is the user-supplied vanishing prefactor of the
    MTZ bounds.
    """
    eps_values = np.asarray(eps_values, dtype=float)
    if np.any(eps_values >= 1.0) or np.any(eps_values <= 0.0):
        raise ValueError("eps values must lie in (0, 1) so log(1/eps) > 0")
    d = dict.fromkeys(_DELTA_NAMES, delta)
    alpha_label = _DEFAULT_ALPHA_LABEL if alpha_fn is None else "user-supplied alpha(eps)"
    if alpha_fn is None:
        alpha_fn = lambda e: 1.0 / math.log(1.0 / e)
    rows = []
    for eps in eps_values:
        lg = math.log(1.0 / eps)
        alpha = alpha_fn(eps)
        rows.append(
            {
                "eps": float(eps),
                "rs_pu": eps ** (7.0 / 24.0 + d["d1"]) * lg ** d["d2"],
                "rs_qu": eps ** (-5.0 / 48.0 + d["d3"]) * lg ** d["d4"],
                "rs_pf": eps ** (7.0 / 24.0 + d["d5"]) * lg ** d["d6"],
                "rs_qf": eps ** (-0.5 + d["d7"]) * lg ** d["d8"],
                "mtz_p": alpha * eps ** (1.0 / 6.0 + d["mtz"]),
                "mtz_q": alpha * eps ** (-1.0 / 6.0 + d["mtz"]),
                "iftimie_pu": (1.0 / c) * eps**0.5 * math.sqrt(lg),
                "iftimie_qu": (1.0 / c) * eps ** (-0.5 + d["iftimie"]),
                "uniform": 1.0 / c,
            }
        )
    return {"rows": rows, "alpha_label": alpha_label, "c": c, "deltas": d}


def write_thresholds_csv(table: dict, path) -> None:
    rows = table["rows"]
    if not rows:
        return
    cols = list(rows[0])
    write_csv(path, cols, ([row[k] for k in cols] for row in rows))


def evaluate_iftimie_condition(u: SpectralField, c: float = 1.0) -> dict:
    """||Qu||_{H^{1/2}} exp(c ||Pu||_2^2 / eps) against 1/c for a field.

    The H^{1/2} norm is the inhomogeneous one, sqrt(L2^2 + half-derivative^2).
    """
    qu = proj_q(u)
    pu = proj_p(u)
    h_half = math.sqrt(norm_l2(qu) ** 2 + norm_ds(qu, 0.5) ** 2)
    lhs = h_half * math.exp(c * norm_l2(pu) ** 2 / u.domain.eps)
    return {"lhs": lhs, "threshold": 1.0 / c, "satisfied": lhs <= 1.0 / c}
