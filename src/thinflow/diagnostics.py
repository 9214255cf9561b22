"""Norm functionals along trajectories and numerical inequality verification.

A trajectory is summarized by the scalar functionals of the velocity split
u = r + s + w (horizontal/vertical parts of the vertical average, plus the
oscillatory remainder):

    theta = ||u||_2,  chi = ||D^2 w||_2,
    planar family:  phi = ||D r||_2,              psi = ||D s||_2,
    full family:    phi = sqrt(||D r||^2 + ||D w||^2),
                    psi = sqrt(||D s||^2 + ||D w||^2),

with tilde variants using D^2.  The full-family definitions reduce to the
planar ones when w = 0.  Differential inequalities between these quantities
are verified post hoc: time derivatives are estimated by second-order
finite differences and the unknown constants are fitted by a Chebyshev
(max-residual) linear program, so verdicts are reproducible.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.optimize import linprog

from .artifacts import record, write_csv
from .spectral import (
    SpectralField,
    deriv,
    divergence_defect,
    inner_l2,
    ksq_grid,
    norm_ds,
    norm_l2,
    proj_r,
    proj_s,
    _box_sum,
)

__all__ = [
    "DiagnosticSeries",
    "SeriesBuilder",
    "InequalityReport",
    "NumericalError",
    "RegularityBoundsReport",
    "REGIMES",
    "sample_functionals",
    "check_enstrophy_miracle",
    "s_transport_residual",
    "check_diff_inequalities",
    "fit_shared_constants",
    "evaluate_regularity_bounds",
    "energy_budget",
    "energy_identity_residuals",
    "write_residual_traces",
]


@dataclass(frozen=True)
class DiagnosticSeries:
    """Time-indexed norm functionals of a run.

    phi/psi and their tilde variants are the full-family definitions; the
    _2d arrays hold the planar-family ones.  F is the forcing L2 magnitude.
    The fields, in declaration order, are the diagnostics CSV's columns.
    """

    times: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    phi_tilde: np.ndarray
    psi_tilde: np.ndarray
    chi: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    forcing: np.ndarray
    phi_2d: np.ndarray
    psi_2d: np.ndarray
    phi_tilde_2d: np.ndarray
    psi_tilde_2d: np.ndarray

    def __len__(self) -> int:
        return len(self.times)

    def family(self, regime: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(phi, psi, phi_tilde, psi_tilde) for 'planar' or 'full'."""
        if regime == "planar":
            return self.phi_2d, self.psi_2d, self.phi_tilde_2d, self.psi_tilde_2d
        if regime == "full":
            return self.phi, self.psi, self.phi_tilde, self.psi_tilde
        raise ValueError(f"unknown regime {regime!r}")

    def to_csv(self, path) -> None:
        write_csv(path, CSV_COLUMNS, zip(*(getattr(self, f.name).tolist() for f in fields(self))))

    @classmethod
    def from_csv(cls, path) -> "DiagnosticSeries":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if header[: len(CSV_COLUMNS)] != CSV_COLUMNS:
                raise ValueError(f"unexpected diagnostics CSV header in {path}")
            rows = [[float(v) for v in row] for row in reader]
        if not rows:
            raise ValueError(f"no diagnostics rows in {path}")
        data = np.asarray(rows, dtype=float)
        return cls(*(data[:, i] for i in range(len(CSV_COLUMNS))))


#: CSV header: the DiagnosticSeries fields, with times and forcing named t and F
CSV_COLUMNS = [
    {"times": "t", "forcing": "F"}.get(f.name, f.name) for f in fields(DiagnosticSeries)
]


class SeriesBuilder:
    """Append-only accumulator used while a run is in progress."""

    def __init__(self):
        self._rows: list[tuple] = []

    def append(self, t: float, u: SpectralField, forcing_l2: float) -> None:
        # sample_functionals' row is the fields from theta to h2, then the _2d ones
        row = sample_functionals(u)
        self._rows.append((t, *row[:8], forcing_l2, *row[8:]))

    def finish(self) -> DiagnosticSeries:
        data = np.asarray(self._rows, dtype=float).reshape(-1, len(CSV_COLUMNS))
        return DiagnosticSeries(*data.T)


def sample_functionals(u: SpectralField) -> tuple:
    """One diagnostics row (without t and F), see SeriesBuilder.append; the
    r, s, w parts' squared derivative norms are summed without materializing them."""
    d = u.domain
    vol = d.volume
    ksq = ksq_grid(d)[..., d.n3 :]
    abs2 = np.abs(u.half) ** 2
    four_pi2 = (2.0 * np.pi) ** 2

    p0 = abs2[..., 0]               # (3, M1, M2) vertical-average modes
    ksq_p0 = ksq[..., 0]
    w_abs2 = np.sum(abs2, axis=0)
    w_abs2[..., 0] = 0.0            # oscillatory modes only

    def wsum(a, weights):
        return float(np.sum(weights * a))

    dr2 = vol * four_pi2 * (wsum(p0[0], ksq_p0) + wsum(p0[1], ksq_p0))
    ds2 = vol * four_pi2 * wsum(p0[2], ksq_p0)
    dw2 = vol * four_pi2 * _box_sum(ksq * w_abs2)
    d2r2 = vol * four_pi2**2 * (wsum(p0[0], ksq_p0**2) + wsum(p0[1], ksq_p0**2))
    d2s2 = vol * four_pi2**2 * wsum(p0[2], ksq_p0**2)
    d2w2 = vol * four_pi2**2 * _box_sum(ksq**2 * w_abs2)

    theta2 = vol * _box_sum(abs2)
    du2 = dr2 + ds2 + dw2
    d2u2 = d2r2 + d2s2 + d2w2
    sqrt = np.sqrt
    return (
        sqrt(theta2), sqrt(dr2 + dw2), sqrt(ds2 + dw2), sqrt(d2r2 + d2w2), sqrt(d2s2 + d2w2),
        sqrt(d2w2), sqrt(theta2 + du2), sqrt(theta2 + du2 + d2u2),
        sqrt(dr2), sqrt(ds2), sqrt(d2r2), sqrt(d2s2),
    )


# ---------------------------------------------------------------------------
# Pointwise identities: the planar vorticity-stretching cancellation and the
# transport term that survives for the vertical component.
# ---------------------------------------------------------------------------

def _require_planar(u: SpectralField, name: str, tol: float = 1e-12) -> None:
    scale = float(np.max(np.abs(u.half)))
    if scale == 0.0:
        return
    if float(np.max(np.abs(u.half[..., 1:]))) > tol * scale:
        raise ValueError(f"{name} must be independent of the thin direction")


def check_enstrophy_miracle(r: SpectralField) -> float:
    """Normalized planar cancellation integral, on the solver's nonlinear term.

    For a z-independent, divergence-free horizontal field r the integral
    of lap(r) . (r . grad r) over the horizontal box vanishes identically.
    D^2 r = -lap(r) lies in the band and is divergence-free, so its inner
    product with N(r) = -L(r . grad r) (solver.nonlinear_term) is that
    integral exactly.  Returns |integral| / (||D^2 r|| ||D r||^2) in the
    horizontal box's 2D norms (a volume norm carries sqrt(eps) more), the
    roundoff of the operator every run uses.
    """
    _require_planar(r, "r")
    if float(np.max(np.abs(r.half[2]))) > 1e-12 * max(float(np.max(np.abs(r.half))), 1e-300):
        raise ValueError("r must have zero vertical component")
    if divergence_defect(r) > 1e-10:
        raise ValueError("r must be divergence-free")
    # solver imports this module, so its operator is imported at call time
    from .solver import nonlinear_term

    denom = norm_ds(r, 2.0) * norm_ds(r, 1.0) ** 2
    if denom == 0.0:
        return 0.0
    integral = inner_l2(deriv(r, 2.0), nonlinear_term(r))
    return abs(integral) * float(np.sqrt(r.domain.eps)) / denom


def s_transport_residual(r: SpectralField, s: SpectralField) -> float:
    """|integral of lap(s3) (r . grad s3)| / (||D^2 s3|| ||L(r . grad s3)||).

    The analogue of the planar cancellation for the transported vertical
    component: it does NOT vanish in general, which is why that term needs
    an inequality estimate rather than an identity.  Only r's horizontal
    part, which must be divergence-free (transport by an incompressible 2D
    flow), and s's vertical component s3 are used.  Component 3 of
    solver.nonlinear_term(r + s3) is -L(r . grad s3), the band projection
    of the transport that the Galerkin system sees: the Leray projection
    leaves it alone since k3 = 0 on the p = 0 plane.  lap(s3) lies in the
    band, so the integral is exact; the normalization is its Cauchy-Schwarz
    bound, so the result lies in [0, 1].
    """
    _require_planar(r, "r")
    _require_planar(s, "s")
    r, s = proj_r(r), proj_s(s)
    if divergence_defect(r) > 1e-10:
        raise ValueError("r must be divergence-free")
    # solver imports this module, so its operator is imported at call time
    from .solver import nonlinear_term

    transport = proj_s(nonlinear_term(r + s))
    denom = norm_ds(s, 2.0) * norm_l2(transport)
    if denom == 0.0:
        return 0.0
    return abs(inner_l2(deriv(s, 2.0), transport)) / denom


# ---------------------------------------------------------------------------
# Differential-inequality fitting.
# ---------------------------------------------------------------------------

@dataclass
class InequalityReport:
    """Outcome of fitting one differential inequality on one trajectory."""

    name: str
    fitted_constants: dict[str, float]
    residual_max: float
    slack: float
    verdict: str
    trajectory_id: str
    term_peaks: dict[str, float]
    times: np.ndarray = field(repr=False)
    residuals: np.ndarray = field(repr=False)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return record(self, exclude=("times", "residuals"))


def _ddt(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Second-order derivative estimate (centered, one-sided at the ends)."""
    return np.gradient(values, times, edge_order=2)


def _inequality_defs(series: DiagnosticSeries, eps: float, regime: str):
    """(name, lhs, {constant: column}, lhs_floor) rows for the requested regime.

    lhs_floor is a floor for the scale the fit's slack is relative to.  It is
    zero except where the LHS is a difference of nearly equal terms, whose
    roundoff is relative to the terms, not to the difference.
    """
    t = series.times
    F2 = series.forcing**2
    if regime == "planar":
        phi, psi, phit, psit = series.family("planar")
        return [
            ("planar-phi", _ddt(t, phi**2),
             {"damping": -(phit**2), "source": F2}, 0.0),
            ("planar-psi", _ddt(t, psi**2),
             {"damping": -(psit**2), "coupling": phi**2 * psi**2 / eps, "source": F2}, 0.0),
            ("planar-energy", _ddt(t, series.theta**2),
             {"damping": -(phi**2 + psi**2), "source": F2}, 0.0),
        ]
    if regime == "full":
        phi, psi, phit, psit = series.family("full")
        chi2 = series.chi**2
        shear = np.sqrt(eps) * (phi + psi) * chi2
        return [
            ("full-phi", _ddt(t, phi**2),
             {"damping": -(phit**2), "shear_damping": -chi2,
              "shear_coupling": shear, "source": F2}, 0.0),
            ("full-psi", _ddt(t, psi**2),
             {"damping": -(psit**2), "shear_damping": -chi2,
              "coupling": phi**2 * psi**2 / eps,
              "shear_coupling": shear, "source": F2}, 0.0),
            ("full-energy", _ddt(t, series.theta**2),
             {"damping": -(phi**2 + psi**2), "source": F2}, 0.0),
        ]
    if regime == "full-split":
        dr2 = series.phi_2d**2
        ds2 = series.psi_2d**2
        dw2 = np.maximum(series.phi**2 - series.phi_2d**2, 0.0)
        chi2 = series.chi**2
        dv = np.sqrt(dr2 + ds2)
        dw = np.sqrt(dw2)
        return [
            ("split-horizontal", _ddt(t, dr2),
             {"damping": -(series.phi_tilde_2d**2),
              "shear_coupling": np.sqrt(eps) * dv * chi2, "source": F2}, 0.0),
            ("split-vertical", _ddt(t, ds2),
             {"damping": -(series.psi_tilde_2d**2),
              "coupling": dr2 * ds2 / eps,
              "shear_coupling": np.sqrt(eps) * dv * chi2, "source": F2}, 0.0),
            ("split-shear", _ddt(t, dw2),
             {"damping": -chi2,
              "shear_coupling": np.sqrt(eps) * dv * chi2,
              "self_coupling": np.sqrt(eps) * dw * chi2, "source": F2},
             float(np.max(series.phi**2, initial=0.0))),
        ]
    raise ValueError(f"unknown regime {regime!r}")


class NumericalError(RuntimeError):
    """A numerical method failed: a constant-fit LP, or a psi^2 envelope that is not finite."""


def _fit_chebyshev(
    lhs: np.ndarray,
    cols: dict[str, np.ndarray],
    bounds: dict[str, tuple[float, float]],
) -> tuple[dict[str, float], np.ndarray]:
    """Fit constants of the bound lhs_i <= sum_j c_j col_j[i]; return them
    with the residuals lhs_i - sum_j c_j col_j[i].

    The verdict question is whether nonnegative constants exist, but the
    minimizer of the plain max residual is degenerate (inflating a source
    constant drives the residual to the box corner), so the fit is anchored:
    first find the best achievable residual level, then at that level pick
    the most informative vertex - damping-like constants (columns <= 0) as
    large, source-like ones as small, as the data allows.  On an exact decay
    trajectory this recovers the true damping rate.
    """
    names = list(cols)
    A_terms = np.column_stack([cols[n] for n in names])
    m, J = A_terms.shape
    weights = np.array(
        [max(float(np.max(np.abs(A_terms[:, j]), initial=0.0)), 0.0) for j in range(J)]
    )
    active = weights > 0.0
    lhs_scale = float(np.max(np.abs(lhs), initial=0.0))

    def informative_fit(target: float):
        if not np.any(active):
            return np.array([bounds[n][0] for n in names])
        damping_like = np.array(
            [bool(np.max(A_terms[:, j], initial=0.0) <= 0.0) for j in range(J)]
        )
        # maximize damping, minimize sources; the slight asymmetry breaks the
        # degenerate ray where a damping/source pair trades off one-for-one,
        # and the primary damping term is preferred over secondary ones
        pref = np.array([1.0 if n == "damping" else 0.9 for n in names])
        obj = np.where(damping_like, -(1.0 - 1e-3) * pref * weights, weights)
        obj = np.where(active, obj, 0.0)
        res = linprog(
            c=obj[active],
            A_ub=-A_terms[:, active],
            b_ub=target - lhs,
            bounds=[bounds[names[j]] for j in range(J) if active[j]],
            method="highs",
        )
        if not res.success:
            return None
        x = np.array([bounds[n][0] for n in names])
        x[active] = res.x
        return x

    x = informative_fit(1e-13 * max(lhs_scale, 1e-300))
    if x is None:
        # infeasible at zero residual: find the Chebyshev optimum first
        A_ub = np.hstack([-np.ones((m, 1)), -A_terms])
        res1 = linprog(
            c=np.concatenate([[1.0], np.zeros(J)]),
            A_ub=A_ub,
            b_ub=-lhs,
            bounds=[(None, None)] + [bounds[n] for n in names],
            method="highs",
        )
        if not res1.success:
            raise NumericalError(f"constant fit LP failed: {res1.message}")
        z_star = float(res1.x[0])
        target = z_star + 1e-12 * max(1.0, abs(z_star)) + 1e-10 * lhs_scale
        x = informative_fit(target)
        if x is None:
            x = res1.x[1:]
    return {n: float(v) for n, v in zip(names, x)}, lhs - A_terms @ x


_DEFAULT_BOUNDS = (0.0, 1e9)


def check_diff_inequalities(
    series: DiagnosticSeries,
    eps: float,
    regime: str,
    slack_rel: float = 1e-6,
    bounds: dict[str, tuple[float, float]] | None = None,
    trajectory_id: str = "",
) -> list[InequalityReport]:
    """Fit and verify the differential-inequality system of a regime.

    regime: 'planar' for the z-independent system, 'full' for the combined
    system with the shear terms, 'full-split' for the three per-quantity
    inequalities the combined system is assembled from.
    """
    return _fit_series([series], eps, regime, slack_rel, bounds, trajectory_id)


def fit_shared_constants(
    series_list: list[DiagnosticSeries],
    eps: float,
    regime: str,
    slack_rel: float = 1e-6,
    bounds: dict[str, tuple[float, float]] | None = None,
) -> list[InequalityReport]:
    """One constant set per inequality covering every trajectory at once."""
    if not series_list:
        raise ValueError("no trajectories supplied")
    return _fit_series(series_list, eps, regime, slack_rel, bounds, "shared")


def _fit_series(series_list, eps, regime, slack_rel, bounds, trajectory_id):
    """Fit each inequality of a regime on the concatenated samples of the series."""
    for s in series_list:
        if len(s) < 5:
            raise ValueError("series too short to estimate time derivatives (< 5 samples)")
    per = [_inequality_defs(s, eps, regime) for s in series_list]
    times = np.concatenate([s.times for s in series_list])
    reports = []
    for defs in zip(*per):
        name, _, first_cols, _ = defs[0]
        lhs = np.concatenate([d[1] for d in defs])
        cols = {k: np.concatenate([d[2][k] for d in defs]) for k in first_cols}
        lhs_floor = max(d[3] for d in defs)
        box = {n: _DEFAULT_BOUNDS for n in cols}
        if bounds:
            box.update({n: bounds[n] for n in bounds if n in box})
        constants, residuals = _fit_chebyshev(lhs, cols, box)
        residual_max = float(np.max(residuals))
        term_peaks = {n: float(np.max(np.abs(constants[n] * cols[n]), initial=0.0)) for n in cols}
        scale = max(float(np.max(np.abs(lhs), initial=0.0)) + sum(term_peaks.values()), lhs_floor)
        slack = slack_rel * max(scale, 1e-300)
        reports.append(InequalityReport(
            name=name,
            fitted_constants=constants,
            residual_max=residual_max,
            slack=slack,
            verdict="pass" if residual_max <= slack else "fail",
            trajectory_id=trajectory_id,
            term_peaks=term_peaks,
            times=times,
            residuals=residuals,
        ))
    return reports


def write_residual_traces(reports: list[InequalityReport], path) -> None:
    """CSV of residual traces, one column per inequality (plotting aid)."""
    if not reports:
        return
    cols = [reports[0].times] + [r.residuals for r in reports]
    write_csv(path, ["t"] + [r.name for r in reports], zip(*(c.tolist() for c in cols)))


# ---------------------------------------------------------------------------
# Conclusion-level bounds.
# ---------------------------------------------------------------------------

@dataclass
class RegularityBoundsReport:
    """Smallest admissible prefactors for the H1 conclusion bounds."""

    sup_h1: float
    tail_sup_h1: float
    tail_window: tuple[float, float]
    h2_sq_integral: float
    M: float
    rhs_uniform: float
    rhs_tail: float
    c_uniform: float | None
    c_tail: float | None
    vacuous: bool = False
    message: str = ""

    def to_dict(self) -> dict:
        return record(self)


#: share of the run, at its end, that the tail sup is taken over
_TAIL_FRACTION = 0.25


def evaluate_regularity_bounds(
    series: DiagnosticSeries,
    U: float,
    F: float,
    l1: float,
    l2: float,
    nu: float,
    eps: float,
    blowup: dict | None = None,
) -> RegularityBoundsReport:
    """Evaluate the H1 conclusion bounds along a finished run.

    Computes sup_t ||u||_H1, the sup over the trailing window (the last
    quarter of the run, a finite-horizon stand-in for the limsup), and the
    trapezoid integral of ||u||_H2^2; reports the smallest prefactor c that
    would make each bound hold, with the data size M = max(U, (l1/nu) F).
    A blown-up run yields a vacuous report: the smallness hypothesis
    M <= c^-1 nu sqrt(l2) / l1 was presumably violated.
    """
    M = max(U, (l1 / nu) * F)
    rhs_uniform = max(M, (l1**1.5 / (nu * np.sqrt(l2))) * M**2 / np.sqrt(eps))
    rhs_tail = max((l1 / nu) * F, (l1**3.5 / (nu**3 * np.sqrt(l2))) * F**2 / np.sqrt(eps))
    if blowup is not None:
        return RegularityBoundsReport(
            sup_h1=float(np.max(series.h1, initial=0.0)),
            tail_sup_h1=float("nan"),
            tail_window=(float("nan"), float("nan")),
            h2_sq_integral=float("nan"),
            M=M,
            rhs_uniform=rhs_uniform,
            rhs_tail=rhs_tail,
            c_uniform=None,
            c_tail=None,
            vacuous=True,
            message=(
                "bound vacuous - the run blew up, so the smallness hypothesis "
                "on M was presumably violated"
            ),
        )
    t = series.times
    span = t[-1] - t[0]
    t_tail = t[-1] - _TAIL_FRACTION * span
    tail_mask = t >= t_tail
    sup_h1 = float(np.max(series.h1))
    tail_sup = float(np.max(series.h1[tail_mask]))
    h2_int = float(np.trapezoid(series.h2**2, t))
    c_uniform = sup_h1 / rhs_uniform if rhs_uniform > 0 else None
    c_tail = tail_sup / rhs_tail if rhs_tail > 0 else None
    return RegularityBoundsReport(
        sup_h1=sup_h1,
        tail_sup_h1=tail_sup,
        tail_window=(float(t_tail), float(t[-1])),
        h2_sq_integral=h2_int,
        M=M,
        rhs_uniform=rhs_uniform,
        rhs_tail=rhs_tail,
        c_uniform=c_uniform,
        c_tail=c_tail,
    )


def energy_budget(u: SpectralField, forcing_value: SpectralField | None = None) -> float:
    """Exact instantaneous d/dt ||u||_2^2 of the Galerkin system.

    Advection is energy-neutral, so the budget is -2 nu ||D u||^2 plus twice
    the forcing inner product.  Used to validate the finite-difference
    derivative estimates.
    """
    d = u.domain
    out = -2.0 * d.nu * norm_ds(u, 1.0) ** 2
    if forcing_value is not None:
        out += 2.0 * inner_l2(u, forcing_value)
    return out


def energy_identity_residuals(
    series: DiagnosticSeries, nu: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-interval residual of the unforced energy identity.

    Over consecutive sample pairs [t_i, t_{i+2}] compares the slope of
    theta^2 with -2 nu ||Du||^2, the latter Simpson-averaged through the
    midpoint sample (an endpoint average cannot resolve the identity to the
    tolerances this check is used at).  Requires a per-step sampled series;
    returns (interval midpoints, |residual|, nu * averaged ||Du||^2), so
    residual / scale is the relative closure of the identity.
    """
    if len(series) < 3:
        raise ValueError("need at least 3 samples for the energy identity check")
    th2 = series.theta**2
    du2 = series.h1**2 - series.theta**2
    i = np.arange(0, len(series) - 2, 2)
    h = series.times[i + 2] - series.times[i]
    slope = (th2[i + 2] - th2[i]) / h
    avg_du2 = (du2[i] + 4.0 * du2[i + 1] + du2[i + 2]) / 6.0
    residual = np.abs(slope + 2.0 * nu * avg_du2)
    return series.times[i + 1], residual, nu * avg_du2


REGIMES = ("planar", "full", "full-split")
