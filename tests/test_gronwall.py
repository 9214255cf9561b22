"""Tests for comparison envelopes, rescaling, and threshold tables."""

import math
from dataclasses import replace

import numpy as np
import pytest

from thinflow import cli
from thinflow import diagnostics as dg
from thinflow import gronwall as gw
from thinflow import solver as sv
from thinflow import spectral as sp


def base_system(**overrides) -> gw.InequalitySystem:
    kwargs = dict(
        poincare_energy=0.03, poincare_phi=0.16, poincare_psi=0.16,
        phi_damping=1.0, phi_source=1.0,
        psi_damping=1.0, psi_coupling=1.0, psi_source=1.0,
        energy_damping=1.0, energy_source=1.0,
        U=0.1, F=0.05, eps=0.125, regime="planar",
    )
    kwargs.update(overrides)
    return gw.InequalitySystem(**kwargs)


def synthetic_series(times, theta, phi, psi, poincare, forcing=0.0):
    """A consistent DiagnosticSeries with tildes at the Poincare saturation."""
    z = np.zeros_like(times)
    theta = np.asarray(theta, float)
    phi = np.asarray(phi, float)
    psi = np.asarray(psi, float)
    return dg.DiagnosticSeries(
        times=times, theta=theta, phi=phi, psi=psi,
        phi_tilde=phi / poincare, psi_tilde=psi / poincare, chi=z,
        h1=np.sqrt(theta**2 + phi**2 + psi**2),
        h2=np.sqrt(theta**2 + 2 * (phi**2 + psi**2) / poincare**2),
        forcing=np.full_like(times, forcing),
        phi_2d=phi, psi_2d=psi,
        phi_tilde_2d=phi / poincare, psi_tilde_2d=psi / poincare,
    )


def upto(horizon: float) -> np.ndarray:
    """513 equally spaced envelope times on [0, horizon]."""
    return np.linspace(0.0, horizon, 513)


def contain(series, sys: gw.InequalitySystem) -> gw.ContainmentReport:
    """check_trajectory against the system's envelope on the series' times."""
    env = gw.solve_envelope(sys, series.times)
    return gw.check_trajectory(series, env)


class TestSystemValidation:
    def test_positive_constants_required(self):
        with pytest.raises(ValueError, match="must be positive"):
            base_system(phi_damping=0.0)
        with pytest.raises(ValueError, match="eps"):
            base_system(eps=-1.0)
        with pytest.raises(ValueError, match="regime"):
            base_system(regime="axial")
        with pytest.raises(ValueError, match="shear"):
            base_system(regime="full")
        with pytest.raises(ValueError, match="U and F must be nonnegative"):
            base_system(U=-0.1)
        with pytest.raises(ValueError, match="shear constants must be positive"):
            base_system(regime="full", shear_damping=1.0, shear_coupling=-1.0)

    def test_m_derived(self):
        assert base_system(U=0.3, F=0.6).M == 0.6
        assert base_system(U=0.3, F=0.1).M == 0.3


class TestEnvelope:
    def test_scalar_comparison_matches_closed_form(self):
        """x' = -a x + b integrates to the textbook exponential (the coupling, 8e-30,
        moves psi^2 by far less than roundoff)."""
        sys0 = base_system(psi_coupling=1e-30, U=1.0, F=0.5,
                           poincare_phi=1.0, poincare_psi=1.0, poincare_energy=1.0)
        env = gw.solve_envelope(sys0, upto(3.0))
        a, b = 1.0, 0.25
        exact = b / a + (1.0 - b / a) * np.exp(-a * env.times)
        np.testing.assert_allclose(env.phi_sq, exact, rtol=1e-12)
        np.testing.assert_allclose(env.psi_sq, exact, rtol=1e-13, atol=0)

    def test_unforced_psi_is_the_integrating_factor(self):
        """With F = 0, psi^2 = U^2 e^{G(t)}, G the integral of -a_psi + (c/eps) phi^2."""
        sys0 = base_system(F=0.0, psi_coupling=3.0)
        env = gw.solve_envelope(sys0, upto(10.0))
        a_phi = sys0.phi_damping / sys0.poincare_phi**2
        a_psi = sys0.psi_damping / sys0.poincare_psi**2
        cpl = sys0.psi_coupling / sys0.eps
        t = env.times
        G = -a_psi * t - cpl * sys0.U**2 * np.expm1(-a_phi * t) / a_phi
        np.testing.assert_allclose(env.psi_sq, sys0.U**2 * np.exp(G), rtol=1e-12, atol=0)

    def test_stiff_forced_psi_matches_a_finer_quadrature(self):
        """psi_damping = 100 gives |g| h near 80 on a 513-point grid; the
        envelope matches a Gauss-Legendre sum over whole steps with 4x its pieces."""
        sys0 = base_system(psi_damping=100.0, psi_coupling=2.0, U=0.3, F=0.2)
        env = gw.solve_envelope(sys0, upto(10.0))
        a = sys0.phi_damping / sys0.poincare_phi**2
        cpl = sys0.psi_coupling / sys0.eps
        phi_inf = sys0.phi_source * sys0.F**2 / a
        lam = cpl * phi_inf - sys0.psi_damping / sys0.poincare_psi**2
        d = cpl * (sys0.U**2 - phi_inf)
        s = sys0.psi_source * sys0.F**2

        def rise(tau, span):  # G(tau + span) - G(tau)
            return lam * span - d * np.exp(-a * tau) * np.expm1(-a * span) / a

        x, w = np.polynomial.legendre.leggauss(8)
        x, w = (x + 1.0) / 2.0, w / 2.0
        t = env.times
        ref = [sys0.U**2]
        for t0, t1 in zip(t[:-1], t[1:]):
            h = t1 - t0
            g_max = abs(lam) + abs(d) * np.exp(-a * t0)
            assert g_max * h > 50.0
            m = 4 * math.ceil(max(g_max, a) * h)
            back = (np.arange(m)[:, None] + x) * (h / m)
            integral = (np.exp(rise(t1 - back, back)) @ w).sum() * (h / m)
            ref.append(np.exp(rise(t0, h)) * ref[-1] + s * integral)
        np.testing.assert_allclose(env.psi_sq, ref, rtol=1e-13, atol=0)

    def test_equal_data_and_forcing_gives_flat_phi(self):
        # with U = F and matched source the exponential term has zero weight
        sys0 = base_system(U=0.2, F=0.2, phi_source=1.0, phi_damping=1.0,
                           poincare_phi=1.0)
        env = gw.solve_envelope(sys0, upto(2.0))
        assert np.ptp(env.phi_sq) <= 1e-15

    def test_unforced_envelopes_decay_to_zero(self):
        sys0 = base_system(F=0.0)
        env = gw.solve_envelope(sys0, upto(40.0))
        assert env.theta_sq[-1] <= 1e-6 * env.theta_sq[0]
        assert env.phi_sq[-1] <= 1e-6 * env.phi_sq[0]
        assert env.psi_tail_bound == 0.0  # limsup bound vanishes with F

    def test_envelopes_nonnegative_and_monotone_toward_floor(self):
        sys0 = base_system(U=0.3, F=0.05)
        env = gw.solve_envelope(sys0, upto(10.0))
        for arr in (env.theta_sq, env.phi_sq, env.psi_sq):
            assert np.all(arr >= 0.0)
        # U > F: decay toward the forcing floor is monotone
        assert np.all(np.diff(env.theta_sq) <= 1e-15)
        assert np.all(np.diff(env.phi_sq) <= 1e-15)

    def test_monotone_in_U_and_F(self, rng):
        for _ in range(10):
            u1, f1 = rng.uniform(0.01, 0.5, 2)
            du, df = rng.uniform(0.0, 0.5, 2)
            env1 = gw.solve_envelope(base_system(U=u1, F=f1), upto(5.0))
            env2 = gw.solve_envelope(base_system(U=u1 + du, F=f1 + df), upto(5.0))
            assert np.all(env2.theta_sq >= env1.theta_sq - 1e-12)
            assert np.all(env2.phi_sq >= env1.phi_sq - 1e-12)
            assert np.all(env2.psi_sq >= env1.psi_sq - 1e-12)

    def test_dissipation_integral_finite(self):
        env = gw.solve_envelope(base_system(), upto(50.0))
        assert np.isfinite(env.dissipation_integral)
        assert env.dissipation_integral > 0.0

    @pytest.mark.parametrize("times", [[0.0, 0.5, 0.25, 1.0], [-0.1, 0.5]],
                             ids=["decreasing", "negative"])
    def test_times_must_be_nonnegative_and_nondecreasing(self, times):
        with pytest.raises(ValueError, match="nondecreasing and nonnegative"):
            gw.solve_envelope(base_system(), np.array(times))

    def test_integration_failure_is_numerical_error(self):
        """A coupling of 1e6 / eps grows psi^2 past every double within the horizon,
        from U > 0 and, through the source alone, from U = 0."""
        for U in (0.1, 0.0):
            with pytest.raises(dg.NumericalError, match="psi envelope integration failed"):
                gw.solve_envelope(base_system(psi_coupling=1e6, U=U), upto(50.0))


class TestContainment:
    def test_synthetic_damped_series_contained(self):
        """Series generated from the equality ODEs, then damped, must sit
        below the envelope (comparison principle)."""
        sys0 = base_system(U=0.2, F=0.1)
        times = np.linspace(0.0, 4.0, 81)
        env = gw.solve_envelope(sys0, times)
        series = synthetic_series(
            times,
            theta=0.9 * np.sqrt(env.theta_sq),
            phi=0.9 * np.sqrt(env.phi_sq),
            psi=0.9 * np.sqrt(env.psi_sq),
            poincare=sys0.poincare_phi,
            forcing=sys0.F,
        )
        report = gw.check_trajectory(series, env)
        assert report.contained
        assert report.first_violation is None

    def test_zero_trajectory_contained(self):
        sys0 = base_system()
        times = np.linspace(0.0, 1.0, 11)
        series = synthetic_series(times, np.zeros(11), np.zeros(11), np.zeros(11), 0.16)
        assert contain(series, sys0).contained

    def test_scaled_violation_located(self):
        sys0 = base_system(U=0.2, F=0.1)
        times = np.linspace(0.0, 4.0, 81)
        env = gw.solve_envelope(sys0, times)
        phi = np.sqrt(env.phi_sq)
        phi_bad = phi.copy()
        phi_bad[40:] *= 10.0  # push above the envelope midway
        series = synthetic_series(
            times, 0.9 * np.sqrt(env.theta_sq), phi_bad, 0.9 * np.sqrt(env.psi_sq),
            sys0.poincare_phi, forcing=sys0.F,
        )
        # initial data still matches U, so the parameter check passes
        report = gw.check_trajectory(series, env)
        assert not report.contained
        assert report.first_violation[0] == "phi_sq"
        assert report.first_violation[1] == pytest.approx(times[40])

    def test_only_the_first_violation_reported(self):
        """theta^2 leaves its envelope at sample 10 and psi^2 at sample 30: the
        report names theta^2 only, and both margins are negative."""
        sys0 = base_system(U=0.2, F=0.1)
        times = np.linspace(0.0, 4.0, 81)
        env = gw.solve_envelope(sys0, times)
        theta = 0.9 * np.sqrt(env.theta_sq)
        psi = 0.9 * np.sqrt(env.psi_sq)
        theta[10:] *= 10.0
        psi[30:] *= 10.0
        series = synthetic_series(
            times, theta, 0.9 * np.sqrt(env.phi_sq), psi, sys0.poincare_phi, forcing=sys0.F
        )
        report = gw.check_trajectory(series, env)
        assert not report.contained
        assert report.first_violation == ("theta_sq", times[10])
        assert report.margins["theta_sq"] < 0.0 and report.margins["psi_sq"] < 0.0
        assert report.margins["phi_sq"] > 0.0

    def test_earliest_exit_reported(self):
        """psi^2 leaves its envelope at t = 0.25 and theta^2 at t = 3.0: the report
        names psi^2, the earlier exit, although theta^2 is checked first."""
        sys0 = base_system(U=0.2, F=0.1)
        times = np.linspace(0.0, 4.0, 81)
        env = gw.solve_envelope(sys0, times)
        theta = 0.9 * np.sqrt(env.theta_sq)
        psi = 0.9 * np.sqrt(env.psi_sq)
        theta[times >= 3.0] *= 10.0
        psi[times >= 0.25] *= 10.0
        series = synthetic_series(
            times, theta, 0.9 * np.sqrt(env.phi_sq), psi, sys0.poincare_phi, forcing=sys0.F
        )
        report = gw.check_trajectory(series, env)
        assert report.first_violation == ("psi_sq", 0.25)

    def test_equal_exit_times_keep_the_check_order(self):
        """phi^2 and psi^2 both leave at sample 20: phi^2, checked before psi^2, is named."""
        sys0 = base_system(U=0.2, F=0.1)
        times = np.linspace(0.0, 4.0, 81)
        env = gw.solve_envelope(sys0, times)
        phi = 0.9 * np.sqrt(env.phi_sq)
        psi = 0.9 * np.sqrt(env.psi_sq)
        phi[20:] *= 10.0
        psi[20:] *= 10.0
        series = synthetic_series(
            times, 0.9 * np.sqrt(env.theta_sq), phi, psi, sys0.poincare_phi, forcing=sys0.F
        )
        assert gw.check_trajectory(series, env).first_violation == ("phi_sq", times[20])

    def test_guard_crossing_located(self):
        """A guard shear_coupling sqrt(eps) (phi + psi) that rises to shear_damping
        at sample 6 is crossed there: equality already counts as crossed."""
        times = np.linspace(0.0, 1.0, 11)
        phi = psi = 0.1 * (0.5 + 0.05 * np.arange(11))
        eps = 0.125
        guard = np.sqrt(eps) * (phi + psi)
        sys_full = base_system(
            U=0.1, F=0.0, eps=eps, regime="full",
            shear_damping=float(guard[6]), shear_coupling=1.0,
        )
        rep = contain(synthetic_series(times, phi, phi, psi, 0.16), sys_full)
        assert rep.guard_crossed
        assert rep.guard_first_crossing == times[6]
        assert rep.guard_threshold == guard[6]
        assert rep.guard_max == guard[-1]
        assert rep.to_dict()["guard_crossed"] is True

    def test_parameter_mismatch_rejected(self):
        sys0 = base_system(U=0.01)
        times = np.linspace(0.0, 1.0, 11)
        series = synthetic_series(
            times, np.full(11, 0.5), np.full(11, 0.5), np.full(11, 0.5), 0.16
        )
        with pytest.raises(ValueError, match="mismatched parameters"):
            contain(series, sys0)
        # base_system's F = 0.05 against a forcing column of 0.1
        quiet = synthetic_series(times, np.zeros(11), np.zeros(11), np.zeros(11), 0.16, forcing=0.1)
        with pytest.raises(ValueError, match="series forcing exceeds the declared F"):
            contain(quiet, base_system())

    def test_envelope_on_other_times_rejected(self):
        sys0 = base_system()
        times = np.linspace(0.0, 1.0, 11)
        series = synthetic_series(times, np.zeros(11), np.zeros(11), np.zeros(11), 0.16)
        env = gw.solve_envelope(sys0, np.linspace(0.0, 1.0, 21))
        with pytest.raises(ValueError, match="sample times"):
            gw.check_trajectory(series, env)

    def test_guard_trace_on_real_run(self):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=8, n2=8, n3=2)
        u0 = sv.make_initial(d, "q-perturbed", u_target=0.08, seed=13)
        cfg = sv.SolverConfig(dt=1e-3, t_end=0.4, scheme="etd-rk2", diag_stride=4)
        series = sv.run(u0, None, cfg).series
        reports = dg.check_diff_inequalities(series, eps=d.eps, regime="full")
        sys_full = gw.InequalitySystem.from_fits(
            d, reports, U=0.08, F=0.0, regime="full", data_threshold=0.1
        )
        rep = contain(series, sys_full)
        assert rep.contained
        assert rep.guard_threshold is not None
        assert rep.guard_max is not None
        assert not rep.guard_crossed          # never: strictly below threshold
        assert rep.guard_max < rep.guard_threshold or rep.guard_max == 0.0
        assert rep.small_data_ok

    def test_report_serializes(self):
        sys0 = base_system()
        times = np.linspace(0.0, 1.0, 11)
        series = synthetic_series(times, np.zeros(11), np.zeros(11), np.zeros(11), 0.16)
        doc = contain(series, sys0).to_dict()
        assert doc["contained"] is True
        assert doc["guard_crossed"] is False


class TestRescale:
    def test_identity_map_when_normalized(self, rng):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=4, n2=4, n3=1)
        u = sp.leray(sp.random_field(d, rng))
        res = gw.rescale(u)
        assert res.n == 1
        np.testing.assert_allclose(res.u_tilde.coeffs, u.coeffs, atol=0)
        assert res.residual_u_identity <= 1e-12

    def test_norm_identities_criterion_geometry(self, rng):
        """l1 = 2, l2 = 1, nu = 1/2: both identities at roundoff."""
        d = sp.DomainSpec(l1=2.0, l2=1.0, eps=0.125, nu=0.5, n1=6, n2=6, n3=2)
        for seed in range(3):
            r = np.random.default_rng(seed)
            u = sp.leray(sp.random_field(d, r, slope=-1.0))
            f = sp.leray(sp.random_field(d, r, slope=-1.0))
            res = gw.rescale(u, f)
            assert res.n == 2
            assert res.residual_f_identity <= 1e-12
            assert res.residual_u_identity <= 1e-12

    def test_inverse_recovers_field(self, rng):
        d = sp.DomainSpec(l1=2.0, l2=1.0, eps=0.125, nu=0.5, n1=6, n2=6, n3=2)
        u = sp.leray(sp.random_field(d, rng))
        res = gw.rescale(u)
        back = gw.inverse_rescale(res.u_tilde, d)
        assert sp.norm_l2(back - u) <= 1e-12 * sp.norm_l2(u)

    def test_inverse_rejects_off_lattice(self, rng):
        d = sp.DomainSpec(l1=2.0, l2=1.0, eps=0.125, nu=0.5, n1=4, n2=4, n3=1)
        res = gw.rescale(sp.leray(sp.random_field(d, rng)))
        tgt = res.u_tilde.domain
        bad = res.u_tilde.coeffs.copy()
        bad[0, tgt.n1 + 1, tgt.n2 + 1, tgt.n3] += 0.5   # off the n-lattice
        bad[0, tgt.n1 - 1, tgt.n2 - 1, tgt.n3] += 0.5
        with pytest.raises(ValueError, match="off-lattice"):
            gw.inverse_rescale(sp.SpectralField(tgt, bad), d)

    def test_inverse_rejects_a_field_from_another_box(self, rng):
        """A field with the normal form's modes but half its eps is not in the image."""
        d = sp.DomainSpec(l1=2.0, l2=1.0, eps=0.125, nu=0.5, n1=4, n2=4, n3=1)
        res = gw.rescale(sp.leray(sp.random_field(d, rng)))
        other = replace(res.domain, eps=res.domain.eps / 2)
        with pytest.raises(ValueError, match="rescaling of the original domain"):
            gw.inverse_rescale(sp.SpectralField(other, res.u_tilde.coeffs), d)

    def test_forcing_on_another_domain_rejected(self, rng):
        d = sp.DomainSpec(l1=2.0, l2=1.0, eps=0.125, nu=0.5, n1=4, n2=4, n3=1)
        u = sp.leray(sp.random_field(d, rng))
        f = sp.leray(sp.random_field(replace(d, nu=1.0), rng))
        with pytest.raises(ValueError, match="u and f must share a domain"):
            gw.rescale(u, f)

    @pytest.mark.parametrize("l1, nu", [(1.0, 1.0), (2.0, 0.5), (3.5, 0.02)])
    def test_map_equals_the_checked_full_box_map(self, l1, nu):
        """rescale copies half boxes; that gives the same bits as the checked
        construction of the mapped full box, for u and for f."""
        d = sp.DomainSpec(l1=l1, l2=1.0, eps=0.125, nu=nu, n1=5, n2=4, n3=2)
        r = np.random.default_rng(7)
        u = sp.leray(sp.random_field(d, r, slope=-1.0))
        f = sp.leray(sp.random_field(d, r, slope=-1.0))
        res = gw.rescale(u, f)
        tgt = res.domain
        rows = np.arange(-d.n2, d.n2 + 1) * res.n + tgt.n2
        for g, got, scale in ((u, res.u_tilde, l1 / nu), (f, res.f_tilde, l1**3 / nu**2)):
            full = np.zeros((3,) + tgt.shape, dtype=np.complex128)
            full[:, :, rows, :] = scale * g.coeffs
            assert got.half.tobytes() == sp.SpectralField(tgt, full).half.tobytes()

    def test_rescale_check_builds_no_full_box(self, tmp_path, monkeypatch):
        """One CLI rescale-check passes no field through the checked construction
        and synthesizes four grids: the two quadrature identities' two boxes."""
        calls = {"checked": 0, "synth": 0}
        checked, synth = sp._checked_hermitian, sp._synth_half

        def counting_checked(*args, **kwargs):
            calls["checked"] += 1
            return checked(*args, **kwargs)

        def counting_synth(*args, **kwargs):
            calls["synth"] += 1
            return synth(*args, **kwargs)

        monkeypatch.setattr(sp, "_checked_hermitian", counting_checked)
        monkeypatch.setattr(sp, "_synth_half", counting_synth)
        rc = cli.main([
            "rescale-check", "--out", str(tmp_path / "rc"),
            "--set", "l1=2", "--set", "l2=1", "--set", "eps=0.125", "--set", "nu=0.5",
            "--set", "n1=5", "--set", "n2=5", "--set", "n3=2",
        ])
        assert rc == cli.EXIT_OK
        assert calls == {"checked": 0, "synth": 4}

    def test_rescaled_field_satisfies_unit_equation(self, rng):
        d = sp.DomainSpec(l1=2.0, l2=1.0, eps=0.125, nu=0.5, n1=5, n2=4, n3=2)
        u = sp.leray(sp.random_field(d, rng, slope=-1.0)) * 0.05
        f = sp.leray(sp.random_field(d, rng, slope=-1.0)) * 0.05
        assert gw.rescale_rhs_residual(u, f) <= 1e-12

    def test_non_integer_aspect(self, rng):
        d = sp.DomainSpec(l1=1.7, l2=1.0, eps=0.2, nu=1.0, n1=4, n2=4, n3=1)
        u = sp.leray(sp.random_field(d, rng))
        res = gw.rescale(u)
        assert res.n == 1
        assert res.domain.l2 == pytest.approx(1.0 / 1.7)
        assert res.residual_u_identity <= 1e-12
        back = gw.inverse_rescale(res.u_tilde, d)
        assert sp.norm_l2(back - u) <= 1e-12 * sp.norm_l2(u)

    def test_wide_boxes_rejected_at_construction(self):
        # the l2 > l1 error case cannot even build a domain
        with pytest.raises(ValueError, match="l1 >= l2"):
            sp.DomainSpec(l1=1.0, l2=2.0, eps=0.1, nu=1.0, n1=4, n2=4, n3=1)


class TestThresholds:
    def test_log_term_reduces_to_pure_powers(self):
        table = gw.literature_thresholds([math.exp(-1.0)], delta=0.0)
        row = table["rows"][0]
        assert row["rs_pu"] == pytest.approx(math.exp(-7.0 / 24.0), rel=1e-12)
        assert row["rs_qf"] == pytest.approx(math.exp(0.5), rel=1e-12)
        assert row["iftimie_pu"] == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_uniform_threshold_eps_independent(self):
        table = gw.literature_thresholds([0.1, 0.01, 0.001], c=2.0)
        vals = [row["uniform"] for row in table["rows"]]
        assert vals == [0.5, 0.5, 0.5]

    def test_eps_validation(self):
        with pytest.raises(ValueError, match="eps"):
            gw.literature_thresholds([1.0])
        with pytest.raises(ValueError, match="eps"):
            gw.literature_thresholds([0.5, -0.1])

    def test_alpha_default_labeled(self):
        table = gw.literature_thresholds([0.1])
        assert "artifact" in table["alpha_label"]
        table2 = gw.literature_thresholds([0.1], alpha_fn=lambda e: 1.0)
        assert "user" in table2["alpha_label"]

    def test_csv(self, tmp_path):
        table = gw.literature_thresholds([0.1, 0.01])
        path = tmp_path / "thresholds.csv"
        gw.write_thresholds_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("eps,rs_pu,rs_qu")
        assert len(lines) == 3

    def test_iftimie_condition_evaluator(self, rng):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=6, n2=6, n3=2)
        u = sv.make_initial(d, "q-perturbed", u_target=1e-4, seed=1)
        res = gw.evaluate_iftimie_condition(u, c=1.0)
        assert res["satisfied"]
        big = sv.make_initial(d, "q-perturbed", u_target=10.0, seed=1)
        assert not gw.evaluate_iftimie_condition(big, c=1.0)["satisfied"]
