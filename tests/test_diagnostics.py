"""Tests for norm functionals, identity checks, and the inequality fitter."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from thinflow import diagnostics as dg
from thinflow import solver as sv
from thinflow import spectral as sp


def planar_divfree(domain, rng, slope=-1.0):
    return sp.proj_r(sp.leray(sp.proj_p(sp.random_field(domain, rng, slope=slope))))


@pytest.fixture
def domain2d():
    return sp.DomainSpec(l1=1.0, l2=1.0, eps=0.2, nu=1.0, n1=8, n2=8, n3=1)


class TestSampleFunctionals:
    def test_zero_field(self, series_of, small_domain):
        series = series_of([sp.SpectralField.zeros(small_domain)], [0.0])
        assert series.theta[0] == 0.0
        assert series.h2[0] == 0.0
        assert series.chi[0] == 0.0

    def test_z_independent_families_coincide(self, series_of, small_domain, rng):
        u = sp.leray(sp.proj_p(sp.random_field(small_domain, rng)))
        s = series_of([u], [0.0])
        assert s.chi[0] == 0.0
        assert s.phi[0] == pytest.approx(s.phi_2d[0], rel=1e-14)
        assert s.psi[0] == pytest.approx(s.psi_2d[0], rel=1e-14)

    def test_single_mode_closed_form(self, series_of):
        """All functionals of one conjugate pair follow from the multiplier."""
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=4, n2=4, n3=2)
        a, (m, n, p) = 0.35, (1, 2, 1)
        c = np.zeros((3,) + d.shape, complex)
        c[2, d.n1 + m, d.n2 + n, d.n3 + p] = a / 2
        c[2, d.n1 - m, d.n2 - n, d.n3 - p] = a / 2
        u = sp.SpectralField(d, c)
        s = series_of([u], [0.0])
        ksq = m**2 / d.l1**2 + n**2 / d.l2**2 + p**2 / d.eps**2
        l2 = np.sqrt(d.volume * a**2 / 2)
        assert s.theta[0] == pytest.approx(l2, rel=1e-12)
        # the mode has p != 0, so r = s = 0 and everything sits in w
        assert s.phi_2d[0] == 0.0
        dw = 2 * np.pi * np.sqrt(ksq) * l2
        assert s.phi[0] == pytest.approx(dw, rel=1e-12)
        assert s.psi[0] == pytest.approx(dw, rel=1e-12)
        assert s.chi[0] == pytest.approx((2 * np.pi) ** 2 * ksq * l2, rel=1e-12)
        assert s.h1[0] == pytest.approx(np.sqrt(l2**2 + dw**2), rel=1e-12)

    def test_poincare_chains_on_series(self, series_of, rng):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=6, n2=6, n3=2)
        c = sp.poincare_constant(d, 1.0)
        fields = [sp.leray(sp.random_field(d, rng)) for _ in range(10)]
        s = series_of(fields, np.arange(10.0))
        tol = 1 + 1e-12
        for regime in ("planar", "full"):
            phi, psi, phit, psit = s.family(regime)
            assert np.all(phi <= c * phit * tol)
            assert np.all(psi <= c * psit * tol)
            assert np.all(s.theta**2 <= c**2 * (phi**2 + psi**2) * tol)

    def test_full_family_dominates_planar(self, series_of, rng):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=6, n2=6, n3=2)
        fields = [sp.leray(sp.random_field(d, rng)) for _ in range(5)]
        s = series_of(fields, np.arange(5.0))
        assert np.all(s.phi >= s.phi_2d - 1e-15)
        assert np.all(s.psi >= s.psi_2d - 1e-15)

    def test_csv_round_trip(self, series_of, small_domain, rng, tmp_path):
        fields = [sp.random_field(small_domain, rng) for _ in range(4)]
        s = series_of(fields, np.linspace(0, 1, 4), forcing=np.ones(4))
        path = tmp_path / "diag.csv"
        s.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("t,theta,phi,psi,phi_tilde,psi_tilde,chi,h1,h2,F")
        back = dg.DiagnosticSeries.from_csv(path)
        np.testing.assert_allclose(back.h1, s.h1, rtol=0, atol=1e-16)
        np.testing.assert_allclose(back.phi_tilde_2d, s.phi_tilde_2d, rtol=0, atol=1e-16)


class TestEnstrophyMiracle:
    def test_single_mode_exactly_zero(self, domain2d):
        c = np.zeros((3,) + domain2d.shape, complex)
        n1, n2, n3 = domain2d.n1, domain2d.n2, domain2d.n3
        c[0, n1, n2 + 1, n3] = -0.5j
        c[0, n1, n2 - 1, n3] = 0.5j  # (sin(2 pi y), 0, 0)
        r = sp.SpectralField(domain2d, c)
        assert dg.check_enstrophy_miracle(r) <= 1e-16

    def test_random_fields_roundoff(self, domain2d, rng):
        for _ in range(10):
            r = planar_divfree(domain2d, rng)
            assert dg.check_enstrophy_miracle(r) <= 1e-10

    def test_rejects_three_dimensional_input(self, domain2d, rng):
        u = sp.leray(sp.random_field(domain2d, rng))
        with pytest.raises(ValueError, match="independent of the thin direction"):
            dg.check_enstrophy_miracle(u)
        v = sp.leray(sp.proj_p(sp.random_field(domain2d, rng)))
        if np.max(np.abs(v.coeffs[2])) > 0:
            with pytest.raises(ValueError, match="vertical component"):
                dg.check_enstrophy_miracle(v)

    def test_transported_vertical_component_survives(self, domain2d):
        """Two-mode counterexample: the analogous integral does not vanish."""
        n1, n2, n3 = domain2d.n1, domain2d.n2, domain2d.n3
        c = np.zeros((3,) + domain2d.shape, complex)
        c[0, n1, n2 + 1, n3] = -0.5j
        c[0, n1, n2 - 1, n3] = 0.5j  # r = (sin(2 pi y), 0)
        r = sp.SpectralField(domain2d, c)
        cs = np.zeros((3,) + domain2d.shape, complex)
        cs[2, n1 + 1, n2, n3] = 0.5
        cs[2, n1 - 1, n2, n3] = 0.5  # cos(2 pi x)
        cs[2, n1 + 1, n2 + 1, n3] = 0.5
        cs[2, n1 - 1, n2 - 1, n3] = 0.5  # + cos(2 pi (x + y))
        s_field = sp.SpectralField(domain2d, cs)
        assert dg.s_transport_residual(r, s_field) >= 1e-2


    def test_counterexample_closed_form(self, domain2d):
        """r = (sin 2 pi y, 0) transporting s3 = cos 2 pi x + cos 2 pi (x + y):
        the normalized integral is 1 / (2 sqrt 5)."""
        n1, n2, n3 = domain2d.n1, domain2d.n2, domain2d.n3
        c = np.zeros((3,) + domain2d.shape, complex)
        c[0, n1, n2 + 1, n3] = -0.5j
        c[0, n1, n2 - 1, n3] = 0.5j
        cs = np.zeros((3,) + domain2d.shape, complex)
        cs[2, [n1 + 1, n1 - 1, n1 + 1, n1 - 1], [n2, n2, n2 + 1, n2 - 1], n3] = 0.5
        value = dg.s_transport_residual(sp.SpectralField(domain2d, c), sp.SpectralField(domain2d, cs))
        assert value == pytest.approx(1 / (2 * math.sqrt(5)), rel=1e-12)

    def test_reads_the_solvers_nonlinear_term(self, domain2d, rng, monkeypatch):
        """The check sees solver.nonlinear_term: adding an in-band, divergence-free
        field a thousandth the size of N(r) to it lifts the residual off roundoff."""
        r = planar_divfree(domain2d, rng)
        exact = sv.nonlinear_term

        def perturbed(u):
            n = exact(u)
            return n + u * (1e-3 * sp.norm_l2(n) / sp.norm_l2(u))

        monkeypatch.setattr(sv, "nonlinear_term", perturbed)
        assert dg.check_enstrophy_miracle(r) > 1e-6

    def test_rejects_divergent_r(self, domain2d, rng):
        r = sp.proj_r(sp.proj_p(sp.random_field(domain2d, rng)))
        with pytest.raises(ValueError, match="r must be divergence-free"):
            dg.check_enstrophy_miracle(r)

    def test_transport_rejects_divergent_r(self, domain2d, rng):
        r = sp.proj_r(sp.proj_p(sp.random_field(domain2d, rng)))
        s_field = sp.proj_s(sp.proj_p(sp.random_field(domain2d, rng)))
        with pytest.raises(ValueError, match="r must be divergence-free"):
            dg.s_transport_residual(r, s_field)


class TestDiffInequalities:
    def test_series_too_short(self, series_of, small_domain, rng):
        fields = [sp.random_field(small_domain, rng) for _ in range(4)]
        s = series_of(fields, np.arange(4.0))
        with pytest.raises(ValueError, match="too short"):
            dg.check_diff_inequalities(s, eps=0.125, regime="planar")

    def test_shared_fit_needs_a_trajectory(self):
        with pytest.raises(ValueError, match="no trajectories supplied"):
            dg.fit_shared_constants([], eps=0.125, regime="planar")

    def test_unknown_regime(self, series_of, small_domain, rng):
        fields = [sp.random_field(small_domain, rng) for _ in range(6)]
        s = series_of(fields, np.arange(6.0))
        with pytest.raises(ValueError, match="regime"):
            dg.check_diff_inequalities(s, eps=0.125, regime="vertical")

    def test_single_mode_decay_recovers_rate(self):
        """Unforced single-mode run: fitted energy damping equals the exact
        ratio 2 nu (2 pi |k|)^2 theta^2/(phi^2+psi^2), here just 2 nu."""
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.2, nu=0.005, n1=4, n2=4, n3=1)
        c = np.zeros((3,) + d.shape, complex)
        c[1, d.n1 + 1, d.n2, d.n3] = 0.05
        c[1, d.n1 - 1, d.n2, d.n3] = 0.05
        u0 = sp.SpectralField(d, c)
        cfg = sv.SolverConfig(dt=5e-4, t_end=0.5, scheme="etd-rk4", diag_stride=1)
        series = sv.run(u0, None, cfg).series
        reports = dg.check_diff_inequalities(series, eps=d.eps, regime="planar", slack_rel=1e-8)
        by_name = {r.name: r for r in reports}
        energy = by_name["planar-energy"]
        assert energy.passed
        assert energy.fitted_constants["damping"] == pytest.approx(2 * d.nu, rel=1e-4)
        assert energy.residual_max <= energy.slack

    def test_lp_failure_is_numerical_error(self, monkeypatch):
        failed = SimpleNamespace(success=False, message="solver status 4", x=None)
        monkeypatch.setattr(dg, "linprog", lambda *args, **kwargs: failed)
        with pytest.raises(dg.NumericalError, match="constant fit LP failed"):
            dg._fit_chebyshev(np.ones(6), {"damping": -np.ones(6)}, {"damping": (0.0, 1e9)})

    def test_rising_phi_at_zero_forcing_fails(self, rising_planar_series):
        """No nonnegative constants bound a rising phi^2 at F = 0: the zero-residual
        fit is infeasible, the Chebyshev fit's residual exceeds the slack."""
        series, _ = rising_planar_series
        reports = dg.check_diff_inequalities(series, eps=0.125, regime="planar")
        phi = {r.name: r for r in reports}["planar-phi"]
        assert phi.verdict == "fail" and not phi.passed
        assert phi.residual_max > phi.slack

    def test_zero_trajectory_trivially_passes(self, series_of, small_domain):
        fields = [sp.SpectralField.zeros(small_domain)] * 8
        s = series_of(fields, np.linspace(0, 1, 8))
        for regime in dg.REGIMES:
            for r in dg.check_diff_inequalities(s, eps=0.125, regime=regime):
                assert r.passed
                assert r.residual_max == 0.0

    def test_small_data_run_all_regimes(self):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=8, n2=8, n3=2)
        u0 = sv.make_initial(d, "q-perturbed", u_target=0.08, seed=13)
        prof = sv.make_initial(d, "z-independent", u_target=1.0, seed=12)
        f = sv.ForcingSpec.steady(prof, amplitude=0.05)
        cfg = sv.SolverConfig(dt=1e-3, t_end=0.4, scheme="etd-rk2", diag_stride=2)
        series = sv.run(u0, f, cfg).series
        for regime in dg.REGIMES:
            reports = dg.check_diff_inequalities(series, eps=d.eps, regime=regime)
            for r in reports:
                assert r.passed, f"{regime}/{r.name}: {r.residual_max} > {r.slack}"
                assert all(v >= 0 for v in r.fitted_constants.values())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_planar_run_passes_split_shear_at_one_vertical_mode(self, seed):
        """With n3 = 1 the shear energy phi^2 - phi_2d^2 of a planar run is
        pure roundoff of phi^2; its slack must be scaled to phi^2."""
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=4, n2=4, n3=1)
        u0 = sv.make_initial(d, "z-independent", u_target=0.08, seed=seed)
        prof = sv.make_initial(d, "z-independent", u_target=1.0, seed=seed + 100)
        f = sv.ForcingSpec.steady(prof, amplitude=0.02)
        cfg = sv.SolverConfig(dt=0.002, t_end=0.04, scheme="etd-rk2", diag_stride=1)
        series = sv.run(u0, f, cfg).series
        for regime in dg.REGIMES:
            for r in dg.check_diff_inequalities(series, eps=d.eps, regime=regime):
                assert r.passed, f"{regime}/{r.name}: {r.residual_max} > {r.slack}"

    def test_term_peaks_reported(self):
        """The psi inequality's coupling term magnitudes appear per term."""
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=6, n2=6, n3=1)
        u0 = sv.make_initial(d, "z-independent", u_target=0.09, seed=3)
        cfg = sv.SolverConfig(dt=1e-3, t_end=0.3, scheme="etd-rk2", diag_stride=2)
        series = sv.run(u0, None, cfg).series
        reports = dg.check_diff_inequalities(series, eps=d.eps, regime="planar")
        psi = {r.name: r for r in reports}["planar-psi"]
        assert set(psi.term_peaks) == {"damping", "coupling", "source"}
        assert all(v >= 0 for v in psi.term_peaks.values())

    def test_shared_constants_across_trajectories(self):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=6, n2=6, n3=1)
        cfg = sv.SolverConfig(dt=1e-3, t_end=0.2, scheme="etd-rk2", diag_stride=2)
        series_list = [
            sv.run(sv.make_initial(d, "z-independent", u_target=0.08, seed=s), None, cfg).series
            for s in (1, 2, 3)
        ]
        reports = dg.fit_shared_constants(series_list, eps=d.eps, regime="planar")
        for r in reports:
            assert r.trajectory_id == "shared"
            assert r.passed

    def test_bounds_respected(self):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=6, n2=6, n3=1)
        u0 = sv.make_initial(d, "z-independent", u_target=0.08, seed=3)
        cfg = sv.SolverConfig(dt=1e-3, t_end=0.2, scheme="etd-rk2", diag_stride=2)
        series = sv.run(u0, None, cfg).series
        reports = dg.check_diff_inequalities(
            series, eps=d.eps, regime="planar", bounds={"damping": (0.5, 1.5)}
        )
        for r in reports:
            if "damping" in r.fitted_constants:
                assert 0.5 <= r.fitted_constants["damping"] <= 1.5

    def test_residual_trace_csv(self, tmp_path):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=6, n2=6, n3=1)
        u0 = sv.make_initial(d, "z-independent", u_target=0.08, seed=3)
        cfg = sv.SolverConfig(dt=1e-3, t_end=0.2, scheme="etd-rk2", diag_stride=2)
        series = sv.run(u0, None, cfg).series
        reports = dg.check_diff_inequalities(series, eps=d.eps, regime="planar")
        path = tmp_path / "traces.csv"
        dg.write_residual_traces(reports, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,planar-phi,planar-psi,planar-energy"
        assert len(lines) == len(series) + 1


class TestEnergyIdentityHelper:
    def test_residuals_close_on_unforced_run(self):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.2, nu=0.02, n1=6, n2=6, n3=2)
        u0 = sv.make_initial(d, "random-divfree", u_target=0.3, seed=3)
        cfg = sv.SolverConfig(dt=5e-4, t_end=0.03, scheme="etd-rk4", diag_stride=1)
        series = sv.run(u0, None, cfg).series
        mids, residual, scale = dg.energy_identity_residuals(series, d.nu)
        assert len(mids) == (len(series) - 1) // 2
        assert np.all(residual <= 1e-6 * scale)

    def test_short_series_rejected(self, series_of, small_domain):
        series = series_of([sp.SpectralField.zeros(small_domain)] * 2, [0.0, 1.0])
        with pytest.raises(ValueError, match="3 samples"):
            dg.energy_identity_residuals(series, 1.0)


class TestDerivativeEstimate:
    def test_matches_exact_energy_budget(self):
        """Finite-difference d(theta^2)/dt vs the exact instantaneous budget."""
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.2, nu=0.01, n1=6, n2=6, n3=2)
        u0 = sv.make_initial(d, "random-divfree", u_target=0.2, seed=6)
        prof = sv.make_initial(d, "random-divfree", u_target=1.0, seed=7)
        forcing = sv.ForcingSpec.steady(prof, amplitude=0.01)
        cfg = sv.SolverConfig(dt=2e-4, t_end=0.02, scheme="etd-rk4", diag_stride=1)
        states = [sv.RunState(u=u0, t=0.0, step=0)]
        n_steps = 100
        for _ in range(n_steps):
            states.append(sv.step(states[-1], forcing, cfg))
        times = np.array([s.t for s in states])
        theta2 = np.array([sp.norm_l2(s.u) ** 2 for s in states])
        est = np.gradient(theta2, times, edge_order=2)
        exact = np.array(
            [dg.energy_budget(s.u, forcing.value(s.t)) for s in states]
        )
        rel = np.abs(est - exact) / np.max(np.abs(exact))
        # interior points: second-order stencil at this dt resolves 1e-4
        assert np.max(rel[2:-2]) <= 1e-4


class TestRegularityBounds:
    def test_unforced_tail_consistent_with_zero_rhs(self):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=6, n2=6, n3=2)
        u0 = sv.make_initial(d, "random-divfree", u_target=0.1, seed=5)
        cfg = sv.SolverConfig(dt=1e-3, t_end=0.5, scheme="etd-rk2", diag_stride=5)
        series = sv.run(u0, None, cfg).series
        rep = dg.evaluate_regularity_bounds(
            series, U=0.1, F=0.0, l1=1.0, l2=1.0, nu=1.0, eps=d.eps
        )
        assert rep.rhs_tail == 0.0
        assert rep.c_tail is None
        assert rep.tail_sup_h1 <= 1e-3  # decayed to the F = 0 floor
        assert rep.c_uniform >= 1.0 - 1e-12  # sup includes the initial datum
        assert np.isfinite(rep.h2_sq_integral)

    def test_m_default(self):
        times = np.linspace(0, 1, 6)
        ones = np.ones(6)
        series = dg.DiagnosticSeries(*([times] + [ones] * 13))
        rep = dg.evaluate_regularity_bounds(
            series, U=0.2, F=0.3, l1=2.0, l2=1.0, nu=0.5, eps=0.1
        )
        assert rep.M == pytest.approx(max(0.2, (2.0 / 0.5) * 0.3))

    def test_eps_sweep_keeps_prefactor_bounded(self):
        """Shrinking eps at fixed data size never inflates the admissible
        prefactor of the uniform H1 bound (its right side only grows)."""
        prefactors = []
        for eps in (0.125, 0.0625, 0.03125):
            d = sp.DomainSpec(l1=1.0, l2=1.0, eps=eps, nu=1.0, n1=6, n2=6, n3=2)
            u0 = sv.make_initial(d, "q-perturbed", u_target=0.1, seed=77, q_fraction=0.1)
            cfg = sv.SolverConfig(dt=1e-3, t_end=0.2, scheme="etd-rk2", diag_stride=5)
            series = sv.run(u0, None, cfg).series
            rep = dg.evaluate_regularity_bounds(
                series, U=0.1, F=0.0, l1=1.0, l2=1.0, nu=1.0, eps=eps
            )
            prefactors.append(rep.c_uniform)
        assert all(np.isfinite(c) for c in prefactors)
        assert max(prefactors) <= prefactors[0] * (1 + 1e-9)

    def test_blowup_vacuous(self):
        times = np.linspace(0, 1, 6)
        ones = np.ones(6)
        series = dg.DiagnosticSeries(*([times] + [ones] * 13))
        rep = dg.evaluate_regularity_bounds(
            series, U=1.0, F=0.0, l1=1.0, l2=1.0, nu=1.0, eps=0.1,
            blowup={"time": 0.5, "step": 3, "max_coeff": 1e13},
        )
        assert rep.vacuous
        assert "vacuous" in rep.message
        assert rep.c_uniform is None
