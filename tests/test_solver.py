"""Tests for time integration: exact decay, order, conservation, reductions."""

import math

import numpy as np
import pytest

from thinflow import solver as sv
from thinflow import spectral as sp


def single_mode_field(domain: sp.DomainSpec, amplitude: float = 0.1) -> sp.SpectralField:
    """u = (0, a cos(2 pi x / l1), 0): divergence-free, advection-free."""
    c = np.zeros((3,) + domain.shape, complex)
    c[1, domain.n1 + 1, domain.n2, domain.n3] = amplitude / 2
    c[1, domain.n1 - 1, domain.n2, domain.n3] = amplitude / 2
    return sp.SpectralField(domain, c)


@pytest.fixture
def decay_domain():
    return sp.DomainSpec(l1=1.0, l2=1.0, eps=0.2, nu=1.0, n1=4, n2=4, n3=1)


class TestNonlinearTerm:
    def test_zero_for_single_mode(self, decay_domain):
        u = single_mode_field(decay_domain)
        nl = sv.nonlinear_term(u)
        assert np.max(np.abs(nl.coeffs)) <= 1e-15

    def test_zero_field(self, decay_domain):
        nl = sv.nonlinear_term(sp.SpectralField.zeros(decay_domain))
        assert sp.norm_l2(nl) == 0.0

    def test_energy_neutrality(self, rng):
        """<u, L(u . grad u)> = 0 on dealiased products."""
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.2, nu=1.0, n1=6, n2=6, n3=2)
        for _ in range(5):
            u = sp.leray(sp.random_field(d, rng, slope=-1.0))
            nl = sv.nonlinear_term(u)
            ip = sp.inner_l2(u, nl)
            scale = sp.norm_l2(u) ** 2 * sp.norm_ds(u, 1.0)
            assert abs(ip) <= 1e-10 * max(scale, 1e-300)

    def test_rejects_non_divergence_free(self, decay_domain, rng):
        with pytest.raises(ValueError, match="divergence-free"):
            sv.nonlinear_term(sp.random_field(decay_domain, rng))

    def test_result_divergence_free_and_mean_zero(self, rng):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.2, nu=1.0, n1=6, n2=6, n3=2)
        u = sp.leray(sp.random_field(d, rng, slope=-1.0))
        nl = sv.nonlinear_term(u)
        assert sp.divergence_defect(nl) <= 1e-12
        assert nl.coeffs[0, d.n1, d.n2, d.n3] == 0.0


class TestStepDecay:
    @pytest.mark.parametrize("scheme,tol", [("etd-rk2", 1e-12), ("etd-rk4", 1e-12), ("imex-cn", 1e-2)])
    def test_single_mode_decay(self, decay_domain, scheme, tol):
        """Heat semigroup is exact for ETD; CN carries its O(dt^2) defect."""
        u0 = single_mode_field(decay_domain)
        cfg = sv.SolverConfig(dt=1e-3, t_end=1.0, scheme=scheme, diag_stride=1000)
        res = sv.run(u0, None, cfg)
        lam = decay_domain.nu * (2 * np.pi) ** 2  # |k|^2 = 1
        expected = sp.norm_l2(u0) * math.exp(-lam)
        got = res.series.theta[-1]
        assert abs(got - expected) / expected <= tol

    def test_zero_stays_zero(self, decay_domain):
        cfg = sv.SolverConfig(dt=1e-2, t_end=0.1, scheme="etd-rk2")
        res = sv.run(sp.SpectralField.zeros(decay_domain), None, cfg)
        assert res.series.theta[-1] == 0.0

    @pytest.mark.parametrize("scheme,order", [("etd-rk2", 2), ("etd-rk4", 4), ("imex-cn", 2)])
    def test_convergence_order(self, scheme, order):
        """Richardson self-comparison: err(dt) = ||u_dt - u_{dt/2}|| ~ dt^order."""
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.2, nu=0.02, n1=6, n2=6, n3=2)
        u0 = sv.make_initial(d, "random-divfree", u_target=0.5, seed=42)

        def final(dt):
            cfg = sv.SolverConfig(dt=dt, t_end=0.25, scheme=scheme, diag_stride=10**9)
            return sv.run(u0, None, cfg).final_state.u

        dts = [8e-3, 4e-3, 2e-3]
        fields = {dt: final(dt) for dt in dts + [1e-3]}
        errs = [sp.norm_l2(fields[dt] - fields[dt / 2]) for dt in dts]
        slopes = np.diff(np.log(errs)) / np.diff(np.log(dts))
        for s in slopes:
            assert abs(s - order) <= 0.2, f"{scheme}: slope {s} vs order {order}"

    def test_fractional_final_step_hits_t_end(self, decay_domain):
        u0 = single_mode_field(decay_domain)
        cfg = sv.SolverConfig(dt=3e-3, t_end=0.01, scheme="etd-rk2")
        res = sv.run(u0, None, cfg)
        assert res.series.times[-1] == pytest.approx(0.01, abs=1e-12)
        lam = decay_domain.nu * (2 * np.pi) ** 2
        expected = sp.norm_l2(u0) * math.exp(-lam * 0.01)
        assert res.series.theta[-1] == pytest.approx(expected, rel=1e-10)


class TestRunInvariants:
    def test_energy_identity_unforced(self):
        """Simpson residual of d(theta^2)/dt + 2 nu ||Du||^2 per step pair."""
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.2, nu=0.02, n1=6, n2=6, n3=2)
        u0 = sv.make_initial(d, "random-divfree", u_target=0.3, seed=3)
        cfg = sv.SolverConfig(dt=5e-4, t_end=0.05, scheme="etd-rk4", diag_stride=1)
        s = sv.run(u0, None, cfg).series
        th2 = s.theta**2
        du2 = s.h1**2 - s.theta**2
        i = np.arange(0, len(s.times) - 2, 2)
        h = s.times[i + 2] - s.times[i]
        lhs = (th2[i + 2] - th2[i]) / h
        avg = (du2[i] + 4 * du2[i + 1] + du2[i + 2]) / 6.0
        resid = np.abs(lhs + 2 * d.nu * avg)
        assert np.all(resid <= 1e-6 * d.nu * avg)

    def test_unforced_theta_monotone(self):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=6, n2=6, n3=2)
        u0 = sv.make_initial(d, "random-divfree", u_target=0.2, seed=9)
        cfg = sv.SolverConfig(dt=1e-3, t_end=0.2, scheme="etd-rk2", diag_stride=5)
        s = sv.run(u0, None, cfg).series
        assert np.all(np.diff(s.theta) <= 1e-14)

    def test_planar_closure(self):
        """z-independent data and forcing stay z-independent."""
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=8, n2=8, n3=2)
        u0 = sv.make_initial(d, "z-independent", u_target=0.3, seed=7)
        prof = sv.make_initial(d, "z-independent", u_target=1.0, seed=8)
        f = sv.ForcingSpec.steady(prof, amplitude=0.05)
        cfg = sv.SolverConfig(dt=2e-3, t_end=0.5, scheme="etd-rk2", diag_stride=25)
        res = sv.run(u0, f, cfg)
        q = sp.proj_q(res.final_state.u)
        assert sp.h1_norm(q) <= 1e-10 * sp.h1_norm(res.final_state.u)
        assert np.all(res.series.chi <= 1e-10 * res.series.h1)

    def test_divergence_preserved(self):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=0.05, n1=6, n2=6, n3=2)
        u0 = sv.make_initial(d, "q-perturbed", u_target=0.3, seed=4)
        cfg = sv.SolverConfig(dt=1e-3, t_end=0.1, scheme="etd-rk2", diag_stride=10)
        res = sv.run(u0, None, cfg)
        assert sp.divergence_defect(res.final_state.u) <= 1e-10

    def test_galerkin_self_consistency(self):
        """A coarse-cutoff run is deterministic and solves its own system.

        Reproducibility: identical inputs give identical coefficients.
        Consistency: against a dt/20 reference the one-step defect drops at
        the scheme's order, i.e. the coarse trajectory is the exact flow of
        the truncated system up to time discretization.
        """
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.2, nu=0.05, n1=8, n2=8, n3=2)
        coarse = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.2, nu=0.05, n1=4, n2=4, n3=1)
        u0 = sv.make_initial(d, "random-divfree", u_target=0.3, seed=5)
        u0c = sp.truncate(u0, coarse)
        cfg = sv.SolverConfig(dt=2e-3, t_end=0.05, scheme="etd-rk2", diag_stride=5)
        res1 = sv.run(u0c, None, cfg)
        res2 = sv.run(u0c, None, cfg)
        np.testing.assert_array_equal(
            res1.final_state.u.coeffs, res2.final_state.u.coeffs
        )
        ref_cfg = sv.SolverConfig(dt=1e-4, t_end=0.05, scheme="etd-rk2", diag_stride=10**9)
        ref = sv.run(u0c, None, ref_cfg)
        err = sp.norm_l2(res1.final_state.u - ref.final_state.u)
        assert err <= 10 * (2e-3) ** 2 * sp.norm_l2(u0c)

    def test_checkpoint_write_failure_preserves_results(self):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.2, nu=1.0, n1=4, n2=4, n3=1)
        u0 = single_mode_field(d)
        cfg = sv.SolverConfig(dt=1e-3, t_end=0.01, scheme="etd-rk2", checkpoint_stride=5)
        res = sv.run(u0, None, cfg, out_dir="/nonexistent/thinflow-ckpt-dir")
        assert res.io_error is not None
        assert "checkpoint write failed" in res.io_error
        assert res.final_state is not None
        assert len(res.series) > 1  # the run itself completed

    def test_checkpoints_written(self, tmp_path):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.2, nu=1.0, n1=4, n2=4, n3=1)
        u0 = single_mode_field(d)
        cfg = sv.SolverConfig(dt=1e-3, t_end=0.01, scheme="etd-rk2", checkpoint_stride=5)
        res = sv.run(u0, None, cfg, out_dir=str(tmp_path))
        assert len(res.checkpoints) >= 2
        field, header = sp.load_checkpoint(res.checkpoints[-1])
        assert header["step"] == 10
        np.testing.assert_allclose(field.coeffs, res.final_state.u.coeffs, atol=0)


class TestGuards:
    def test_cfl_rejects_large_dt(self):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=6, n2=6, n3=2)
        u0 = sv.make_initial(d, "random-divfree", u_target=1.0, seed=1)
        bound = sv.cfl_estimate(u0)
        cfg = sv.SolverConfig(dt=10 * bound, t_end=1.0)
        with pytest.raises(ValueError, match="advective bound"):
            sv.run(u0, None, cfg)

    def test_cfl_estimate_zero_field(self, decay_domain):
        assert sv.cfl_estimate(sp.SpectralField.zeros(decay_domain)) == np.inf

    def test_blowup_detected_with_forensics(self):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.2, nu=1e-6, n1=6, n2=6, n3=2)
        u0 = sv.make_initial(d, "random-divfree", u_target=50.0, seed=2)
        cfg = sv.SolverConfig(
            dt=0.5, t_end=50.0, scheme="etd-rk2", enforce_cfl=False, diag_stride=1
        )
        res = sv.run(u0, None, cfg)
        assert res.blew_up
        assert res.final_state is None
        assert {"time", "step", "max_coeff"} <= set(res.blowup)
        assert len(res.series) >= 1  # partial diagnostics preserved

    def test_config_validation(self):
        with pytest.raises(ValueError, match="dt"):
            sv.SolverConfig(dt=0.0, t_end=1.0)
        with pytest.raises(ValueError, match="scheme"):
            sv.SolverConfig(dt=1e-3, t_end=1.0, scheme="euler")
        with pytest.raises(ValueError, match="diag_stride"):
            sv.SolverConfig(dt=1e-3, t_end=1.0, diag_stride=0)


class TestForcing:
    def test_profile_projected_and_bounded(self, rng):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=6, n2=6, n3=2)
        raw = sp.random_field(d, rng)
        f = sv.ForcingSpec.steady(raw, amplitude=0.3)
        assert sp.divergence_defect(f.profile) <= 1e-12
        assert f.f_bound == pytest.approx(0.3 * sp.norm_l2(f.profile), rel=1e-14)
        for t in (0.0, 0.7, 2.0):
            assert sp.norm_l2(f.value(t)) <= f.f_bound * (1 + 1e-12)

    def test_sinusoidal_modulation(self, rng):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=4, n2=4, n3=1)
        prof = sp.leray(sp.random_field(d, rng))
        f = sv.ForcingSpec.sinusoidal(prof, omega=3.0, amplitude=0.2)
        t = 0.4
        assert f.l2_at(t) == pytest.approx(
            0.2 * abs(math.sin(3.0 * t)) * sp.norm_l2(f.profile), rel=1e-12
        )
        assert f.f_bound == pytest.approx(0.2 * sp.norm_l2(f.profile), rel=1e-12)

    def test_evaluation_does_not_reproject(self, rng):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=4, n2=4, n3=1)
        f = sv.ForcingSpec.sinusoidal(sp.random_field(d, rng), omega=2.0, amplitude=0.5)
        assert f._raw(0.0) is None  # sin(0) = 0: no forcing term at all
        for t in (0.3, 1.1):
            a = f.modulation.value(t)
            # the stepper's forcing term: the p >= 0 half box of the profile times a
            assert np.array_equal(f._raw(t), f.profile.coeffs[..., d.n3 :] * a)
            assert np.array_equal(f.value(t).coeffs, f.profile.coeffs * a)

    def test_modulation_validation(self):
        with pytest.raises(ValueError, match="omega"):
            sv.Modulation(kind="sin", omega=0.0)
        with pytest.raises(ValueError, match="kind"):
            sv.Modulation(kind="ramp")


class TestMakeInitial:
    @pytest.mark.parametrize(
        "kind", ["random-divfree", "z-independent", "q-perturbed", "taylor-green-like"]
    )
    def test_contract(self, kind):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=6, n2=6, n3=2)
        u = sv.make_initial(d, kind, u_target=0.3, seed=11)
        assert sp.h1_norm(u) == pytest.approx(0.3, abs=1e-10)
        assert sp.divergence_defect(u) <= 1e-12
        assert np.max(np.abs(u.coeffs[:, d.n1, d.n2, d.n3])) == 0.0

    def test_z_independent_has_no_q_part(self):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=6, n2=6, n3=2)
        u = sv.make_initial(d, "z-independent", u_target=0.3, seed=11)
        assert sp.norm_l2(sp.proj_q(u)) == 0.0

    def test_q_perturbed_has_q_part(self):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=6, n2=6, n3=2)
        u = sv.make_initial(d, "q-perturbed", u_target=0.3, seed=11)
        assert sp.norm_l2(sp.proj_q(u)) > 0.01 * sp.norm_l2(u)

    def test_zero_amplitude(self):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=4, n2=4, n3=1)
        u = sv.make_initial(d, "random-divfree", u_target=0.0, seed=0)
        assert sp.norm_l2(u) == 0.0

    def test_unknown_kind(self):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=4, n2=4, n3=1)
        with pytest.raises(ValueError, match="kind"):
            sv.make_initial(d, "vortex-sheet", u_target=0.1)


class TestMeanDriftReduction:
    def test_trivial_reduction(self, rng):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=4, n2=4, n3=1)
        u0 = sp.leray(sp.random_field(d, rng))
        f = sp.leray(sp.random_field(d, rng))
        red = sv.mean_drift_reduce(d, u0.coeffs, f.coeffs, sv.Modulation(kind="constant"))
        np.testing.assert_allclose(red.drift(2.0), 0.0, atol=0)
        np.testing.assert_allclose(red.u0.coeffs, u0.coeffs, atol=0)

    def test_constant_forcing_mean_gives_quadratic_drift(self, rng):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=4, n2=4, n3=1)
        f_raw = sp.leray(sp.random_field(d, rng)).coeffs.copy()
        a = 0.75
        f_raw[0, d.n1, d.n2, d.n3] = a
        u_raw = sp.leray(sp.random_field(d, rng)).coeffs
        red = sv.mean_drift_reduce(d, u_raw, f_raw, sv.Modulation(kind="constant"))
        t = 1.3
        np.testing.assert_allclose(red.drift(t), [a * t**2 / 2, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(red.mean_velocity(t), [a * t, 0.0, 0.0], atol=1e-15)
        # the reduced forcing is mean-free
        assert np.max(np.abs(red.forcing.profile.coeffs[:, d.n1, d.n2, d.n3])) == 0.0

    def test_initial_mean_gives_linear_drift(self, rng):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=4, n2=4, n3=1)
        u_raw = sp.leray(sp.random_field(d, rng)).coeffs.copy()
        u_raw[1, d.n1, d.n2, d.n3] = 0.25
        f_raw = np.zeros_like(u_raw)
        red = sv.mean_drift_reduce(d, u_raw, f_raw, sv.Modulation(kind="off"))
        np.testing.assert_allclose(red.drift(2.0), [0.0, 0.5, 0.0], atol=1e-15)

    def test_complex_mean_rejected(self, rng):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=4, n2=4, n3=1)
        u_raw = sp.leray(sp.random_field(d, rng)).coeffs.copy()
        u_raw[0, d.n1, d.n2, d.n3] = 1j
        with pytest.raises(ValueError, match="mean must be real"):
            sv.mean_drift_reduce(d, u_raw, np.zeros_like(u_raw))

    def test_reconstruction_solves_original_equation(self):
        """One-step residual of the translated-back solution in the raw frame.

        With a spatially uniform forcing mean and mean-free fluctuation, the
        reduced run plus the drift reconstruction must satisfy the original
        evolution: check d/dt u ~ RHS(u) at t via centered differences.
        """
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.2, nu=0.05, n1=6, n2=6, n3=2)
        u0 = sv.make_initial(d, "random-divfree", u_target=0.2, seed=8)
        u_raw = u0.coeffs.copy()
        u_raw[0, d.n1, d.n2, d.n3] = 0.3  # nonzero initial mean
        f_raw = np.zeros_like(u_raw)
        f_raw[1, d.n1, d.n2, d.n3] = 0.1  # purely uniform forcing
        red = sv.mean_drift_reduce(d, u_raw, f_raw, sv.Modulation(kind="constant"))

        dt = 2e-4  # the stiffest modes' decay curvature limits the stencil
        cfg = sv.SolverConfig(dt=dt, t_end=3 * dt, scheme="etd-rk4", diag_stride=1)
        states = [sv.RunState(u=red.u0, t=0.0, step=0)]
        for _ in range(3):
            states.append(sv.step(states[-1], red.forcing, cfg))

        # reconstruct at t1 and its neighbors, then compare the time
        # derivative with the right side evaluated on the reconstruction
        recon = [sv.reconstruct_unreduced(s.u, red, s.t) for s in states]
        dudt = (recon[2] - recon[0]) / (2 * dt)
        mid = recon[1]
        mean_mid = mid[:, d.n1, d.n2, d.n3].real
        fluct = mid.copy()
        fluct[:, d.n1, d.n2, d.n3] = 0.0
        u_mid = sp.SpectralField(d, fluct)
        lap = sp.deriv(u_mid, 2.0) * (-d.nu)
        # advection by the full field includes the uniform sweep mean . grad u
        k1, k2, k3 = sp.kvec_grids(d)
        sweep = 2j * np.pi * (
            k1 * mean_mid[0] + k2 * mean_mid[1] + k3 * mean_mid[2]
        ) * u_mid.coeffs
        rhs_fluct = (lap + sv.nonlinear_term(u_mid)).coeffs - sweep
        rhs = rhs_fluct.copy()
        rhs[:, d.n1, d.n2, d.n3] = f_raw[:, d.n1, d.n2, d.n3].real
        resid = np.max(np.abs(dudt - rhs))
        scale = np.max(np.abs(rhs))
        assert resid <= 5e-4 * scale  # centered-difference floor O(dt^2)

    def test_translate_phase(self, rng):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=4, n2=4, n3=1)
        f = sp.random_field(d, rng)
        shifted = sv.translate(f, (0.25, 0.0, 0.0))
        grid = (16, 14, 5)  # the shift is exactly 4 cells on this grid
        a = sp.to_physical(shifted, grid)
        b = np.roll(sp.to_physical(f, grid), -4, axis=1)
        np.testing.assert_allclose(a, b, atol=1e-12)
