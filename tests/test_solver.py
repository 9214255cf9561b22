"""Tests for time integration: exact decay, order, conservation, layout."""

import math
import os
import tracemalloc

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

    @pytest.mark.parametrize(
        "n_steps,stride,diag",
        [(24, 12, 1), (10, 4, 1), (10, 0, 1), (20, 5, 2)],
        ids=["divides", "leaves-rest", "final-only", "unsampled-steps"],
    )
    def test_checkpoints_written(self, tmp_path, n_steps, stride, diag):
        """Each state is written once: the stride multiples before the last step,
        sampled for diagnostics or not, then the final state as run_final.ckpt,
        whatever the stride."""
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.2, nu=1.0, n1=4, n2=4, n3=1)
        u0 = single_mode_field(d)
        cfg = sv.SolverConfig(
            dt=1e-3, t_end=n_steps * 1e-3, scheme="etd-rk2", checkpoint_stride=stride,
            diag_stride=diag,
        )
        res = sv.run(u0, None, cfg, out_dir=str(tmp_path))
        assert res.io_error is None
        assert sorted(p.name for p in tmp_path.glob("*.ckpt")) == sorted(
            os.path.basename(p) for p in res.checkpoints
        )
        strided = range(0, n_steps, stride) if stride else []
        steps = [sp.load_checkpoint(p)[1]["step"] for p in res.checkpoints]
        assert steps == [*strided, n_steps]
        assert [os.path.basename(p) for p in res.checkpoints] == [
            *(f"run_step{n:08d}.ckpt" for n in strided), "run_final.ckpt"
        ]
        final = res.final_state
        fresh = tmp_path / "fresh.bin"
        sp.save_checkpoint(final.u, fresh, time=final.t, step=final.step)
        assert final.step == n_steps
        assert (tmp_path / "run_final.ckpt").read_bytes() == fresh.read_bytes()


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

    def test_cfl_estimate_matches_summed_squares(self):
        """The in-place |u|^2 gives the same bits as summing the squares over components."""
        d = sp.DomainSpec(l1=1.5, l2=1.0, eps=0.1, nu=1.0, n1=6, n2=4, n3=3)
        grid = sp.default_grid(d)
        for kind in ("random-divfree", "q-perturbed", "z-independent"):
            u = sv.make_initial(d, kind, u_target=1.0, seed=4)
            phys = sp.to_physical(u)
            vmax = float(np.sqrt(np.max(np.sum(phys**2, axis=0))))
            h = min(d.l1 / grid[0], d.l2 / grid[1], d.eps / grid[2])
            assert sv.cfl_estimate(u) == 0.5 * h / vmax, kind

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
        with pytest.raises(ValueError, match="checkpoint_stride"):
            sv.SolverConfig(dt=1e-3, t_end=1.0, checkpoint_stride=-5)

    def test_blowup_report_sums_the_full_box(self, rng):
        """With NaN and +-inf injected, the report read off the half box equals the
        one read off the full box, bit for bit."""
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.2, nu=1.0, n1=5, n2=4, n3=2)
        half = sp.random_field(d, rng).half.copy()
        half[0, 1, 2, 0] = np.nan
        half[1, 3, 0, 1] = complex(np.inf, 1.0)
        half[2, 0, 4, 2] = complex(0.5, -np.inf)
        u = sp.SpectralField._wrap(d, half)
        with pytest.raises(sv.BlowUpError) as info:
            sv._check_blowup(u, 0.25, 3)
        coeffs = u.coeffs
        finite = np.nan_to_num(coeffs, nan=0.0, posinf=0.0, neginf=0.0)
        report = info.value.report
        assert report["l2_of_finite_part"] == float(np.sqrt(np.sum(np.abs(finite) ** 2)))
        assert report["n_nonfinite"] == int(np.size(coeffs) - np.count_nonzero(np.isfinite(coeffs)))
        assert report["n_nonfinite"] == 5


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
            a = f.amplitude_at(t)
            # the stepper's forcing term: the p >= 0 half box of the profile times a
            assert np.array_equal(f._raw(t), f.profile.coeffs[..., d.n3 :] * a)
            assert np.array_equal(f.value(t).coeffs, f.profile.coeffs * a)

    def test_modulation_validation(self):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=2, n2=2, n3=1)
        with pytest.raises(ValueError, match="omega"):
            sv.ForcingSpec.sinusoidal(sp.SpectralField.zeros(d), omega=0.0)
        with pytest.raises(ValueError, match="omega"):
            sv.ForcingSpec(sp.SpectralField.zeros(d), amplitude=1.0, omega=-1.0)


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


class TestHalfBoxLayout:
    def test_run_never_builds_the_full_box(self, monkeypatch, tmp_path):
        """Steps, diagnostics and forcing work on the stored half box; only a
        checkpoint mirrors it, one component at a time, so the full box of
        all three components is never built."""
        mirror = sp._mirror
        built = []

        def counting(half, nd=3):
            if nd == 3:  # the planar slab path mirrors a 2D slab, not a box
                built.append(half.shape)
            return mirror(half, nd)

        monkeypatch.setattr(sp, "_mirror", counting)
        monkeypatch.setattr(sv, "_mirror", counting, raising=False)  # a solver-local import too
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=4, n2=4, n3=1)
        profile = sv.make_initial(d, "z-independent", u_target=1.0, seed=2)
        forcing = sv.ForcingSpec.steady(profile, amplitude=0.02)
        for kind in ("q-perturbed", "z-independent"):
            u0 = sv.make_initial(d, kind, u_target=0.1, seed=1)
            for scheme in sv.SCHEMES:
                built.clear()
                res = sv.run(u0, forcing, sv.SolverConfig(dt=1e-3, t_end=5e-3, scheme=scheme))
                assert res.final_state is not None
                assert built == [], (kind, scheme)
        built.clear()
        cfg = sv.SolverConfig(dt=1e-3, t_end=6e-3, checkpoint_stride=2)
        res = sv.run(u0, forcing, cfg, out_dir=tmp_path)
        assert len(res.checkpoints) == 4
        assert built == [(1,) + d.shape[:2] + (d.n3 + 1,)] * (3 * len(res.checkpoints))


def _held_stage_advance(st, coeffs, t, forcing):
    """The stage formulas with every stage value held in a local, as written before the
    stages were passed straight into the nonlinear term."""
    def nl(c, s):
        return sv._nonlinear_raw(c, st.spec, st.grid, forcing._raw(s) if forcing else None)

    dt = st.dt
    if st.scheme == "etd-rk2":
        n0 = nl(coeffs, t)
        mid = st.E * coeffs + st.p1 * n0
        n1 = nl(mid, t + dt)
        return mid + st.p2 * (n1 - n0)
    if st.scheme == "etd-rk4":
        n0 = nl(coeffs, t)
        a = st.E2 * coeffs + st.Q * n0
        na = nl(a, t + dt / 2)
        b = st.E2 * coeffs + st.Q * na
        nb = nl(b, t + dt / 2)
        c = st.E2 * a + st.Q * (2.0 * nb - n0)
        nc = nl(c, t + dt)
        return st.E * coeffs + st.f1 * n0 + 2.0 * st.f2 * (na + nb) + st.f3 * nc
    n0 = nl(coeffs, t)
    pred = st.cn_den * (st.cn_num * coeffs + dt * n0)
    n1 = nl(pred, t + dt)
    return st.cn_den * (st.cn_num * coeffs + 0.5 * dt * (n0 + n1))


@pytest.mark.parametrize("modes", [(6, 5, 3), (32, 32, 8)])
def test_advance_equals_held_stage_formulas(modes):
    """advance re-forms a stage value instead of holding it, with the same bits, for
    every scheme, unforced and with time-dependent forcing."""
    d = sp.DomainSpec(l1=1.5, l2=1.0, eps=0.2, nu=0.05, n1=modes[0], n2=modes[1], n3=modes[2])
    u = sv.make_initial(d, "q-perturbed", u_target=1.0, seed=5)
    profile = sv.make_initial(d, "random-divfree", u_target=1.0, seed=6)
    for scheme in sv.SCHEMES:
        st = sv._Stepper(d, 1e-3, scheme)
        for forcing in (None, sv.ForcingSpec.sinusoidal(profile, 3.0, 0.5, 0.2)):
            got = st.advance(u.half, 0.3, forcing)
            assert np.array_equal(got, _held_stage_advance(st, u.half, 0.3, forcing)), scheme


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStepMemory:
    """At (32,32,8), the box32 benchmark's box, on a 98x98x27 product grid."""

    d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=32, n2=32, n3=8)

    def test_nonlinear_term_streams_the_products(self):
        """One nonlinear_term peaks below 2x the velocity samples' bytes (12.4 MB): the
        products are formed and analysed one at a time by blocks of x rows, and no
        full-grid product or product stack is held."""
        grid = sp.default_grid(self.d)
        assert grid == (98, 98, 27)
        u = sv.make_initial(self.d, "q-perturbed", u_target=1.0, seed=501)
        assert _traced_peak(lambda: sv.nonlinear_term(u)) < 2 * (3 * math.prod(grid) * 8)

    def test_etd_rk2_advance_peak(self):
        """One etd-rk2 advance peaks at 12.5 MB, below 13.5 MB: beside the input and n0 it
        holds one streamed nonlinear evaluation at a time, and the stage value is freed
        once synthesized.  Holding it again adds a 1.8 MB half box (14.3 MB)."""
        u = sv.make_initial(self.d, "q-perturbed", u_target=1.0, seed=501)
        stepper = sv._Stepper(self.d, 5e-4, "etd-rk2")
        assert _traced_peak(lambda: stepper.advance(u.half, 0.0, None)) < 13.5e6

    def test_stepper_weights_per_distinct_z(self):
        """Building the etd-rk2 factors peaks below 10 MB: the contour integrands run on
        the distinct values of z, not on every mode's 32 contour points."""
        assert _traced_peak(lambda: sv._Stepper(self.d, 5e-4, "etd-rk2")) < 10e6
