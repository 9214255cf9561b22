"""Tests for the spectral core: transforms, norms, projection algebra.

Every spectral quantity is cross-checked against an independent oracle:
physical-grid quadrature for Parseval, finite differences for the derivative
multiplier, per-mode orthogonality for the projections.
"""

import struct
import tracemalloc

import numpy as np
import pytest

from thinflow import spectral as sp
from thinflow.inequalities import Field2D


def quadrature_l2(f: sp.SpectralField, grid=None) -> float:
    """Independent L2 norm: trapezoid quadrature on a uniform periodic grid."""
    if grid is None:
        grid = sp.default_grid(f.domain)
    phys = sp.to_physical(f, grid)
    return float(np.sqrt(f.domain.volume * np.mean(np.sum(phys**2, axis=0))))


class TestDomainSpec:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="l1 >= l2"):
            sp.DomainSpec(l1=1.0, l2=2.0, eps=0.1, nu=1.0, n1=2, n2=2, n3=2)
        with pytest.raises(ValueError, match="eps"):
            sp.DomainSpec(l1=1.0, l2=1.0, eps=0.25, nu=1.0, n1=2, n2=2, n3=2)
        with pytest.raises(ValueError, match="eps"):
            sp.DomainSpec(l1=1.0, l2=1.0, eps=-0.1, nu=1.0, n1=2, n2=2, n3=2)
        with pytest.raises(ValueError, match="nu"):
            sp.DomainSpec(l1=1.0, l2=1.0, eps=0.1, nu=0.0, n1=2, n2=2, n3=2)
        with pytest.raises(ValueError, match="mode counts"):
            sp.DomainSpec(l1=1.0, l2=1.0, eps=0.1, nu=1.0, n1=0, n2=2, n3=2)

    def test_shape_and_volume(self, small_domain):
        assert small_domain.shape == (9, 9, 5)
        assert small_domain.volume == pytest.approx(0.125)

    def test_min_nonzero_k(self, thin_domain):
        # smallest frequency sits on the longest axis
        assert sp.min_nonzero_k(thin_domain) == pytest.approx(1.0 / 1.5)


# the two constructors that share the checked Hermitian construction:
# (constructor, coefficient shape, number of trailing mode axes)
_HERMITIAN_BOXES = [
    (lambda c: Field2D(1.0, 1.0, 2, 3, c), (5, 7), 2),
    (
        lambda c: sp.SpectralField(
            sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=2, n2=3, n3=2), c
        ),
        (3, 5, 7, 5),
        3,
    ),
]


@pytest.mark.parametrize("make, shape, nd", _HERMITIAN_BOXES, ids=["2d", "3d"])
def test_checked_construction_is_exactly_hermitian(rng, make, shape, nd):
    axes = tuple(range(-nd, 0))
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # Hermitian up to a relative defect of about 1e-9, far inside the tolerance
    near = sp._symmetrize(raw, nd) + 1e-9 * rng.standard_normal(shape)
    before = near.copy()
    coeffs = make(near).coeffs
    assert np.array_equal(coeffs, np.conj(np.flip(coeffs, axis=axes)))
    assert np.all(coeffs[(Ellipsis,) + tuple(m // 2 for m in shape[-nd:])] == 0.0)
    assert not coeffs.flags.writeable
    assert np.array_equal(near, before)  # the input is never written
    with pytest.raises(ValueError, match="Hermitian"):
        make(near + 1e-3 * rng.standard_normal(shape))


@pytest.mark.parametrize("make, shape, nd", _HERMITIAN_BOXES, ids=["2d", "3d"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_checked_construction_rejects_non_finite(rng, make, shape, nd, bad):
    one = sp._symmetrize(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), nd)
    one[(0,) * len(shape)] = bad
    for coeffs in (one, np.full(shape, bad, dtype=complex)):
        with pytest.raises(ValueError, match="finite"):
            make(coeffs)


class TestFieldConstruction:
    def test_rejects_wrong_shape(self, small_domain):
        with pytest.raises(ValueError, match="shape"):
            sp.SpectralField(small_domain, np.zeros((3, 4, 4, 4), complex))

    def test_rejects_non_hermitian(self, small_domain, rng):
        raw = rng.standard_normal((3,) + small_domain.shape) + 1j
        with pytest.raises(ValueError, match="Hermitian"):
            sp.SpectralField(small_domain, raw)

    def test_zero_mode_pinned(self, small_domain, rng):
        f = sp.random_field(small_domain, rng)
        n = small_domain
        assert f.coeffs[0, n.n1, n.n2, n.n3] == 0.0

    def test_coeffs_read_only(self, small_domain, rng):
        f = sp.random_field(small_domain, rng)
        with pytest.raises(ValueError):
            f.coeffs[0, 0, 0, 0] = 1.0
        with pytest.raises(AttributeError):
            f.domain = small_domain

    def test_arithmetic_preserves_hermitian(self, small_domain, rng):
        f = sp.random_field(small_domain, rng)
        g = sp.random_field(small_domain, rng)
        h = 2.0 * f - g + f * 0.5
        flipped = np.conj(np.flip(h.coeffs, axis=(1, 2, 3)))
        np.testing.assert_allclose(h.coeffs, flipped, atol=1e-14)

    @pytest.mark.parametrize("shape", [(3, 9, 7, 5), (5, 3), (2, 7, 9)])
    def test_hermitian_half_is_the_symmetrized_half(self, shape, rng):
        """_hermitian_half forms, bit for bit, the last-axis n >= 0 half of _symmetrize."""
        nd = 3 if len(shape) == 4 else 2
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        n = shape[-1] // 2
        want = sp._symmetrize(raw, nd)[..., n:]
        assert sp._hermitian_half(raw, nd).tobytes() == want.tobytes()


class TestTransforms:
    def test_single_mode_is_cosine(self, small_domain):
        d = small_domain
        c = np.zeros((3,) + d.shape, complex)
        c[0, d.n1 + 1, d.n2, d.n3] = 0.5
        c[0, d.n1 - 1, d.n2, d.n3] = 0.5
        f = sp.SpectralField(d, c)
        grid = (12, 9, 5)
        phys = sp.to_physical(f, grid)
        x, _, _ = sp.grid_coords(d, grid)
        expected = np.broadcast_to(
            np.cos(2 * np.pi * x / d.l1)[:, None, None], grid
        )
        np.testing.assert_allclose(phys[0], expected, atol=1e-14)
        assert np.max(np.abs(phys[1:])) == 0.0

    def test_zero_field_zero_samples(self, small_domain):
        phys = sp.to_physical(sp.SpectralField.zeros(small_domain))
        assert np.max(np.abs(phys)) == 0.0

    def test_round_trip_random(self, small_domain, rng):
        f = sp.random_field(small_domain, rng)
        g = sp.to_spectral(sp.to_physical(f), small_domain)
        err = np.max(np.abs(g.coeffs - f.coeffs)) / np.max(np.abs(f.coeffs))
        assert err <= 1e-12

    def test_grid_smaller_than_spectrum_rejected(self, small_domain, rng):
        f = sp.random_field(small_domain, rng)
        with pytest.raises(ValueError, match="smaller than the mode box"):
            sp.to_physical(f, (8, 9, 5))
        with pytest.raises(ValueError, match="smaller than the mode box"):
            sp.to_spectral(np.zeros((3, 8, 9, 5)), small_domain)


class TestDerivative:
    def test_alpha_zero_is_identity(self, small_domain, rng):
        f = sp.random_field(small_domain, rng)
        g = sp.deriv(f, 0.0)
        np.testing.assert_allclose(g.coeffs, f.coeffs, atol=0)

    def test_single_mode_multiplier(self):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=2, n2=2, n3=1)
        c = np.zeros((3,) + d.shape, complex)
        c[0, d.n1 + 1, d.n2, d.n3] = 0.5
        c[0, d.n1 - 1, d.n2, d.n3] = 0.5
        f = sp.SpectralField(d, c)
        g = sp.deriv(f, 1.0)
        # |k| = 1/l1 = 1, so each coefficient scales by 2 pi
        np.testing.assert_allclose(g.coeffs, 2 * np.pi * f.coeffs, rtol=1e-14)

    def test_matches_finite_differences(self, small_domain, rng):
        # cross-check d/dx against a high-resolution centered stencil
        d = small_domain
        c = np.zeros((3,) + d.shape, complex)
        c[1, d.n1 + 1, d.n2, d.n3] = 0.5
        c[1, d.n1 - 1, d.n2, d.n3] = 0.5
        f = sp.SpectralField(d, c)  # cos(2 pi x), only x-dependence
        grid = (512, 9, 5)
        phys = sp.to_physical(f, grid)
        h = d.l1 / grid[0]
        fd = (np.roll(phys[1], -1, axis=0) - np.roll(phys[1], 1, axis=0)) / (2 * h)
        grad_mag = sp.to_physical(sp.deriv(f, 1.0), grid)[1]
        # |D f| has the modulus multiplier; for a pure cosine the derivative is
        # -2 pi sin, so compare magnitudes of the extrema
        assert np.max(np.abs(fd)) == pytest.approx(np.max(np.abs(grad_mag)), rel=1e-3)

    def test_semigroup(self, small_domain, rng):
        f = sp.random_field(small_domain, rng)
        twice = sp.deriv(sp.deriv(f, 1.0), 1.0)
        once = sp.deriv(f, 2.0)
        np.testing.assert_allclose(twice.coeffs, once.coeffs, rtol=1e-13, atol=1e-16)

    def test_negative_alpha_rejected(self, small_domain, rng):
        with pytest.raises(ValueError, match="alpha"):
            sp.deriv(sp.random_field(small_domain, rng), -1.0)


class TestNorms:
    def test_single_pair_parseval(self, small_domain):
        d = small_domain
        c = np.zeros((3,) + d.shape, complex)
        c[0, d.n1 + 1, d.n2, d.n3] = 0.5
        c[0, d.n1 - 1, d.n2, d.n3] = 0.5
        f = sp.SpectralField(d, c)
        assert sp.norm_l2(f) ** 2 == pytest.approx(d.volume * 0.5, rel=1e-14)
        assert sp.norm_l2(f) == pytest.approx(quadrature_l2(f), rel=1e-13)

    def test_zero_field(self, small_domain):
        assert sp.norm_l2(sp.SpectralField.zeros(small_domain)) == 0.0

    def test_parseval_vs_quadrature_random(self, thin_domain, rng):
        for _ in range(5):
            f = sp.random_field(thin_domain, rng)
            assert sp.norm_l2(f) == pytest.approx(quadrature_l2(f), rel=1e-12)

    def test_h1_h2_composition(self, small_domain, rng):
        f = sp.random_field(small_domain, rng)
        h1 = np.sqrt(sp.norm_l2(f) ** 2 + sp.norm_ds(f, 1.0) ** 2)
        assert sp.h1_norm(f) == pytest.approx(h1, rel=1e-14)
        h2 = np.sqrt(h1**2 + sp.norm_ds(f, 2.0) ** 2)
        assert sp.h2_norm(f) == pytest.approx(h2, rel=1e-14)

    def test_interpolation_log_convexity(self, thin_domain, rng):
        """||D^a_t f|| <= ||D^a0 f||^(1-t) ||D^a1 f||^t with constant one."""
        alpha0, alpha1 = 0.5, 2.0
        for _ in range(25):
            f = sp.random_field(thin_domain, rng, slope=-1.0)
            n0 = sp.norm_ds(f, alpha0)
            n1 = sp.norm_ds(f, alpha1)
            for theta in (0.25, 0.5, 0.75):
                mid = sp.norm_ds(f, (1 - theta) * alpha0 + theta * alpha1)
                assert mid <= n0 ** (1 - theta) * n1**theta * (1 + 1e-12)

    def test_poincare_sharp_on_lowest_mode(self, thin_domain, rng):
        d = thin_domain
        for alpha in (0.5, 1.0, 2.0):
            f = sp.random_field(d, rng)
            bound = sp.poincare_constant(d, alpha) * sp.norm_ds(f, alpha)
            assert sp.norm_l2(f) <= bound * (1 + 1e-12)
        # sharp: the lowest mode achieves equality
        c = np.zeros((3,) + d.shape, complex)
        c[0, d.n1 + 1, d.n2, d.n3] = 0.5
        c[0, d.n1 - 1, d.n2, d.n3] = 0.5
        low = sp.SpectralField(d, c)
        assert sp.norm_l2(low) == pytest.approx(
            sp.poincare_constant(d, 1.0) * sp.norm_ds(low, 1.0), rel=1e-13
        )


class TestProjections:
    def test_leray_annihilates_gradients(self, small_domain, rng):
        d = small_domain
        k1, k2, k3 = sp.kvec_grids(d)
        scalar = sp.random_field(d, rng).coeffs[0]
        grad = 1j * np.stack([k1 * scalar, k2 * scalar, k3 * scalar])
        g = sp.SpectralField(d, grad)
        lg = sp.leray(g)
        assert np.max(np.abs(lg.coeffs)) <= 1e-14 * np.max(np.abs(g.coeffs))

    def test_leray_fixes_divergence_free(self, small_domain, rng):
        f = sp.leray(sp.random_field(small_domain, rng))
        again = sp.leray(f)
        np.testing.assert_allclose(again.coeffs, f.coeffs, atol=1e-15)

    def test_projection_algebra_random(self, thin_domain, rng):
        """L^2 = L, P + Q = I, PQ = 0, R + S = I, LP = PL, div(Lf) = 0."""
        d = thin_domain
        for _ in range(25):
            f = sp.random_field(d, rng)
            scale = sp.norm_l2(f)
            lf = sp.leray(f)
            assert sp.norm_l2(sp.leray(lf) - lf) <= 1e-12 * scale
            assert sp.norm_l2(sp.proj_p(f) + sp.proj_q(f) - f) <= 1e-14 * scale
            assert sp.norm_l2(sp.proj_p(sp.proj_q(f))) <= 1e-14 * scale
            assert sp.norm_l2(sp.proj_r(f) + sp.proj_s(f) - f) <= 1e-14 * scale
            assert (
                sp.norm_l2(sp.leray(sp.proj_p(f)) - sp.proj_p(sp.leray(f)))
                <= 1e-12 * scale
            )
            assert sp.divergence_defect(lf) <= 1e-12

    def test_z_independent_field_p_invariant(self, small_domain, rng):
        f = sp.proj_p(sp.random_field(small_domain, rng))
        np.testing.assert_allclose(sp.proj_p(f).coeffs, f.coeffs, atol=0)
        assert sp.norm_l2(sp.proj_q(f)) == 0.0

    def test_rs_split_component_wise(self, small_domain, rng):
        f = sp.random_field(small_domain, rng)
        s = sp.proj_s(f)
        assert np.max(np.abs(s.coeffs[:2])) == 0.0
        assert sp.norm_l2(sp.proj_r(s)) == 0.0
        r = sp.proj_r(f)
        assert sp.norm_l2(sp.proj_s(r)) == 0.0

    def test_rs_of_planar_divfree_stay_divfree(self, small_domain, rng):
        v = sp.leray(sp.proj_p(sp.random_field(small_domain, rng)))
        assert sp.divergence_defect(sp.proj_r(v)) <= 1e-12
        assert sp.divergence_defect(sp.proj_s(v)) <= 1e-12


class TestTruncate:
    def test_inside_cutoff_unchanged(self, small_domain, rng):
        f = sp.random_field(small_domain, rng)
        g = sp.truncate(f, small_domain)
        np.testing.assert_allclose(g.coeffs, f.coeffs, atol=0)

    def test_idempotent_and_commutes_with_leray(self, thin_domain, rng):
        d = thin_domain
        target = sp.DomainSpec(l1=d.l1, l2=d.l2, eps=d.eps, nu=d.nu, n1=3, n2=2, n3=1)
        f = sp.random_field(d, rng)
        t1 = sp.truncate(f, target)
        np.testing.assert_allclose(sp.truncate(t1, target).coeffs, t1.coeffs, atol=0)
        a = sp.truncate(sp.leray(f), target)
        b = sp.leray(sp.truncate(f, target))
        assert sp.norm_l2(a - b) <= 1e-14 * sp.norm_l2(f)

    def test_geometry_mismatch_rejected(self, small_domain, rng):
        other = sp.DomainSpec(l1=2.0, l2=1.0, eps=0.125, nu=1.0, n1=4, n2=4, n3=2)
        with pytest.raises(ValueError, match="geometry"):
            sp.truncate(sp.random_field(small_domain, rng), other)

    def test_zero_pad_embeds(self, small_domain, rng):
        bigger = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=6, n2=6, n3=3)
        f = sp.random_field(small_domain, rng)
        g = sp.truncate(f, bigger)
        assert sp.norm_l2(g) == pytest.approx(sp.norm_l2(f), rel=1e-14)


class TestIntegrationByParts:
    def test_transport_term_vanishes(self, small_domain, rng):
        """Quadrature of f (u . grad f) over the box is zero for div-free u."""
        d = small_domain
        grid = sp.default_grid(d)  # cubic products integrate exactly
        for _ in range(5):
            u = sp.leray(sp.random_field(d, rng, slope=-1.0))
            f = sp.random_field(d, rng, slope=-1.0)
            u_phys = sp.to_physical(u, grid)
            f_phys = sp.to_physical(f, grid)[0]
            k1, k2, k3 = sp.kvec_grids(d)
            two_pi_i = 2j * np.pi
            fx = sp.to_physical(
                sp.SpectralField(d, two_pi_i * k1 * f.coeffs), grid
            )[0]
            fy = sp.to_physical(
                sp.SpectralField(d, two_pi_i * k2 * f.coeffs), grid
            )[0]
            fz = sp.to_physical(
                sp.SpectralField(d, two_pi_i * k3 * f.coeffs), grid
            )[0]
            integrand = f_phys * (u_phys[0] * fx + u_phys[1] * fy + u_phys[2] * fz)
            integral = d.volume * float(np.mean(integrand))
            scale = sp.norm_l2(u) * sp.norm_ds(f, 1.0) * np.max(np.abs(f_phys))
            assert abs(integral) <= 1e-10 * max(scale, 1e-300)


class TestCheckpoint:
    def test_round_trip(self, thin_domain, rng, tmp_path):
        f = sp.random_field(thin_domain, rng)
        path = tmp_path / "field.ckpt"
        sp.save_checkpoint(f, path, time=2.5, step=17, extra={"tag": "unit"})
        g, header = sp.load_checkpoint(path)
        np.testing.assert_allclose(g.coeffs, f.coeffs, atol=0)
        assert g.domain == thin_domain
        assert header["time"] == 2.5
        assert header["step"] == 17
        assert header["extra"]["tag"] == "unit"

    def test_binary_layout(self, small_domain, rng, tmp_path):
        """Header is one JSON line; payload is raw little-endian complex128."""
        import json

        f = sp.random_field(small_domain, rng)
        path = tmp_path / "field.ckpt"
        sp.save_checkpoint(f, path)
        blob = path.read_bytes()
        newline = blob.index(b"\n")
        header = json.loads(blob[:newline])
        assert header["format_version"] == sp.CHECKPOINT_FORMAT_VERSION
        assert header["n1"] == small_domain.n1
        payload = np.frombuffer(blob[newline + 1 :], dtype="<c16")
        assert payload.size == 3 * np.prod(small_domain.shape)
        np.testing.assert_allclose(
            payload.reshape((3,) + small_domain.shape), f.coeffs, atol=0
        )

    def test_pinned_bytes(self, tmp_path):
        """The whole file of a hand-built field: the sorted-key header line, then
        each coefficient as little-endian (re, im) doubles in [j, m + n1, n + n2, p + n3]
        order.  The p < 0 plane is the conjugate mirror of p > 0, so its zeros are 0 - 0j."""
        d = sp.DomainSpec(l1=2.0, l2=1.0, eps=0.125, nu=0.5, n1=1, n2=1, n3=1)
        # (component, m, n, p) -> coefficient, each with its conjugate mirror
        modes = {(0, 1, 0, 1): complex(1.0, 2.0), (2, 0, 1, 0): complex(0.0, -0.5)}
        c = np.zeros((3,) + d.shape, dtype=complex)
        for (j, m, n, p), v in modes.items():
            c[j, 1 + m, 1 + n, 1 + p] = v
            c[j, 1 - m, 1 - n, 1 - p] = np.conj(v)
        path = tmp_path / "pinned.ckpt"
        sp.save_checkpoint(sp.SpectralField(d, c), path, time=0.25, step=7)
        header = (
            b'{"eps": 0.125, "format_version": 1, "l1": 2.0, "l2": 1.0, '
            b'"n1": 1, "n2": 1, "n3": 1, "nu": 0.5, "step": 7, "time": 0.25}\n'
        )
        payload = bytearray(16 * 81)
        for flat in range(0, 81, 3):  # p = -1 is the first of each run of 3
            payload[16 * flat + 8 : 16 * flat + 16] = struct.pack("<d", -0.0)
        for (j, m, n, p), v in modes.items():
            for sign, w in ((1, v), (-1, np.conj(v))):
                flat = ((j * 3 + 1 + sign * m) * 3 + 1 + sign * n) * 3 + 1 + sign * p
                payload[16 * flat : 16 * flat + 16] = struct.pack("<dd", w.real, w.imag)
        assert path.read_bytes() == header + bytes(payload)

    def test_write_never_holds_the_full_box(self, rng, tmp_path):
        """save_checkpoint of a (32,32,8) field peaks below one full mode box:
        the payload is mirrored and written one component at a time."""
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=32, n2=32, n3=8)
        f = sp.random_field(d, rng)
        path = tmp_path / "field.ckpt"
        tracemalloc.start()
        try:
            sp.save_checkpoint(f, path, time=1.0, step=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * np.prod(d.shape) * 16
        back, _ = sp.load_checkpoint(path)
        assert back.half.tobytes() == f.half.tobytes()

    def test_load_holds_at_most_two_and_a_half_boxes(self, rng, tmp_path):
        """load_checkpoint of a (32,32,8) field peaks at 2.1 full mode boxes at most:
        the payload, the half box and one component's half-size temporaries (a full
        symmetrized box per component would reach 2.36)."""
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=32, n2=32, n3=8)
        f = sp.random_field(d, rng, slope=-2.0)
        path = tmp_path / "field.ckpt"
        sp.save_checkpoint(f, path, time=1.0, step=3)
        tracemalloc.start()
        try:
            back, _ = sp.load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * 3 * np.prod(d.shape) * 16
        assert back.half.tobytes() == f.half.tobytes()

    def test_defect_is_scaled_over_all_components(self, small_domain, rng):
        """The checked construction measures the Hermitian defect and its scale over
        the whole box, as a one-shot symmetrization does, though it works one
        component at a time: a small component may carry a defect that is large
        against itself but small against the field.  The half is the one-shot
        construction's, bit for bit."""
        shape = (3,) + small_domain.shape
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        c = sp._symmetrize(raw, 3)
        c[0] *= 1e-6
        c[0] += 1e-9 * rng.standard_normal(shape[1:])
        ref = sp._symmetrize(c, 3)
        ref[:, small_domain.n1, small_domain.n2, small_domain.n3] = 0.0
        half = sp.SpectralField(small_domain, c).half
        assert half.tobytes() == np.ascontiguousarray(ref[..., small_domain.n3 :]).tobytes()
        c[0] += 1e-3 * rng.standard_normal(shape[1:])
        with pytest.raises(ValueError, match="Hermitian"):
            sp.SpectralField(small_domain, c)

    def test_rejects_non_finite_payload(self, small_domain, rng, tmp_path):
        path = tmp_path / "field.ckpt"
        sp.save_checkpoint(sp.random_field(small_domain, rng), path)
        blob = bytearray(path.read_bytes())
        blob[-16:-8] = struct.pack("<d", np.inf)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="finite"):
            sp.load_checkpoint(path)

    def test_missing_header_key(self, small_domain, rng, tmp_path):
        path = tmp_path / "field.ckpt"
        sp.save_checkpoint(sp.random_field(small_domain, rng), path)
        path.write_bytes(path.read_bytes().replace(b'"nu": 1.0, ', b""))
        with pytest.raises(ValueError, match=r"field\.ckpt.*'nu'"):
            sp.load_checkpoint(path)

    def test_version_check(self, small_domain, rng, tmp_path):
        f = sp.random_field(small_domain, rng)
        path = tmp_path / "field.ckpt"
        sp.save_checkpoint(f, path)
        blob = path.read_bytes()
        bad = blob.replace(b'"format_version": 1', b'"format_version": 9')
        path.write_bytes(bad)
        with pytest.raises(ValueError, match="format"):
            sp.load_checkpoint(path)

    @pytest.mark.parametrize("cut,extra", [(16, b""), (0, b"\x00")], ids=["truncated", "trailing"])
    def test_payload_length_checked(self, small_domain, rng, tmp_path, cut, extra):
        f = sp.random_field(small_domain, rng)
        path = tmp_path / "field.ckpt"
        sp.save_checkpoint(f, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - cut] + extra)
        want = 16 * 3 * int(np.prod(small_domain.shape))
        got = want - cut + len(extra)
        with pytest.raises(ValueError, match=rf"field\.ckpt.*{got} bytes.*{want}"):
            sp.load_checkpoint(path)
