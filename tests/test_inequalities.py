"""Tests for the empirical constant estimators and the dyadic decomposition."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.fft import ifft2, next_fast_len

from thinflow import inequalities as iq
from thinflow import spectral as sp


@pytest.fixture
def thin_box():
    return sp.DomainSpec(l1=4.0, l2=4.0, eps=0.125, nu=1.0, n1=8, n2=8, n3=2)


# (l1, l2, n1, n2, n3, oversample) for the grid-norm checks.  sup_norm grids:
# 56x56x24 (even), 21x15x9 (odd), 36x54x20, 200x165x20; lp_norm(4) grids:
# 15x15x6, 15x10x6, 18x27x10, 100x84x10.  The last box's grids span several
# blocks of the blocked reduction plus a partial last one.
_NORM_BOXES = [
    (1.0, 1.0, 3, 3, 1, 8),
    (2.0, 1.0, 3, 2, 1, 3),
    (1.5, 1.0, 4, 6, 2, 4),
    (1.5, 1.0, 24, 20, 2, 4),
]
_NORM_BOX_IDS = ["3x3x1", "3x2x1-l1>l2", "4x6x2", "24x20x2-blocks"]
_COMPONENTS = [(), (1,), (0, 2), (0, 1, 2)]
_COMPONENT_IDS = ["zero", "1comp", "2comp", "3comp"]


def _norm_field(rng, box, components):
    """Random field on the box with only the listed velocity components kept."""
    l1, l2, n1, n2, n3, oversample = box
    d = sp.DomainSpec(l1=l1, l2=l2, eps=0.125, nu=1.0, n1=n1, n2=n2, n3=n3)
    coeffs = np.zeros((3,) + d.shape, dtype=complex)
    full = sp.random_field(d, rng).coeffs
    for c in components:
        coeffs[c] = full[c]
    return sp.SpectralField(d, coeffs), oversample


def _dense_samples(f, grid):
    """All three components on the full 3D grid by a numpy.fft synthesis of every mode."""
    d = f.domain
    idx = np.ix_(
        np.arange(-d.n1, d.n1 + 1) % grid[0],
        np.arange(-d.n2, d.n2 + 1) % grid[1],
        np.arange(-d.n3, d.n3 + 1) % grid[2],
    )
    out = np.empty((3,) + grid)
    for c in range(3):
        full = np.zeros(grid, dtype=complex)
        full[idx] = f.coeffs[c]
        out[c] = (np.fft.ifftn(full) * np.prod(grid)).real
    return out


def _slab_reference(u, grid):
    """|u|^2 on the grid as one unblocked (gz, gx * gy) array: each nonzero
    component's p >= 0 planes on the (gx, gy) grid by one two-axis ifft2, then
    one cos / -sin z matmul over all columns."""
    gx, gy, gz = grid
    d = u.domain
    n_pos = d.n3 + 1
    index = (slice(None),) + np.ix_(
        np.arange(-d.n1, d.n1 + 1) % gx, np.arange(-d.n2, d.n2 + 1) % gy
    )
    theta = 2.0 * np.pi * np.outer(np.arange(gz), np.arange(n_pos)) / gz
    weight = np.where(np.arange(n_pos) == 0, 1.0, 2.0)
    synth = np.hstack([weight * np.cos(theta), -weight * np.sin(theta)])
    mag2 = np.zeros((1, 1))
    for i, comp in enumerate(c for c in u.half if c.any()):
        slab = np.zeros((n_pos, gx, gy), dtype=complex)
        slab[index] = np.moveaxis(comp, -1, 0)
        plane = ifft2(slab, norm="forward").reshape(n_pos, gx * gy)
        sq = np.square(synth @ np.vstack([plane.real, plane.imag]))
        mag2 = sq if i == 0 else mag2 + sq
    return mag2


def _budgets(grid):
    """Block budgets (spectral._BLOCK_BYTES) for the grid: the default, one block,
    one x row per block, and k >= 3 rows per block with a partial last block."""
    gx, gy, gz = grid
    row_bytes = 8 * gy * gz
    k = next(k for k in range(3, gx) if gx % k)
    return [sp._BLOCK_BYTES, gx * row_bytes, 1, k * row_bytes]


class TestField2D:
    def test_construction_and_norms(self):
        f2 = iq.Field2D(1.0, 1.0, 2, 2, np.zeros((5, 5), complex))
        assert f2.norm_l2() == 0.0
        c = np.zeros((5, 5), complex)
        c[3, 2] = 0.5
        c[1, 2] = 0.5  # cos(2 pi x)
        f = iq.Field2D(1.0, 1.0, 2, 2, c)
        assert f.norm_l2() ** 2 == pytest.approx(0.5)
        assert f.norm_ds(0.5) ** 2 == pytest.approx(np.pi, rel=1e-13)
        assert f.norm_l4() == pytest.approx((3 / 8) ** 0.25, rel=1e-13)

    def test_rejects_non_hermitian(self, rng):
        raw = rng.standard_normal((5, 5)) + 1j
        with pytest.raises(ValueError, match="Hermitian"):
            iq.Field2D(1.0, 1.0, 2, 2, raw)

    @pytest.mark.parametrize("n1, n2", [(2, 2), (3, 1), (1, 4), (6, 5)])
    def test_wrap_equals_checked_construction(self, rng, n1, n2):
        """Field2D._wrap of the n >= 0 half of a _symmetrize'd slab is the checked
        construction of that slab: the same half, slab and norms."""
        shape = (2 * n1 + 1, 2 * n2 + 1)
        sym = sp._symmetrize(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), 2)
        checked = iq.Field2D(1.5, 1.0, n1, n2, sym)
        wrapped = iq.Field2D._wrap(1.5, 1.0, n1, n2, sym[:, n2:])
        assert wrapped.half.shape == (2 * n1 + 1, n2 + 1)
        assert not wrapped.half.flags.writeable
        assert np.array_equal(wrapped.half, checked.half)
        assert np.array_equal(wrapped.coeffs, checked.coeffs)
        for norm in ("norm_l2", "norm_l4"):
            assert getattr(wrapped, norm)() == getattr(checked, norm)()
        assert wrapped.norm_ds(0.5) == checked.norm_ds(0.5)

    def test_norms_sum_the_full_slab(self, rng):
        """norm_l2 and norm_ds from the half round as sums over the full slab do."""
        n1, n2 = 5, 3
        shape = (2 * n1 + 1, 2 * n2 + 1)
        sym = sp._symmetrize(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), 2)
        f = iq.Field2D(1.5, 1.0, n1, n2, sym)
        area = f.area
        assert f.norm_l2() == float(np.sqrt(area * np.sum(np.abs(f.coeffs) ** 2)))
        mult = (2.0 * np.pi * iq._planar_kmag(1.5, 1.0, n1, n2)) ** 0.5
        mult[n1, n2] = 0.0
        ref = float(np.sqrt(area * np.sum(mult**2 * np.abs(f.coeffs) ** 2)))
        assert f.norm_ds(0.5) == ref

    def test_embed_roundtrip_norm(self, rng):
        raw = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        sym = 0.5 * (raw + np.conj(np.flip(raw)))
        f = iq.Field2D(1.0, 1.0, 2, 2, sym)
        g = f.embed(eps=0.2)
        # 3D L2 over the slab picks up sqrt(eps)
        assert sp.norm_l2(g) == pytest.approx(np.sqrt(0.2) * f.norm_l2(), rel=1e-13)


class TestDyadicDecomposition:
    def test_single_mode_block_zero(self):
        c = np.zeros((9, 9), complex)
        c[5, 4] = 0.3
        c[3, 4] = 0.3  # |r| = 1 conjugate pair
        f = iq.Field2D(1.0, 1.0, 4, 4, c)
        prof = iq.dyadic_decompose(f)
        assert prof.block_norms[0] == pytest.approx(0.3 * np.sqrt(2), rel=1e-14)
        assert np.all(prof.block_norms[1:] == 0.0)

    def test_ring_hits_single_block(self, rng):
        n = 8
        shape = (2 * n + 1, 2 * n + 1)
        kmag = iq._planar_kmag(1.0, 1.0, n, n)
        env = ((kmag >= 2.0) & (kmag < 4.0)).astype(float)
        raw = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * env
        sym = 0.5 * (raw + np.conj(np.flip(raw)))
        f = iq.Field2D(1.0, 1.0, n, n, sym)
        prof = iq.dyadic_decompose(f)
        assert prof.block_norms[0] == 0.0
        assert prof.block_norms[1] > 0.0
        assert np.all(prof.block_norms[2:] == 0.0)

    def test_partition_of_modes(self, rng):
        n = 10
        shape = (2 * n + 1, 2 * n + 1)
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        sym = 0.5 * (raw + np.conj(np.flip(raw)))
        f = iq.Field2D(1.0, 1.0, n, n, sym)
        prof = iq.dyadic_decompose(f)
        mass = np.sum(np.abs(f.coeffs) ** 2) - 0.0  # mean mode already pinned
        assert prof.total_sq == pytest.approx(mass, rel=1e-14)

    def test_no_mode_at_unit_frequency(self):
        """On a 4 x 4 box with n1 = n2 = 1 every |r| is at most sqrt(2)/4 < 1: no
        block, zero sums, and the half-derivative norm of the field itself."""
        c = np.zeros((3, 3), complex)
        c[2, 1] = c[0, 1] = 0.5
        f = iq.Field2D(4.0, 4.0, 1, 1, c)
        prof = iq.dyadic_decompose(f)
        assert prof.block_norms.size == 0
        assert prof.total_sq == 0.0 and prof.weighted_sq == 0.0
        assert prof.half_deriv_norm == f.norm_ds(0.5) > 0.0
        assert prof.multiplier_constant == 1.0 / (2.0 * np.pi * 16.0)

    def test_multiplier_bound(self, rng):
        for _ in range(20):
            n = 8
            shape = (2 * n + 1, 2 * n + 1)
            raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            sym = 0.5 * (raw + np.conj(np.flip(raw)))
            f = iq.Field2D(1.0, 1.0, n, n, sym)
            prof = iq.dyadic_decompose(f)
            assert prof.satisfies_multiplier_bound
            assert prof.multiplier_constant == pytest.approx(1 / (2 * np.pi))


class TestEstimators:
    def test_unknown_inequality_and_budget(self, thin_box):
        with pytest.raises(ValueError, match="inequality"):
            iq.estimate_constant("sobolev-9", thin_box, budget=5)
        with pytest.raises(ValueError, match="budget"):
            iq.estimate_constant("thin-sup", thin_box, budget=0)

    @pytest.mark.parametrize("inequality, domain", [
        ("planar-l4", sp.DomainSpec(l1=1.0, l2=1.0, eps=0.2, nu=1.0, n1=8, n2=8, n3=1)),
        ("thin-l4", sp.DomainSpec(l1=1.0, l2=1.0, eps=0.2, nu=1.0, n1=3, n2=3, n3=2)),
    ])
    def test_budget_counts_every_ratio_evaluation(self, monkeypatch, inequality, domain):
        """Trials and ascent together evaluate exactly budget ratios: the ascent
        starts from the incumbent's ratio instead of scoring it again."""
        calls = []
        ratio = iq._RATIO_DISPATCH[inequality]

        def counting(field, params):
            calls.append(1)
            return ratio(field, params)

        monkeypatch.setitem(iq._RATIO_DISPATCH, inequality, counting)
        est = iq.estimate_constant(inequality, domain, budget=24, seed=3, refine=True)
        assert est.upper_bound is None or est.max_ratio < est.upper_bound
        assert est.trial_count == 12
        assert len(calls) == 24

    @pytest.mark.parametrize("kwargs", [{"p": 1.0}, {"p": 0.5}, {"oversample": 0}])
    def test_exponent_and_oversampling_validated(self, thin_box, kwargs):
        """p = 1 has no conjugate exponent, p < 1 no norm, and oversample = 0 no grid."""
        with pytest.raises(ValueError, match="p > 1 and oversample >= 1"):
            iq.estimate_constant("hausdorff-young", thin_box, budget=8, **kwargs)

    def test_planar_l4_floor_and_reproduction(self):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.2, nu=1.0, n1=16, n2=16, n3=1)
        est = iq.estimate_constant("planar-l4", d, budget=60, seed=1)
        assert est.max_ratio >= iq.single_mode_floor_planar_l4() - 1e-12
        assert est.reproduced_ratio() == pytest.approx(est.max_ratio, abs=1e-10)
        assert est.trial_count > 0

    def test_planar_l4_single_mode_value(self):
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.2, nu=1.0, n1=4, n2=4, n3=1)
        est = iq.estimate_constant("planar-l4", d, budget=7, seed=1, refine=False)
        # the deterministic single-mode trial must be present and exact
        assert est.ensemble_best["single-mode"] == pytest.approx(
            iq.single_mode_floor_planar_l4(), rel=1e-12
        )

    def test_poincare_sharp(self, thin_box):
        est = iq.estimate_constant("poincare", thin_box, budget=30, seed=2, alpha=1.0, refine=False)
        expected = (2 * np.pi * sp.min_nonzero_k(thin_box)) ** -1.0
        assert est.max_ratio == pytest.approx(expected, rel=1e-12)
        assert est.best_trial_kind == "lowest-mode"

    def test_hausdorff_young_parseval(self, thin_box):
        est = iq.estimate_constant("hausdorff-young", thin_box, budget=15, seed=3, p=2.0, refine=False)
        assert est.max_ratio == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("inequality", ["thin-sup", "poincare"])
    @pytest.mark.parametrize("refine", [False, True])
    def test_closed_bracket_stops_after_the_deterministic_trial(self, thin_box, inequality, refine):
        """profile-4.0 and the lowest mode attain the closed-form bound, so no
        random trial or ascent step can raise max_ratio."""
        est = iq.estimate_constant(inequality, thin_box, budget=20, seed=2, refine=refine)
        assert est.trial_count == 1
        assert est.max_ratio == pytest.approx(est.upper_bound, rel=1e-12, abs=0.0)
        assert list(est.ensemble_best) == [est.best_trial_kind]

    def test_closed_bound_values(self, thin_box):
        """thin-sup's bound is the Cauchy-Schwarz sum over the p != 0 modes,
        written over the full box; poincare's is the sharp constant."""
        ksq = np.asarray(sp.ksq_grid(thin_box))
        p_nonzero = np.arange(-thin_box.n3, thin_box.n3 + 1) != 0
        s = np.sum((2 * np.pi) ** -4 * ksq[..., p_nonzero] ** -2)
        sup = iq.estimate_constant("thin-sup", thin_box, budget=4, seed=0)
        assert sup.upper_bound == pytest.approx(np.sqrt(s / thin_box.volume), rel=1e-13)
        poincare = iq.estimate_constant("poincare", thin_box, budget=4, seed=0, alpha=0.5)
        assert poincare.upper_bound == sp.poincare_constant(thin_box, 0.5)

    @pytest.mark.parametrize("inequality", ["thin-l4", "planar-l4", "hausdorff-young"])
    def test_open_bracket_spends_the_budget(self, thin_box, inequality):
        est = iq.estimate_constant(inequality, thin_box, budget=12, seed=5, p=4.0, refine=False)
        assert est.trial_count == 12
        assert est.max_ratio < est.upper_bound * (1 - 1e-3)

    def test_hausdorff_young_bound_only_above_two(self, thin_box):
        for p, bound in ((1.5, None), (2.0, 1.0), (4.0, 1.0), (np.inf, 1.0)):
            est = iq.estimate_constant("hausdorff-young", thin_box, budget=6, seed=3, p=p, refine=False)
            assert est.upper_bound == bound
        # Parseval: every trial meets the bound, so the three profiles are all it takes
        parseval = iq.estimate_constant("hausdorff-young", thin_box, budget=15, seed=3, p=2.0)
        assert parseval.trial_count == 3

    def test_planar_l4_bound_grows_slowly(self):
        """The Hoelder bound grows like (log n)^(1/4) on the unit square."""
        bounds = []
        for n in (16, 32, 64):
            d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.2, nu=1.0, n1=n, n2=n, n3=1)
            bounds.append(iq._upper_bound("planar-l4", d, {}))
        np.testing.assert_allclose(bounds, [0.853, 0.893, 0.929], atol=5e-4)

    def test_thin_trials_live_in_q_range(self, thin_box):
        est = iq.estimate_constant("thin-sup", thin_box, budget=10, seed=4, refine=False)
        w = est.maximizer
        assert np.max(np.abs(w.coeffs[..., thin_box.n3])) == 0.0
        assert est.reproduced_ratio() == pytest.approx(est.max_ratio, abs=1e-10)

    @pytest.mark.parametrize("components", _COMPONENTS, ids=_COMPONENT_IDS)
    @pytest.mark.parametrize("box", _NORM_BOXES, ids=_NORM_BOX_IDS)
    def test_sup_norm_against_dense_grid(self, rng, box, components):
        """sup_norm equals brute force on the same oversampled grid."""
        f, oversample = _norm_field(rng, box, components)
        d = f.domain
        grid = (
            next_fast_len(oversample * (2 * d.n1 + 1)),
            next_fast_len(oversample * (2 * d.n2 + 1)),
            oversample * (2 * d.n3 + 1),
        )
        value = iq.sup_norm(f, oversample=oversample)
        if not components:
            assert value == 0.0
            return
        direct = np.max(np.sqrt(np.sum(_dense_samples(f, grid) ** 2, axis=0)))
        assert value == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("components", _COMPONENTS, ids=_COMPONENT_IDS)
    @pytest.mark.parametrize("box", _NORM_BOXES, ids=_NORM_BOX_IDS)
    def test_lp_norm_quartic_exact(self, rng, box, components):
        """lp_norm(4) equals brute-force quadrature on a grid of >= 4n+1 points per axis."""
        f, _ = _norm_field(rng, box, components)
        d = f.domain
        value = iq.lp_norm(f, 4.0)
        if not components:
            assert value == 0.0
            return
        grid = (4 * d.n1 + 1, 4 * d.n2 + 1, 4 * d.n3 + 1)
        mag2 = np.sum(_dense_samples(f, grid) ** 2, axis=0)
        direct = (d.volume * np.mean(mag2**2)) ** 0.25
        assert value == pytest.approx(direct, rel=1e-12)

    def test_block_box_spans_partial_last_block(self):
        """Under the default budget both grids of the last norm box hold more than one
        block of whole x rows, the last one partial."""
        l1, l2, n1, n2, n3, oversample = _NORM_BOXES[-1]
        d = sp.DomainSpec(l1=l1, l2=l2, eps=0.125, nu=1.0, n1=n1, n2=n2, n3=n3)
        quartic_grid = (next_fast_len(4 * n1 + 2), next_fast_len(4 * n2 + 2), 4 * n3 + 2)
        for gx, gy, gz in (iq._oversampled_grid(d, oversample), quartic_grid):
            rows = sp._block_rows(8 * gy * gz)
            assert gx > rows
            assert gx % rows != 0

    def test_sup_norm_never_holds_the_grid(self):
        """One sup_norm at (64,64,2), a 525x525x20 grid, peaks below one (gz, gx * gy)
        float64 array: the reduction runs block by block."""
        d = sp.DomainSpec(l1=4.0, l2=4.0, eps=1 / 64, nu=1.0, n1=64, n2=64, n3=2)
        half = np.zeros(sp._half_shape(d), dtype=complex)
        half[0] = sp.random_field(d, np.random.default_rng(1)).half[0]
        f = sp.SpectralField._wrap(d, half)
        gx, gy, gz = iq._oversampled_grid(d, 4)
        assert (gx, gy, gz) == (525, 525, 20)
        tracemalloc.start()
        try:
            iq.sup_norm(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < gz * gx * gy * 8


    def test_sup_norm_never_holds_a_horizontal_slab(self):
        """One sup_norm of a one-component field at (64,64,2) peaks below two
        (n3 + 1, gx, M2) x-pass arrays: the y pass runs block by block, so the
        (n3 + 1, gx, gy) slab (13.2 MB here) is never held."""
        d = sp.DomainSpec(l1=4.0, l2=4.0, eps=1 / 64, nu=1.0, n1=64, n2=64, n3=2)
        half = np.zeros(sp._half_shape(d), dtype=complex)
        half[0] = sp.random_field(d, np.random.default_rng(1)).half[0]
        f = sp.SpectralField._wrap(d, half)
        gx, gy, _ = iq._oversampled_grid(d, 4)
        tracemalloc.start()
        try:
            iq.sup_norm(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * (d.n3 + 1) * gx * (2 * d.n2 + 1) * 16

    @pytest.mark.parametrize("components", _COMPONENTS, ids=_COMPONENT_IDS)
    @pytest.mark.parametrize("box", _NORM_BOXES, ids=_NORM_BOX_IDS)
    def test_grid_norms_equal_the_slab_reference(self, rng, box, components, monkeypatch):
        """Under every budget of _budgets the |u|^2 samples, concatenated over the
        blocks, equal the unblocked slab reference bit for bit, so they do not depend on
        the blocking; sup_norm and lp_norm equal the reductions of that reference,
        lp_norm's sum taken over the same blocks of rows."""
        f, oversample = _norm_field(rng, box, components)
        d = f.domain
        sup_grid = iq._oversampled_grid(d, oversample)
        quartic_grid = (next_fast_len(4 * d.n1 + 2), next_fast_len(4 * d.n2 + 2), 4 * d.n3 + 2)
        for p, grid in ((4.0, quartic_grid), (3.0, sup_grid)):
            gx, gy, gz = grid
            ref = _slab_reference(f, grid)
            for budget in _budgets(grid):
                monkeypatch.setattr(sp, "_BLOCK_BYTES", budget)
                samples = np.hstack([b.copy() for b in iq._grid_mag2_blocks(f, grid)])
                assert np.array_equal(samples, ref), budget
                step = min(max(1, budget // (8 * gy * gz)), gx) * gy
                total = 0.0
                for start in range(0, gx * gy, step):
                    total += float(np.sum(np.power(ref[:, start : start + step], p / 2.0)))
                want = (d.volume * (total / np.prod(grid))) ** (1.0 / p)
                assert np.array_equal(iq.lp_norm(f, p, oversample), want), budget
                if grid is sup_grid:
                    assert np.array_equal(iq.sup_norm(f, oversample), np.sqrt(np.max(ref)))

    def test_each_row_transformed_once(self, rng, monkeypatch):
        """Each x row runs its y pass once per nonzero component under every budget of
        _budgets: n3 + 1 planes times gx rows."""
        ifft2_calls = iq.ifft2
        rows = []

        def counting(x, *args, axes, **kwargs):
            if axes == (-1,):
                rows.append(int(np.prod(x.shape[:-1])))
            return ifft2_calls(x, *args, axes=axes, **kwargs)

        monkeypatch.setattr(iq, "ifft2", counting)
        f, oversample = _norm_field(rng, _NORM_BOXES[-1], (0, 2))
        d = f.domain
        sup_grid = iq._oversampled_grid(d, oversample)
        quartic_grid = (next_fast_len(4 * d.n1 + 2), next_fast_len(4 * d.n2 + 2), 4 * d.n3 + 2)
        for norm, grid in ((lambda: iq.sup_norm(f, oversample), sup_grid),
                           (lambda: iq.lp_norm(f, 4.0), quartic_grid)):
            for budget in _budgets(grid):
                monkeypatch.setattr(sp, "_BLOCK_BYTES", budget)
                rows.clear()
                norm()
                assert sum(rows) == 2 * (d.n3 + 1) * grid[0], budget

    def test_planar_estimate_checks_no_trial(self, monkeypatch):
        """The planar-l4 trials and ascent candidates are exactly Hermitian by
        construction and skip the checked construction."""
        calls = []
        checked = sp._checked_hermitian

        def counting(*args, **kwargs):
            calls.append(1)
            return checked(*args, **kwargs)

        monkeypatch.setattr(iq, "_checked_hermitian", counting)
        monkeypatch.setattr(sp, "_checked_hermitian", counting)
        d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=8, n2=8, n3=1)
        est = iq.estimate_constant("planar-l4", d, budget=200, seed=0)
        assert est.trial_count == 100
        assert calls == []

    @pytest.mark.parametrize("inequality", ["thin-l4", "poincare"])
    def test_estimate_checks_no_trial(self, thin_box, inequality, monkeypatch):
        """The 3D trials (random, and poincare's lowest mode) and ascent candidates are
        built as exactly Hermitian half boxes and skip the checked construction."""
        calls = []
        checked = sp._checked_hermitian

        def counting(*args, **kwargs):
            calls.append(1)
            return checked(*args, **kwargs)

        monkeypatch.setattr(iq, "_checked_hermitian", counting)
        monkeypatch.setattr(sp, "_checked_hermitian", counting)
        est = iq.estimate_constant(inequality, thin_box, budget=12, seed=4)
        assert est.trial_count == (6 if inequality == "thin-l4" else 1)
        assert calls == []

    @pytest.mark.parametrize("inequality", ["thin-sup", "poincare"])
    def test_closed_bracket_builds_no_random_family(self, thin_box, inequality, monkeypatch):
        """The random-family envelopes are built only while the bracket is open."""

        def no_envelopes(domain):
            raise AssertionError("random-family envelopes built")

        monkeypatch.setattr(iq, "min_nonzero_k", no_envelopes)
        est = iq.estimate_constant(inequality, thin_box, budget=20, seed=2)
        assert est.trial_count == 1
        with pytest.raises(AssertionError, match="envelopes"):
            iq.estimate_constant("thin-l4", thin_box, budget=4, seed=2)


class TestScalingFit:
    def test_needs_three_points(self):
        with pytest.raises(ValueError, match="3 eps"):
            iq.fit_eps_scaling("thin-sup", [0.5, 0.25], [])

    def test_needs_one_estimate_per_eps(self, thin_box):
        est = iq.estimate_constant("thin-sup", thin_box, budget=2, refine=False)
        with pytest.raises(ValueError, match="one estimate per eps value"):
            iq.fit_eps_scaling("thin-sup", [0.5, 0.25, 0.125], [est, est])

    def test_fixed_shape_reproduces_own_scaling(self):
        """A single vertical mode has ratio ~ eps^(3/2) for the sup case."""
        eps_values = [0.2, 0.1, 0.05, 0.025]
        estimates = []
        for eps in eps_values:
            d = sp.DomainSpec(l1=1.0, l2=1.0, eps=eps, nu=1.0, n1=2, n2=2, n3=2)
            c = np.zeros((3,) + d.shape, complex)
            c[0, d.n1, d.n2, d.n3 + 1] = 0.5
            c[0, d.n1, d.n2, d.n3 - 1] = 0.5
            w = sp.SpectralField(d, c)
            ratio = iq.sup_norm(w) / sp.norm_ds(w, 2.0)
            estimates.append(
                iq.ConstantEstimate(
                    inequality="thin-sup", l1=1.0, l2=1.0, eps=eps,
                    resolution=(2, 2, 2), trial_count=1, max_ratio=ratio,
                    maximizer=w, best_trial_kind="fixed", upper_bound=None,
                    params={"oversample": 4},
                )
            )
            # analytic: sup = 1, ||D^2 w||_2 = (2 pi / eps)^2 sqrt(vol / 2)
            expected = (eps / (2 * np.pi)) ** 2 / np.sqrt(eps / 2)
            assert ratio == pytest.approx(expected, rel=1e-12)
        fit = iq.fit_eps_scaling("thin-sup", eps_values, estimates)
        assert fit.slope == pytest.approx(1.5, abs=1e-10)

    def test_sweep_slopes_match_predictions(self):
        """The headline scaling claim: sup-case 1/2, L4-case 1/4."""
        eps_values = [2.0**-k for k in range(2, 6)]
        for ineq, expected in (("thin-sup", 0.5), ("thin-l4", 0.25)):
            estimates = []
            for eps in eps_values:
                res = iq.thin_sweep_resolution(eps, cap=32)
                d = sp.DomainSpec(l1=4.0, l2=4.0, eps=eps, nu=1.0, n1=res[0], n2=res[1], n3=res[2])
                estimates.append(
                    iq.estimate_constant(ineq, d, budget=8, seed=7, refine=False)
                )
            fit = iq.fit_eps_scaling(ineq, eps_values, estimates)
            assert fit.expected_slope == expected
            assert abs(fit.slope - expected) <= 0.1
            # normalized ratios read as flat: bounded spread
            spread = np.ptp(np.log(fit.normalized_ratios))
            assert spread <= 0.35

    @pytest.mark.parametrize("n", [3, 5])
    def test_closed_form_fit_matches_polyfit(self, n):
        """Slope, intercept and stderr (polyfit's cov scaling) agree with np.polyfit."""
        rng = np.random.default_rng(n)
        eps_values = 2.0 ** -np.arange(2.0, 2.0 + n)
        ratios = 0.02 * eps_values**0.5 * np.exp(0.1 * rng.standard_normal(n))
        estimates = [SimpleNamespace(max_ratio=r) for r in ratios]
        fit = iq.fit_eps_scaling("thin-sup", eps_values, estimates)
        coef, cov = np.polyfit(np.log(eps_values), np.log(ratios), 1, cov=True)
        assert fit.slope == pytest.approx(coef[0], rel=1e-12, abs=0.0)
        assert fit.intercept == pytest.approx(coef[1], rel=1e-12, abs=0.0)
        assert fit.stderr == pytest.approx(np.sqrt(cov[0, 0]), rel=1e-12, abs=0.0)

    def test_csv_writer(self, tmp_path, thin_box):
        est = iq.estimate_constant("thin-sup", thin_box, budget=6, seed=1, refine=False)
        path = tmp_path / "sweep.csv"
        iq.write_sweep_csv(path, [thin_box.eps], [est])
        lines = path.read_text().splitlines()
        assert lines[0] == "eps,n1,n2,n3,max_ratio,upper_bound,trials,best_kind"
        assert len(lines) == 2


class TestInterpolationConstantOne:
    def test_thousand_random_fields(self, rng):
        """Hoelder on the Parseval weights: the midpoint norm never exceeds
        the geometric mean of the endpoints, with constant exactly one."""
        d = sp.DomainSpec(l1=1.3, l2=1.0, eps=0.2, nu=1.0, n1=2, n2=2, n3=1)
        for _ in range(1000):
            f = sp.random_field(d, rng)
            n0 = sp.norm_ds(f, 0.5)
            n1 = sp.norm_ds(f, 1.5)
            mid = sp.norm_ds(f, 1.0)
            assert mid <= np.sqrt(n0 * n1) * (1 + 1e-12)


class TestResolutionStability:
    def test_thin_sup_stable_under_refinement(self):
        """Once the horizontal band resolves the eps scale, doubling the
        cutoff moves the estimated constant by at most a few percent."""
        ratios = []
        for n in (30, 60):
            d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.2, nu=1.0, n1=n, n2=n, n3=2)
            est = iq.estimate_constant("thin-sup", d, budget=6, seed=3, refine=False)
            ratios.append(est.max_ratio)
        drift = abs(ratios[1] - ratios[0]) / ratios[0]
        assert drift <= 0.05

    def test_planar_l4_stable_under_refinement(self):
        d32 = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.2, nu=1.0, n1=32, n2=32, n3=1)
        d64 = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.2, nu=1.0, n1=64, n2=64, n3=1)
        e32 = iq.estimate_constant("planar-l4", d32, budget=160, seed=5)
        e64 = iq.estimate_constant("planar-l4", d64, budget=160, seed=5)
        drift = abs(e64.max_ratio - e32.max_ratio) / e32.max_ratio
        assert drift <= 0.05
