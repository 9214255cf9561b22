"""Property tests over small drawn boxes.

The draws cover l1 > l2, n1 != n2, n3 = 1 and odd and even grids.  Each
property is checked against an independent computation: a numpy.fft c2c
synthesis, scipy's multi-axis real transforms, closed forms of the
exponential-integrator weights, sums over the full mode box, or an exact
algebraic identity.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings, strategies as st

from thinflow import diagnostics as dg
from thinflow import gronwall as gw
from thinflow import inequalities as iq
from thinflow import solver as sv
from thinflow import spectral as sp

# derandomized and without an example database, so every run draws the same boxes
drawn = settings(max_examples=50, deadline=None, derandomize=True, database=None)


@st.composite
def domains(draw, max_n: int = 5) -> sp.DomainSpec:
    l2 = draw(st.floats(0.5, 2.0))
    return sp.DomainSpec(
        l1=l2 * draw(st.floats(1.0, 3.0)),
        l2=l2,
        eps=l2 * draw(st.floats(0.02, 0.24)),
        nu=draw(st.floats(0.01, 1.0)),
        n1=draw(st.integers(1, max_n)),
        n2=draw(st.integers(1, max_n)),
        n3=draw(st.integers(1, 2)),
    )


seeds = st.integers(0, 2**32 - 1)


def hermitian(rng: np.random.Generator, shape: tuple[int, ...], mode_axes: int) -> np.ndarray:
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    axes = tuple(range(-mode_axes, 0))
    return 0.5 * (raw + np.conj(np.flip(raw, axis=axes)))


@drawn
@given(
    modes=st.lists(st.integers(1, 5), min_size=2, max_size=3),
    pad=st.lists(st.integers(0, 7), min_size=3, max_size=3),
    components=st.integers(0, 2),
    seed=seeds,
)
def test_synthesis_matches_c2c(modes, pad, components, seed):
    """_synth_half of a Hermitian box's nonnegative-last-axis half, on two or three mode
    axes, equals a numpy.fft c2c synthesis of the whole box."""
    nd = len(modes)
    grid = tuple(2 * n + 1 + p for n, p in zip(modes, pad))
    lead = (components,) if components else ()
    coeffs = hermitian(np.random.default_rng(seed), lead + tuple(2 * n + 1 for n in modes), nd)
    full = np.zeros(lead + grid, dtype=np.complex128)
    index = np.ix_(*(np.arange(-n, n + 1) % g for n, g in zip(modes, grid)))
    full[(...,) + index] = coeffs
    axes = tuple(range(-nd, 0))
    ref = np.fft.ifftn(full, axes=axes) * math.prod(grid)
    got = sp._synth_half(coeffs[..., modes[-1] :], grid)
    scale = float(np.max(np.abs(ref)))
    assert got.shape == ref.shape
    assert np.max(np.abs(ref.imag)) <= 1e-12 * scale
    assert np.max(np.abs(got - ref.real)) <= 1e-12 * scale


@drawn
@given(
    modes=st.lists(st.integers(1, 5), min_size=2, max_size=3),
    pad=st.lists(st.integers(0, 7), min_size=3, max_size=3),
    components=st.integers(0, 2),
    seed=seeds,
)
def test_analysis_inverts_synthesis(modes, pad, components, seed):
    """_analyze_half after _synth_half on two or three axes, mirrored, returns the
    coefficients, exactly Hermitian."""
    nd = len(modes)
    grid = tuple(2 * n + 1 + p for n, p in zip(modes, pad))
    lead = (components,) if components else ()
    coeffs = hermitian(np.random.default_rng(seed), lead + tuple(2 * n + 1 for n in modes), nd)
    samples = sp._synth_half(coeffs[..., modes[-1] :], grid)
    back = sp._mirror(sp._analyze_half(samples, tuple(modes)), nd)
    axes = tuple(range(-nd, 0))
    assert back.shape == coeffs.shape
    assert np.array_equal(back, np.conj(np.flip(back, axis=axes)))
    assert np.max(np.abs(back - coeffs)) <= 1e-13 * np.max(np.abs(coeffs))


@drawn
@given(
    modes=st.lists(st.integers(1, 5), min_size=2, max_size=3),
    pad=st.lists(st.integers(0, 7), min_size=3, max_size=3),
    components=st.integers(0, 2),
    seed=seeds,
)
# 67 * 69 points: 1/N rounded through long double differs from 1.0/N there
@example(modes=[3, 1], pad=[60, 66, 0], components=2, seed=1)
def test_pruned_pair_equals_full_real_transforms(modes, pad, components, seed):
    """_synth_half and _analyze_half give the same bits as scipy's irfftn/rfftn over the
    full grid."""
    nd = len(modes)
    grid = tuple(2 * n + 1 + p for n, p in zip(modes, pad))
    axes = tuple(range(-nd, 0))
    lead = (components,) if components else ()
    rng = np.random.default_rng(seed)
    coeffs = hermitian(rng, lead + tuple(2 * n + 1 for n in modes), nd)
    half = np.zeros(lead + grid[:-1] + (grid[-1] // 2 + 1,), dtype=np.complex128)
    bins = np.ix_(*(np.arange(-n, n + 1) % g for n, g in zip(modes[:-1], grid[:-1])))
    half[(...,) + bins + (slice(modes[-1] + 1),)] = coeffs[..., modes[-1] :]
    ref = scipy.fft.irfftn(half, s=grid, axes=axes, norm="forward")
    assert np.array_equal(sp._synth_half(coeffs[..., modes[-1] :], grid), ref)

    samples = rng.standard_normal(lead + grid)
    full = scipy.fft.rfftn(samples, axes=axes, norm="forward")[(...,) + bins + (slice(None),)]
    ref = np.empty(coeffs.shape, dtype=np.complex128)
    ref[..., modes[-1] :] = full[..., : modes[-1] + 1]
    plane = ref[..., modes[-1]]
    plane[...] = 0.5 * (plane + np.conj(np.flip(plane, axis=axes[1:])))
    ref[..., : modes[-1]] = np.conj(np.flip(ref[..., modes[-1] + 1 :], axis=axes))
    assert np.array_equal(sp._mirror(sp._analyze_half(samples, tuple(modes)), nd), ref)


def _stacked_reference(half: np.ndarray, d: sp.DomainSpec, grid) -> np.ndarray:
    """The nonlinear term with the velocity samples synthesized by one call, all six
    products held and analysed by one _analyze_half call, and each advection row
    summed as one expression."""
    n1, n2, n3 = d.n1, d.n2, d.n3
    k1, k2, k3 = sp.kvec_grids(d)
    pairs = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
    rows = ([0, 3, 4], [3, 1, 5], [4, 5, 2])  # for each i, the index of the product (i, j)
    if not half[..., 1:].any():
        phys = sp._synth_half(half[:, :, n2:, 0], grid[:2])
        products = np.stack([phys[i] * phys[j] for i, j in pairs])
        uu = sp._mirror(sp._analyze_half(products, (n1, n2)), 2)[..., None]
        adv = k1 * uu[rows[0]] + k2 * uu[rows[1]]
    else:
        phys = sp._synth_half(half, grid)
        uu = sp._analyze_half(np.stack([phys[i] * phys[j] for i, j in pairs]), (n1, n2, n3))
        adv = k1 * uu[rows[0]] + k2 * uu[rows[1]] + k3[..., n3:] * uu[rows[2]]
    adv *= 2j * np.pi
    out = np.zeros(half.shape, dtype=np.complex128)
    out[..., : adv.shape[-1]] = -sp._leray_raw(adv, d)
    out[:, n1, n2, 0] = 0.0
    return out


# (box, initial kind, products per _product_halves call or None for all six, the calls' sizes)
_STREAM_CASES = [
    ((8, 8, 2), "z-independent", None, [6]),
    ((8, 8, 2), "z-independent", 4, [4, 2]),
    ((6, 4, 3), "random-divfree", None, [6]),
    ((6, 4, 3), "random-divfree", 4, [4, 2]),
    ((6, 4, 3), "random-divfree", 1, [1] * 6),
]


@pytest.mark.parametrize(
    "box, kind, per_call, calls", _STREAM_CASES, ids=lambda c: str(c).replace(" ", "")
)
def test_streamed_products_equal_one_analysis(monkeypatch, box, kind, per_call, calls):
    """_product_halves gives the same bits as one _analyze_half call on all six products
    stacked, however the products are grouped into calls and whether each call streams
    blocks of one x row, of three, or of the whole grid; on slab and on 3D samples."""
    d = sp.DomainSpec(l1=1.5, l2=1.0, eps=0.1, nu=1.0, n1=box[0], n2=box[1], n3=box[2])
    half = sv.make_initial(d, kind, u_target=1.0, seed=5).half
    grid = sp.default_grid(d)
    if kind == "z-independent":
        assert not half[..., 1:].any()
        phys, modes = sp._synth_half(half[:, :, d.n2 :, 0], grid[:2]), (d.n1, d.n2)
    else:
        phys, modes = sp._synth_half(half, grid), (d.n1, d.n2, d.n3)
    pairs = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
    ref = sp._analyze_half(np.stack([phys[i] * phys[j] for i, j in pairs]), modes)
    step = per_call or len(pairs)
    groups = [pairs[a : a + step] for a in range(0, len(pairs), step)]
    # bytes of one x row of one product
    row_bytes = 8 * math.prod(phys.shape[2:])
    seen = []
    inner = sv._r2c_planes
    monkeypatch.setattr(sv, "_r2c_planes", lambda s, o, c: seen.append(s.shape[:2]) or inner(s, o, c))
    for rows in (1, 3, grid[0]):
        seen.clear()
        got = []
        for group in groups:
            monkeypatch.setattr(sp, "_BLOCK_BYTES", rows * len(group) * row_bytes)
            got.append(sv._product_halves(phys, group, modes))
        assert np.array_equal(np.concatenate(got), ref), rows
        blocks = [min(rows, grid[0] - a) for a in range(0, grid[0], rows)]
        assert seen == [(n, b) for n in calls for b in blocks]


@pytest.mark.parametrize(
    "box, kind",
    [((8, 8, 2), "z-independent"), ((6, 4, 3), "random-divfree"), ((5, 7, 1), "q-perturbed")],
    ids=lambda c: str(c).replace(" ", ""),
)
def test_streamed_nonlinear_term_equals_one_analysis(monkeypatch, box, kind):
    """The nonlinear term streamed by blocks of one x row, of three, or of the whole
    grid is the same bits as all products analysed by one call, on the slab path (five
    products per block) and on the 3D path (one product at a time)."""
    d = sp.DomainSpec(l1=1.5, l2=1.0, eps=0.1, nu=1.0, n1=box[0], n2=box[1], n3=box[2])
    half = sv.make_initial(d, kind, u_target=1.0, seed=5).half
    grid = sp.default_grid(d)
    planar = kind == "z-independent"
    assert planar == (not half[..., 1:].any())
    ref = _stacked_reference(half, d, grid)
    # bytes of one x row of the products one block forms
    row_bytes = 8 * 5 * grid[1] if planar else 8 * grid[1] * grid[2]
    seen = []
    inner = sv._r2c_planes
    monkeypatch.setattr(sv, "_r2c_planes", lambda s, o, c: seen.append(s.shape[:2]) or inner(s, o, c))
    for rows in (1, 3, grid[0]):
        monkeypatch.setattr(sp, "_BLOCK_BYTES", rows * row_bytes)
        seen.clear()
        assert np.array_equal(sv._nonlinear_raw(half, d, grid, None), ref), rows
        blocks = [min(rows, grid[0] - a) for a in range(0, grid[0], rows)]
        assert seen == ([(5, b) for b in blocks] if planar else [(1, b) for b in blocks] * 6)


def test_contour_mean_per_distinct_z_equals_elementwise():
    """The weights evaluated once per distinct z equal those evaluated at every mode."""
    d = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.1, nu=0.3, n1=6, n2=6, n3=3)
    z = -d.nu * (2.0 * np.pi) ** 2 * sp.ksq_grid(d)[..., d.n3 :] * 1e-3
    assert np.unique(z).size < z.size / 4
    theta = np.pi * (np.arange(32) + 0.5) / 32
    for integrand in (
        lambda w: (np.exp(w) - 1.0) / w,
        lambda w: (-4.0 - w + (4.0 - 3.0 * w + w**2) * np.exp(w)) / w**3,
    ):
        elementwise = integrand(z[..., None] + np.exp(1j * theta)).mean(axis=-1).real
        assert np.array_equal(sv._contour_mean(integrand, z), elementwise)


def _taylor(z: np.ndarray, k: int) -> np.ndarray:
    """phi_k(z) = sum_j z^j / (j + k)!, converged to roundoff for |z| < 1."""
    return sum(z**j / math.factorial(j + k) for j in range(25))


def _closed_forms(z: np.ndarray) -> dict[str, np.ndarray]:
    """Exponential-integrator weights: expm1/exp forms for |z| >= 1, Taylor below."""
    big = np.abs(z) >= 1.0
    zb, zs = z[big], z[~big]
    e = np.exp(zb)
    t1, t2, t3 = (_taylor(zs, k) for k in (1, 2, 3))
    forms = {
        "p1": (np.expm1(zb) / zb, t1),
        "p2": ((np.expm1(zb) - zb) / zb**2, t2),
        "Q": (np.expm1(zb / 2.0) / zb, 0.5 * _taylor(zs / 2.0, 1)),
        "f1": ((-4.0 - zb + e * (4.0 - 3.0 * zb + zb**2)) / zb**3, t1 - 3.0 * t2 + 4.0 * t3),
        "f2": ((2.0 + zb + e * (zb - 2.0)) / zb**3, t2 - 2.0 * t3),
        "f3": ((-4.0 - 3.0 * zb - zb**2 + e * (4.0 - zb)) / zb**3, -t2 + 4.0 * t3),
    }
    out = {}
    for name, (large, small) in forms.items():
        out[name] = np.empty_like(z)
        out[name][big], out[name][~big] = large, small
    return out


@drawn
@given(domain=domains(), dt=st.floats(1e-4, 1.0))
def test_contour_weights_match_closed_forms(domain, dt):
    """The stepper's contour-mean weights equal their closed forms on the half box.

    The 5e-13 absolute floor covers f1's sign change near z = -2.7 and the
    contour points that pass within 0.025 of the origin when |z| is near 1.
    """
    z = -domain.nu * (2.0 * np.pi) ** 2 * sp.ksq_grid(domain)[..., domain.n3 :] * dt
    ref = _closed_forms(z)
    for scheme, names in (("etd-rk2", ("p1", "p2")), ("etd-rk4", ("Q", "f1", "f2", "f3"))):
        stepper = sv._Stepper(domain, dt, scheme)
        for name in names:
            np.testing.assert_allclose(
                getattr(stepper, name) / dt, ref[name], rtol=1e-12, atol=5e-13, err_msg=name
            )


@drawn
@given(domain=domains(), seed=seeds)
def test_advection_is_energy_neutral(domain, seed):
    """<N(u), u> = 0 for a 3D field and for its z-independent part (which keeps u3)."""
    u = sp.leray(sp.random_field(domain, np.random.default_rng(seed), slope=-1.0))
    for v in (u, sp.proj_p(u)):
        nl = sv.nonlinear_term(v)
        scale = sp.norm_l2(v) * sp.norm_l2(nl)
        assert abs(sp.inner_l2(v, nl)) <= 1e-13 * max(scale, 1e-300)


@drawn
@given(domain=domains(), target=st.tuples(*(st.integers(1, 5),) * 3), seed=seeds)
def test_truncate_commutes_with_leray(domain, target, seed):
    spec = sp.DomainSpec(domain.l1, domain.l2, domain.eps, domain.nu, *target)
    f = sp.random_field(domain, np.random.default_rng(seed))
    a = sp.truncate(sp.leray(f), spec).coeffs
    b = sp.leray(sp.truncate(f, spec)).coeffs
    assert np.array_equal(a, b)


@drawn
@given(domain=domains(), seed=seeds)
def test_rescale_then_inverse_returns_the_field(domain, seed):
    u = sp.leray(sp.random_field(domain, np.random.default_rng(seed)))
    res = gw.rescale(u)
    assert res.residual_u_identity <= 1e-12
    back = gw.inverse_rescale(res.u_tilde, domain)
    assert sp.norm_l2(back - u) <= 1e-13 * sp.norm_l2(u)


@drawn
@given(domain=domains(), seed=seeds, time=st.floats(0.0, 1e3), step=st.integers(0, 10**6))
def test_checkpoint_round_trip_is_bitwise(domain, seed, time, step):
    u = sp.leray(sp.random_field(domain, np.random.default_rng(seed), slope=-2.0))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "u.ckpt"
        sp.save_checkpoint(u, path, time=time, step=step)
        back, header = sp.load_checkpoint(path)
    assert back.domain == domain
    assert np.array_equal(back.coeffs, u.coeffs)
    assert (header["time"], header["step"]) == (time, step)


@drawn
@given(
    modes=st.lists(st.integers(1, 5), min_size=2, max_size=3),
    components=st.integers(1, 3),
    seed=seeds,
)
def test_checked_half_is_the_symmetrized_half(modes, components, seed):
    """_checked_hermitian of near-Hermitian input, on two or three mode axes, is byte for
    byte the last-axis n >= 0 half of the one-shot _symmetrize with the zero mode pinned;
    input far from Hermitian is rejected with the checked construction's message."""
    rng = np.random.default_rng(seed)
    nd = len(modes)
    shape = (components,) + tuple(2 * m + 1 for m in modes)
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c = hermitian(rng, shape, nd) + 1e-9 * noise
    want = sp._symmetrize(c, nd)
    want[(slice(None),) + tuple(modes)] = 0.0
    got = sp._checked_hermitian(c, shape, nd)
    assert got.tobytes() == np.ascontiguousarray(want[..., modes[-1] :]).tobytes()
    with pytest.raises(ValueError, match="not Hermitian .*symmetrize explicitly"):
        sp._checked_hermitian(c + noise, shape, nd)


@drawn
@given(domain=domains(max_n=8), seed=seeds, slope=st.sampled_from([0.0, -1.0, -1.5, -2.0]))
def test_random_field_equals_the_full_box_construction(domain, seed, slope):
    """random_field builds the p >= 0 half alone; it equals, bit for bit, the
    checked construction of the symmetrized full-box draw, and it leaves the
    generator where the full-box draw does."""
    rng = np.random.default_rng(seed)
    shape = (3,) + domain.shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if slope != 0.0:
        ksq = sp.ksq_grid(domain).copy()
        kmin2 = sp.min_nonzero_k(domain) ** 2
        ksq[domain.n1, domain.n2, domain.n3] = kmin2
        raw *= (ksq / kmin2) ** (slope / 2.0)
    ref = sp.SpectralField(domain, sp._symmetrize(raw, 3))
    got_rng = np.random.default_rng(seed)
    got = sp.random_field(domain, got_rng, slope=slope)
    assert got.half.tobytes() == ref.half.tobytes()
    assert got_rng.standard_normal() == rng.standard_normal()


@drawn
@given(domain=domains(max_n=8), exponent=st.sampled_from([2.5, 3.0, 3.5, 4.0]))
def test_thin_profile_equals_the_full_box_construction(domain, exponent):
    """_thin_profile builds the p >= 0 half alone; it equals, bit for bit, the
    checked construction of the full-box profile."""
    ksq = np.asarray(sp.ksq_grid(domain)).copy()
    ksq[domain.n1, domain.n2, domain.n3] = 1.0
    prof = ksq ** (-exponent / 2.0)
    prof[:, :, domain.n3] = 0.0
    raw = np.zeros((3,) + domain.shape, dtype=np.complex128)
    raw[0] = prof
    ref = sp.SpectralField(domain, raw)
    assert iq._thin_profile(domain, exponent).half.tobytes() == ref.half.tobytes()


@drawn
@given(domain=domains(), seed=seeds)
def test_projection_identities(domain, seed):
    """P + Q = R + S = I, each is idempotent, PQ = RS = 0, and P commutes with R."""
    f = sp.random_field(domain, np.random.default_rng(seed))
    P, Q, R, S = sp.proj_p, sp.proj_q, sp.proj_r, sp.proj_s
    zero = np.zeros_like(f.coeffs)
    assert np.array_equal((P(f) + Q(f)).coeffs, f.coeffs)
    assert np.array_equal((R(f) + S(f)).coeffs, f.coeffs)
    for op in (P, Q, R, S):
        assert np.array_equal(op(op(f)).coeffs, op(f).coeffs)
    assert np.array_equal(P(Q(f)).coeffs, zero)
    assert np.array_equal(R(S(f)).coeffs, zero)
    assert np.array_equal(P(R(f)).coeffs, R(P(f)).coeffs)


def _full_box_functionals(u: sp.SpectralField) -> tuple:
    """sample_functionals' row written out as sums over the full mode box."""
    d = u.domain
    abs2 = np.abs(u.coeffs) ** 2
    ksq = sp.ksq_grid(d)
    planar = np.zeros_like(abs2)
    planar[..., d.n3] = abs2[..., d.n3]

    def sq(part, power):
        return d.volume * float(np.sum((2 * np.pi) ** (2 * power) * ksq**power * part))

    theta2 = d.volume * float(np.sum(abs2))
    dr2, ds2, dw2 = sq(planar[:2], 1), sq(planar[2], 1), sq(abs2 - planar, 1)
    d2r2, d2s2, d2w2 = sq(planar[:2], 2), sq(planar[2], 2), sq(abs2 - planar, 2)
    du2, d2u2 = dr2 + ds2 + dw2, d2r2 + d2s2 + d2w2
    return tuple(np.sqrt([
        theta2, dr2 + dw2, ds2 + dw2, d2r2 + d2w2, d2s2 + d2w2, d2w2,
        theta2 + du2, theta2 + du2 + d2u2, dr2, ds2, d2r2, d2s2,
    ]))


@drawn
@given(domain=domains(), seed=seeds)
@example(domain=sp.DomainSpec(l1=1.5, l2=1.0, eps=0.1, nu=1.0, n1=3, n2=2, n3=1), seed=0)
def test_half_box_reductions_equal_full_box_sums(domain, seed):
    """Norms, inner products and diagnostics read from the stored half box
    equal the same sums written over the full box."""
    rng = np.random.default_rng(seed)
    c = hermitian(rng, (3,) + domain.shape, 3)
    c[:, domain.n1, domain.n2, domain.n3] = 0.0
    f = sp.SpectralField(domain, c)
    assert np.array_equal(f.coeffs, c)
    g = sp.random_field(domain, rng, slope=-1.0)
    vol = domain.volume
    assert sp.norm_l2(f) == pytest.approx(np.sqrt(vol * np.sum(np.abs(c) ** 2)), rel=1e-13)
    for alpha in (0.5, 1.0, 2.0):
        mult = (2 * np.pi) ** alpha * sp.ksq_grid(domain) ** (alpha / 2)
        ref = np.sqrt(vol * np.sum(mult**2 * np.abs(c) ** 2))
        assert sp.norm_ds(f, alpha) == pytest.approx(ref, rel=1e-13)
    inner = vol * np.real(np.sum(c * np.conj(g.coeffs)))
    assert abs(sp.inner_l2(f, g) - inner) <= 1e-13 * sp.norm_l2(f) * sp.norm_l2(g)
    for u in (f, sp.proj_p(f)):
        np.testing.assert_allclose(
            dg.sample_functionals(u), _full_box_functionals(u), rtol=1e-13, atol=0
        )


@drawn
@given(
    domain=domains(max_n=3),
    inequality=st.sampled_from(iq.INEQUALITIES),
    p=st.sampled_from([2.0, 3.0, 4.0, math.inf]),
    alpha=st.sampled_from([0.5, 1.0, 2.0]),
    refine=st.booleans(),
    seed=seeds,
)
def test_estimate_never_exceeds_its_upper_bound(domain, inequality, p, alpha, refine, seed):
    """Every ratio the search finds lies below the closed-form upper bound."""
    est = iq.estimate_constant(
        inequality, domain, budget=8, seed=seed, p=p, alpha=alpha, refine=refine
    )
    if est.upper_bound is not None:
        assert est.max_ratio <= est.upper_bound * (1 + 1e-12)
