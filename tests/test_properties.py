"""Property tests over small drawn boxes.

The draws cover l1 > l2, n1 != n2, n3 = 1 and odd and even grids.  Each
property is checked against an independent computation: a numpy.fft c2c
synthesis, scipy's multi-axis real transforms, closed forms of the
exponential-integrator weights, or an exact algebraic identity.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import scipy.fft
from hypothesis import example, given, settings, strategies as st

from thinflow import gronwall as gw
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
    """_synth on two or three mode axes equals a numpy.fft c2c synthesis."""
    nd = len(modes)
    grid = tuple(2 * n + 1 + p for n, p in zip(modes, pad))
    lead = (components,) if components else ()
    coeffs = hermitian(np.random.default_rng(seed), lead + tuple(2 * n + 1 for n in modes), nd)
    full = np.zeros(lead + grid, dtype=np.complex128)
    index = np.ix_(*(np.arange(-n, n + 1) % g for n, g in zip(modes, grid)))
    full[(...,) + index] = coeffs
    axes = tuple(range(-nd, 0))
    ref = np.fft.ifftn(full, axes=axes) * math.prod(grid)
    got = sp._synth(coeffs, grid)
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
    """_analyze after _synth on two or three axes returns the coefficients, exactly Hermitian."""
    nd = len(modes)
    grid = tuple(2 * n + 1 + p for n, p in zip(modes, pad))
    lead = (components,) if components else ()
    coeffs = hermitian(np.random.default_rng(seed), lead + tuple(2 * n + 1 for n in modes), nd)
    back = sp._analyze(sp._synth(coeffs, grid), tuple(modes))
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
    """_synth and _analyze give the same bits as scipy's irfftn/rfftn over the full grid."""
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
    assert np.array_equal(sp._synth(coeffs, grid), ref)

    samples = rng.standard_normal(lead + grid)
    full = scipy.fft.rfftn(samples, axes=axes, norm="forward")[(...,) + bins + (slice(None),)]
    ref = np.empty(coeffs.shape, dtype=np.complex128)
    ref[..., modes[-1] :] = full[..., : modes[-1] + 1]
    plane = ref[..., modes[-1]]
    plane[...] = 0.5 * (plane + np.conj(np.flip(plane, axis=axes[1:])))
    ref[..., : modes[-1]] = np.conj(np.flip(ref[..., modes[-1] + 1 :], axis=axes))
    assert np.array_equal(sp._analyze(samples, tuple(modes)), ref)


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
