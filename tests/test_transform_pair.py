"""Tests for the real transform pair and the divergence-form nonlinear term.

The reference for the nonlinear term is the advective form u . grad u,
computed here with full complex numpy.fft transforms on the same padded grid.
The domains cover odd and even grid sizes on every axis, n3 = 1, l1 > l2 and
n1 != n2.  Velocities are drawn both fully 3D and z-independent (with a
nonzero vertical component): the solver computes the nonlinear term of a
z-independent field from the p = 0 slab alone.
"""

import numpy as np
import pytest

from thinflow import solver as sv
from thinflow import spectral as sp

DOMAINS = [
    # grid (27, 27, 8): odd horizontal, even vertical
    sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=8, n2=8, n3=2),
    # grid (18, 24, 5): n3 = 1, l1 > l2, n1 != n2, odd vertical
    sp.DomainSpec(l1=1.5, l2=1.0, eps=0.2, nu=1.0, n1=5, n2=7, n3=1),
    # grid (20, 14, 11): l1 > l2, n1 > n2
    sp.DomainSpec(l1=2.0, l2=1.0, eps=0.1, nu=1.0, n1=6, n2=4, n3=3),
]
IDS = ["8x8x2", "5x7x1", "6x4x3"]
KINDS = ("random-divfree", "z-independent")


def is_hermitian(c: np.ndarray) -> bool:
    return bool(np.array_equal(c, np.conj(np.flip(c, axis=(-3, -2, -1)))))


def advective_reference(u: sp.SpectralField) -> np.ndarray:
    """-L(u . grad u) with complex numpy.fft transforms, one per field."""
    d = u.domain
    grid = sp.default_grid(d)
    k = sp.kvec_grids(d)
    bins = np.ix_(*(np.arange(-n, n + 1) % g for n, g in zip((d.n1, d.n2, d.n3), grid)))

    def synth(c):
        full = np.zeros(grid, dtype=complex)
        full[bins] = c
        return np.fft.ifftn(full).real * np.prod(grid)

    vel = [synth(u.coeffs[i]) for i in range(3)]
    adv = np.empty((3,) + d.shape, dtype=complex)
    for j in range(3):
        phys = sum(vel[i] * synth(2j * np.pi * k[i] * u.coeffs[j]) for i in range(3))
        adv[j] = (np.fft.fftn(phys) / np.prod(grid))[bins]
    ksq = np.where(sp.ksq_grid(d) == 0.0, 1.0, sp.ksq_grid(d))
    s = (k[0] * adv[0] + k[1] * adv[1] + k[2] * adv[2]) / ksq
    out = -np.stack([adv[i] - k[i] * s for i in range(3)])
    out[:, d.n1, d.n2, d.n3] = 0.0
    return out


def velocity(d: sp.DomainSpec, seed: int = 5, kind: str = "random-divfree") -> sp.SpectralField:
    return sv.make_initial(d, kind, u_target=1.0, seed=seed)


@pytest.mark.parametrize("d", DOMAINS, ids=IDS)
class TestTransformPair:
    def test_nonlinear_term_matches_advective_form(self, d):
        for kind in KINDS:
            u = velocity(d, kind=kind)
            assert np.max(np.abs(u.coeffs[2])) > 0.0
            got = sv.nonlinear_term(u).coeffs
            ref = advective_reference(u)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), kind

    def test_to_spectral_exactly_hermitian(self, d):
        rng = np.random.default_rng(11)
        f = sp.to_spectral(rng.standard_normal((3,) + sp.default_grid(d)), d)
        assert is_hermitian(f.coeffs)

    def test_nonlinear_term_exactly_hermitian(self, d):
        for kind in KINDS:
            assert is_hermitian(sv.nonlinear_term(velocity(d, kind=kind)).coeffs), kind

    @pytest.mark.parametrize("scheme", sv.SCHEMES)
    def test_step_exactly_hermitian(self, d, scheme):
        """A step's p < 0 half is the exact conjugate mirror of its p >= 0 half, on 3D data."""
        rng = np.random.default_rng(3)
        forcing = sv.ForcingSpec.steady(sp.random_field(d, rng), amplitude=0.1)
        cfg = sv.SolverConfig(dt=1e-3, t_end=1.0, scheme=scheme, enforce_cfl=False)
        for kind in ("random-divfree", "q-perturbed"):
            state = sv.step(sv.RunState(u=velocity(d, kind=kind), t=0.0, step=0), forcing, cfg)
            assert np.max(np.abs(state.u.coeffs[..., d.n3 + 1 :])) > 0.0, kind
            assert is_hermitian(state.u.coeffs), kind

    def test_round_trip(self, d):
        u = velocity(d)
        back = sp.to_spectral(sp.to_physical(u), d).coeffs
        assert np.max(np.abs(back - u.coeffs)) <= 1e-14 * np.max(np.abs(u.coeffs))

    def test_planar_data_stays_planar(self, d):
        u = sv.make_initial(d, "z-independent", u_target=1.0, seed=7)
        nl = sv.nonlinear_term(u).coeffs
        assert np.max(np.abs(nl)) > 0.0
        assert not np.delete(nl, d.n3, axis=-1).any()


def synthesis_dims(monkeypatch) -> list[int]:
    """Record the number of grid axes every synthesis transforms, as a tracer would.

    Each synthesis makes one c2c call over all but the last grid axis, so
    that is its axis count plus one.
    """
    dims = []
    inner = sp.ifftn

    def traced(x, *args, axes, **kwargs):
        dims.append(len(axes) + 1)
        return inner(x, *args, axes=axes, **kwargs)

    monkeypatch.setattr(sp, "ifftn", traced)
    return dims


def test_planar_fields_take_the_slab_path(monkeypatch):
    """Only exactly z-independent input runs the 2D transforms; one subnormal p != 0 mode does not."""
    d = DOMAINS[1]
    u = velocity(d, kind="z-independent")
    dims = synthesis_dims(monkeypatch)
    sv.nonlinear_term(u)
    assert dims == [2]

    c = u.coeffs.copy()
    # the (0, 0, +-1) mode of u1 is orthogonal to its k, so u stays divergence-free
    c[0, d.n1, d.n2, d.n3 + 1] = c[0, d.n1, d.n2, d.n3 - 1] = 5e-324
    tiny = sp.SpectralField(d, c)
    assert tiny.coeffs[0, d.n1, d.n2, d.n3 + 1] == 5e-324
    dims.clear()
    sv.nonlinear_term(tiny)
    assert dims == [3]


def test_planar_data_with_3d_forcing_leaves_the_slab_path(monkeypatch):
    """Only the first evaluation, on the planar u0 itself, is 2D; the forcing makes every later one 3D."""
    d = DOMAINS[1]
    profile = velocity(d, seed=9)
    forcing = sv.ForcingSpec.steady(profile, amplitude=0.5)
    cfg = sv.SolverConfig(dt=1e-3, t_end=1.0, scheme="etd-rk2")
    state = sv.RunState(u=velocity(d, kind="z-independent"), t=0.0, step=0)
    dims = synthesis_dims(monkeypatch)
    for _ in range(3):
        state = sv.step(state, forcing, cfg)
    assert dims == [2, 3] + [3, 3] * 2


def test_3d_nonlinear_term_calls_the_traced_transforms(monkeypatch):
    """A 3D evaluation runs one c2c call each through spectral.ifftn and spectral.fftn.

    perfbench's tracer counts FFTs by wrapping exactly these two names.
    """
    calls = []
    for name in ("ifftn", "fftn"):
        inner = getattr(sp, name)
        monkeypatch.setattr(
            sp, name, lambda x, *a, _n=name, _f=inner, **k: calls.append(_n) or _f(x, *a, **k)
        )
    sv.nonlinear_term(velocity(DOMAINS[0]))
    assert calls == ["ifftn", "fftn"]
