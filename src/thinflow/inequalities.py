"""Empirical best-constant estimation for the functional inequalities.

estimate_constant maximizes the ratio LHS/RHS of an inequality over trial
fields plus a derivative-free refinement pass, so every reported constant is
a certified lower bound on the true one: the maximizing field is stored and
reproduces the ratio.  Where the retained mode box admits a closed-form
upper bound (_upper_bound), the estimate carries it too, so [max_ratio,
upper_bound] brackets the constant on the discrete space.  Planar and 3D
inequalities share one pipeline: a list of deterministic near-extremal
trials, then one random loop that picks a family and draws complex white
noise times that family's envelope (computed once per call), then
coordinate ascent on the best trial.  When a deterministic trial already
meets the upper bound (thin-sup, poincare, hausdorff-young at p = 2 and
p = inf), the bracket is closed and the random trials and the ascent are skipped.

Inequalities (keys accepted by estimate_constant):

    thin-sup         sup |w|  <= C ||D^2 w||_2   for w with no vertical mean
    thin-l4          ||w||_4  <= C ||D w||_2     for w with no vertical mean
    planar-l4        ||f||_4  <= C ||D^(1/2) f||_2   for 2D mean-zero f
    poincare         ||f||_2  <= C ||D^alpha f||_2
    hausdorff-young  ||w||_p  <= V^(1/p) (sum |w_hat|^p')^(1/p'),  p' = p/(p-1)

The thin-domain constants are expected to scale like eps^(1/2) (sup case)
and eps^(1/4) (L4 case); fit_eps_scaling turns a sweep of estimates into a
log-log slope.  The sup norm is approximated on a 4x oversampled grid
(documented approximation: the sup of a band-limited function is read off
dense samples); the L4 norms use exact quadrature of the quartic.  Both
grid norms reduce |u|^2 by blocks of whole x rows, under the nonlinear
term's block budget (_grid_mag2_blocks, spectral._block_rows): the x pass
of each nonzero component's p >= 0 planes runs once, on the occupied y
columns only, and each block runs the y pass on its rows and the z
synthesis as one small real matrix product, so neither the full 3D grid nor
a horizontal slab is held.  The 3D random trials are drawn in one
component, and the thin profiles are built on the p >= 0 half box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.fft import ifft2, next_fast_len

from .artifacts import record, write_csv
from .spectral import (
    DomainSpec,
    SpectralField,
    ksq_grid,
    min_nonzero_k,
    mode_range,
    norm_ds,
    norm_l2,
    poincare_constant,
    _checked_hermitian,
    _block_rows,
    _box_sum,
    _half_shape,
    _hermitian_half,
    _mirror,
    _symmetrize,
    _synth_half,
)

__all__ = [
    "Field2D",
    "ConstantEstimate",
    "DyadicProfile",
    "ScalingFit",
    "INEQUALITIES",
    "estimate_constant",
    "fit_eps_scaling",
    "dyadic_decompose",
    "thin_sweep_resolution",
    "single_mode_floor_planar_l4",
    "write_sweep_csv",
]

INEQUALITIES = ("thin-sup", "thin-l4", "planar-l4", "poincare", "hausdorff-young")


# ---------------------------------------------------------------------------
# 2D scalar fields (the planar-l4 inequality and the dyadic decomposition
# live on the horizontal box alone).
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _planar_kmag(l1: float, l2: float, n1: int, n2: int) -> np.ndarray:
    """|r| = sqrt(r1^2/l1^2 + r2^2/l2^2) over the planar mode box (read-only)."""
    k1 = (mode_range(n1) / l1).reshape(-1, 1)
    k2 = (mode_range(n2) / l2).reshape(1, -1)
    kmag = np.sqrt(k1 * k1 + k2 * k2)
    kmag.flags.writeable = False
    return kmag


class Field2D:
    """Immutable real mean-zero scalar field on the horizontal periodic box, stored as
    the read-only half c[m + n1, n], n = 0 .. n2, of its mode slab, as a SpectralField
    is; ``coeffs`` is the full slab, the half's conjugate mirror (a new read-only array).
    Field2D(l1, l2, n1, n2, coeffs) takes a full slab through the checked construction."""

    __slots__ = ("l1", "l2", "n1", "n2", "half")

    def __init__(self, l1: float, l2: float, n1: int, n2: int, coeffs: np.ndarray):
        half = _checked_hermitian(coeffs, (2 * n1 + 1, 2 * n2 + 1), 2)
        for name, value in zip(self.__slots__, (float(l1), float(l2), int(n1), int(n2), half)):
            object.__setattr__(self, name, value)

    @classmethod
    def _wrap(cls, l1: float, l2: float, n1: int, n2: int, half: np.ndarray) -> "Field2D":
        """Unchecked fast path for the n >= 0 half of an exactly Hermitian slab (internal
        use).  Takes ownership of a fresh array (a strided one is copied) and freezes it."""
        out = object.__new__(cls)
        arr = np.ascontiguousarray(half, dtype=np.complex128)
        arr[n1, 0] = 0.0
        arr.flags.writeable = False
        for name, value in zip(cls.__slots__, (l1, l2, n1, n2, arr)):
            object.__setattr__(out, name, value)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Field2D is immutable")

    @property
    def coeffs(self) -> np.ndarray:
        """The full mode slab, mirrored from the half (a new read-only array)."""
        return _mirror(self.half, 2)

    @property
    def area(self) -> float:
        return self.l1 * self.l2

    def norm_l2(self) -> float:
        return float(np.sqrt(self.area * _box_sum(np.abs(self.half) ** 2, 2)))

    def norm_ds(self, alpha: float) -> float:
        kmag = _planar_kmag(self.l1, self.l2, self.n1, self.n2)[:, self.n2 :]
        mult = (2.0 * np.pi * kmag) ** alpha
        mult[self.n1, 0] = 0.0
        return float(np.sqrt(self.area * _box_sum(mult**2 * np.abs(self.half) ** 2, 2)))

    def norm_l4(self) -> float:
        """Exact quadrature of the quartic on a grid of at least 4n + 2 points per axis."""
        grid = (next_fast_len(4 * self.n1 + 2), next_fast_len(4 * self.n2 + 2))
        quartic = _synth_half(self.half, grid) ** 2
        quartic *= quartic
        return float((self.area * np.mean(quartic)) ** 0.25)

    def embed(self, eps: float, nu: float = 1.0) -> SpectralField:
        """3D single-component embedding with n3 = 1 (for checkpointing a maximizer)."""
        spec = DomainSpec(l1=self.l1, l2=self.l2, eps=eps, nu=nu, n1=self.n1, n2=self.n2, n3=1)
        half = np.zeros(_half_shape(spec), dtype=np.complex128)
        half[0, :, :, 0] = self.coeffs
        # the mirror writes conj(+0.0) as -0.0, where symmetrizing the full slab wrote +0.0
        half[0, :, :, 0].imag += 0.0
        return SpectralField._wrap(spec, half)


# ---------------------------------------------------------------------------
# Dyadic block decomposition.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DyadicProfile:
    """Block norms A_m over the rings 2^m <= |r| < 2^(m+1), m >= 0.

    total_sq collects sum A_m^2 (equals the coefficient mass at |r| >= 1),
    weighted_sq collects sum 2^m A_m^2, and multiplier_constant is the
    explicit constant for weighted_sq <= c ||D^(1/2) f||_2^2 coming from
    2^m <= |r| on each block, namely 1/(2 pi l1 l2).
    """

    block_norms: np.ndarray
    total_sq: float
    weighted_sq: float
    half_deriv_norm: float
    multiplier_constant: float

    @property
    def satisfies_multiplier_bound(self) -> bool:
        bound = self.multiplier_constant * self.half_deriv_norm**2
        return self.weighted_sq <= bound * (1.0 + 1e-12)


def dyadic_decompose(f: Field2D) -> DyadicProfile:
    """Littlewood-Paley style block profile of a 2D mean-zero field."""
    kmag = _planar_kmag(f.l1, f.l2, f.n1, f.n2)
    abs2 = np.abs(f.coeffs) ** 2
    mask = kmag >= 1.0
    if not np.any(mask):
        return DyadicProfile(np.zeros(0), 0.0, 0.0, f.norm_ds(0.5), 1.0 / (2 * np.pi * f.area))
    m_of = np.floor(np.log2(kmag, where=mask, out=np.zeros_like(kmag))).astype(int)
    m_max = int(np.max(m_of[mask]))
    blocks = np.zeros(m_max + 1)
    np.add.at(blocks, m_of[mask], abs2[mask])
    block_norms = np.sqrt(blocks)
    weights = 2.0 ** np.arange(m_max + 1)
    return DyadicProfile(
        block_norms=block_norms,
        total_sq=float(np.sum(blocks)),
        weighted_sq=float(np.sum(weights * blocks)),
        half_deriv_norm=f.norm_ds(0.5),
        multiplier_constant=1.0 / (2.0 * np.pi * f.area),
    )


# ---------------------------------------------------------------------------
# Ratio evaluation.
# ---------------------------------------------------------------------------

def _grid_mag2_blocks(u: SpectralField, grid: tuple[int, int, int]):
    """Yield |u|^2 on the periodic (gx, gy, gz) grid, one (gz, rows * gy) block of
    whole x rows of the (gz, gx * gy) array at a time, in row order, as many rows
    as fit in spectral._BLOCK_BYTES (_block_rows).

    The p < 0 slabs are the conjugate mirrors of the p >= 0 ones, so
    w(., ., z) = W_0 + 2 Re sum_{p>0} W_p e^(2 pi i p z / eps), where W_p is
    the horizontal synthesis of plane p.  Per nonzero component the x pass
    runs once, on the M2 occupied y columns only, into an (n3 + 1, gx, M2)
    array.  Each block runs the y pass on its rows, once each, in one reused
    (n3 + 1, rows, gy) buffer.  Every y line is the same transform as in a
    two-axis ifft2 over the whole slab, whose x pass would only turn gy - M2
    columns of exact zeros into exact zeros.  The z synthesis of the block is
    one real matrix product of cos / -sin weights with the stacked real and
    imaginary parts of W_p there, squared and summed over the components in
    component order; every element is the same dot product as in a product
    over all columns at once, so the samples do not depend on the blocking.
    Components that are identically zero are skipped, and neither the grid
    nor a horizontal (n3 + 1, gx, gy) slab is held.  A field with no nonzero
    component yields a single zero sample.  The yielded block is reused:
    consume it before the next.
    """
    gx, gy, gz = grid
    n1, n2, n_pos = u.domain.n1, u.domain.n2, u.domain.n3 + 1
    x_passes = []
    for comp in u.half:
        if comp.any():
            columns = np.zeros((n_pos, gx, 2 * n2 + 1), dtype=np.complex128)
            columns[:, np.arange(-n1, n1 + 1) % gx] = np.moveaxis(comp, -1, 0)
            x_passes.append(
                ifft2(columns, axes=(-2,), norm="forward", workers=1, overwrite_x=True)
            )
    if not x_passes:
        yield np.zeros((1, 1))
        return
    theta = 2.0 * np.pi * np.outer(np.arange(gz), np.arange(n_pos)) / gz
    weight = np.where(np.arange(n_pos) == 0, 1.0, 2.0)
    synth = np.hstack([weight * np.cos(theta), -weight * np.sin(theta)])
    rows = min(_block_rows(8 * gy * gz), gx)
    y_bins = np.arange(-n2, n2 + 1) % gy
    buf = np.empty((n_pos, rows, gy), dtype=np.complex128)
    stack = None
    for r0 in range(0, gx, rows):
        r1 = min(r0 + rows, gx)
        width = (r1 - r0) * gy
        if stack is None or stack.shape[1] != width:  # the first, or the partial last block
            stack = np.empty((2 * n_pos, width))
            mag2 = np.empty((gz, width))
            w = np.empty_like(mag2)
        block = buf[:, : r1 - r0]
        for i, x_pass in enumerate(x_passes):
            block.fill(0.0)
            block[:, :, y_bins] = x_pass[:, r0:r1]
            block[...] = ifft2(block, axes=(-1,), norm="forward", workers=1, overwrite_x=True)
            plane = block.reshape(n_pos, width)
            np.copyto(stack[:n_pos], plane.real)
            np.copyto(stack[n_pos:], plane.imag)
            out = np.matmul(synth, stack, out=mag2 if i == 0 else w)
            out *= out
            if i:
                mag2 += w
        yield mag2


def _oversampled_grid(d: DomainSpec, oversample: int) -> tuple[int, int, int]:
    return (
        next_fast_len(oversample * (2 * d.n1 + 1)),
        next_fast_len(oversample * (2 * d.n2 + 1)),
        oversample * (2 * d.n3 + 1),
    )


def sup_norm(u: SpectralField, oversample: int = 4) -> float:
    """sup |u| read off an oversampled grid."""
    blocks = _grid_mag2_blocks(u, _oversampled_grid(u.domain, oversample))
    return float(np.sqrt(np.max([np.max(block) for block in blocks])))


def lp_norm(u: SpectralField, p: float, oversample: int = 4) -> float:
    """||u||_p by grid quadrature.

    Exact for p = 2 and p = 4 (the quartic is integrated on a grid of at
    least 4n + 2 points per axis); other exponents are approximations on the
    oversampled grid.
    """
    d = u.domain
    if p == 2.0:
        return norm_l2(u)
    if np.isinf(p):
        return sup_norm(u, oversample)
    if p == 4.0:
        grid = (next_fast_len(4 * d.n1 + 2), next_fast_len(4 * d.n2 + 2), 4 * d.n3 + 2)
    else:
        grid = _oversampled_grid(d, oversample)
    total = 0.0
    for block in _grid_mag2_blocks(u, grid):
        total += float(np.sum(np.power(block, p / 2.0, out=block)))
    return float((d.volume * (total / (grid[0] * grid[1] * grid[2]))) ** (1.0 / p))


def _ratio_thin_sup(u: SpectralField, oversample: int) -> float:
    den = norm_ds(u, 2.0)
    return sup_norm(u, oversample) / den if den > 0 else 0.0


def _ratio_thin_l4(u: SpectralField, oversample: int) -> float:
    den = norm_ds(u, 1.0)
    return lp_norm(u, 4.0, oversample) / den if den > 0 else 0.0


def _ratio_planar_l4(f: Field2D) -> float:
    den = f.norm_ds(0.5)
    return f.norm_l4() / den if den > 0 else 0.0


def _ratio_poincare(u: SpectralField, alpha: float) -> float:
    den = norm_ds(u, alpha)
    return norm_l2(u) / den if den > 0 else 0.0


def _ratio_hausdorff_young(u: SpectralField, p: float, oversample: int) -> float:
    pprime = 1.0 if np.isinf(p) else p / (p - 1.0)
    vol_factor = 1.0 if np.isinf(p) else u.domain.volume ** (1.0 / p)
    den = vol_factor * _box_sum(np.abs(u.half) ** pprime) ** (1.0 / pprime)
    return lp_norm(u, p, oversample) / den if den > 0 else 0.0


# ---------------------------------------------------------------------------
# Trial ensembles.
# ---------------------------------------------------------------------------

def _draw(rng, shape: tuple[int, ...], envelope) -> np.ndarray:
    """Complex white noise (real part drawn first) times an amplitude envelope."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * envelope


def _thin_profile(spec: DomainSpec, exponent: float) -> SpectralField:
    """Deterministic positive-coefficient profile |k|^(-exponent) on p != 0.

    For the sup inequality the exponent 4 profile attains the Cauchy-Schwarz
    bound exactly on the retained box (all coefficients positive, so the sup
    sits at the origin and equals the coefficient sum).  Built on the p >= 0
    half box: |k|^2 is exactly even in k, so the profile is its own
    conjugate mirror.
    """
    ksq = np.ascontiguousarray(ksq_grid(spec)[..., spec.n3 + 1 :])
    half = np.zeros(_half_shape(spec), dtype=np.complex128)
    half[0, :, :, 1:] = ksq ** (-exponent / 2.0)
    return SpectralField._wrap(spec, half)


def single_mode_floor_planar_l4(l1: float = 1.0, l2: float = 1.0) -> float:
    """Analytic planar-l4 ratio of the single cosine mode cos(2 pi x / l1).

    Closed form: ||f||_4 = (3/8)^(1/4) (l1 l2)^(1/4) from the quartic cosine
    integral, and the conjugate pair at r = (+-1, 0) gives
    ||D^(1/2) f||_2^2 = 2 pi (l1 l2 / l1) * 1/2, so for l1 = l2 = 1 the
    ratio is (3/8)^(1/4) / sqrt(pi) ~ 0.44150.
    """
    l4 = (3.0 / 8.0) ** 0.25 * (l1 * l2) ** 0.25
    d_half = np.sqrt(2.0 * np.pi * (1.0 / l1) * (l1 * l2) * 0.5)
    return float(l4 / d_half)


@dataclass
class ConstantEstimate:
    """Best found LHS/RHS ratio with the maximizing field, and the closed-form
    upper bound on the ratio over the retained box (None where there is none)."""

    inequality: str
    l1: float
    l2: float
    eps: float | None
    resolution: tuple[int, ...]
    trial_count: int
    max_ratio: float
    maximizer: object
    best_trial_kind: str
    upper_bound: float | None = None
    params: dict = field(default_factory=dict)
    ensemble_best: dict = field(default_factory=dict)

    def reproduced_ratio(self) -> float:
        """Re-evaluate the stored maximizer (certified-lower-bound check)."""
        return _RATIO_DISPATCH[self.inequality](self.maximizer, self.params)

    def to_dict(self) -> dict:
        return record(self, exclude=("maximizer",))


_RATIO_DISPATCH = {
    "thin-sup": lambda u, params: _ratio_thin_sup(u, params.get("oversample", 4)),
    "thin-l4": lambda u, params: _ratio_thin_l4(u, params.get("oversample", 4)),
    "planar-l4": lambda f, params: _ratio_planar_l4(f),
    "poincare": lambda u, params: _ratio_poincare(u, params.get("alpha", 1.0)),
    "hausdorff-young": lambda u, params: _ratio_hausdorff_young(
        u, params.get("p", 4.0), params.get("oversample", 4)
    ),
}


#: number of dominant coefficients the refinement perturbs
_REFINE_TOP_K = 40


def _refine_coordinates(best, ratio_fn, budget: int):
    """Cyclic coordinate ascent on the largest coefficients of the incumbent.

    Perturbs real and imaginary parts of the dominant modes (keeping the
    Hermitian mirror in sync), with a step that shrinks whenever a full pass
    yields no improvement.  Derivative-free and deterministic.
    """
    if budget <= 0:
        return best, 0.0
    # the incumbent (a mirror) and each candidate (a _symmetrize) are exactly Hermitian
    if isinstance(best, Field2D):
        make = lambda c: Field2D._wrap(best.l1, best.l2, best.n1, best.n2, c[..., best.n2 :])
        nd = 2
    else:
        make = lambda c: SpectralField._wrap(best.domain, c[..., best.domain.n3 :])
        nd = 3
    coeffs = best.coeffs.copy()
    flat = np.abs(coeffs).ravel()
    # descending, ties (a Hermitian pair) in index order on every SIMD dispatch level
    order = np.argsort(-flat, kind="stable")[: min(_REFINE_TOP_K, flat.size)]
    scale = float(np.max(flat))
    if scale == 0.0:
        return best, 0.0
    best_ratio = ratio_fn(make(coeffs))
    step = 0.25
    evals = 0
    improved_any = False
    while evals < budget and step > 1e-3:
        improved = False
        for idx in order:
            if evals >= budget:
                break
            for delta in (step * scale, -step * scale, 1j * step * scale, -1j * step * scale):
                cand = coeffs.copy()
                cand.ravel()[idx] += delta
                cand = _symmetrize(cand, nd)
                r = ratio_fn(make(cand))
                evals += 1
                if r > best_ratio * (1.0 + 1e-12):
                    coeffs, best_ratio, improved = cand, r, True
                    improved_any = True
                    break
                if evals >= budget:
                    break
        if not improved:
            step *= 0.5
    return (make(coeffs) if improved_any else best), best_ratio


#: relative gap under which the best deterministic ratio meets the upper bound
_BRACKET_RTOL = 1e-12


def _upper_bound(inequality: str, domain: DomainSpec, params: dict) -> float | None:
    """Closed-form upper bound on the ratio over the retained mode box.

    With a_k = 2 pi |k|, S = sum over the p != 0 modes of a_k^-4 and V the
    box volume:

        thin-sup         (S/V)^(1/2): sup |w| <= sum |c_k|, then Cauchy-Schwarz
                         against ||D^2 w||_2^2 = V sum a_k^4 |c_k|^2; positive
                         coefficients proportional to |k|^-4 attain it
        thin-l4          (S/V)^(1/4): Hausdorff-Young ||w||_4 <= V^(1/4) ||c||_(4/3),
                         then Hoelder with exponents (3/2, 3)
        planar-l4        A^(-1/4) (sum_{r != 0} a_r^-2)^(1/4), the same argument
                         against D^(1/2) on the horizontal box of area A
        poincare         poincare_constant, attained by the lowest mode
        hausdorff-young  1 for p >= 2 (Riesz-Thorin; Parseval-exact at p = 2),
                         None below 2

    The bounds hold for the exact norms; the sup is read off grid samples,
    which cannot exceed it, and the L4 quadrature is exact.
    """
    if inequality in ("thin-sup", "thin-l4"):
        a2 = 4.0 * np.pi**2 * np.delete(np.asarray(ksq_grid(domain)), domain.n3, axis=-1)
        s_over_v = float(np.sum(a2**-2.0)) / domain.volume
        return s_over_v ** (0.5 if inequality == "thin-sup" else 0.25)
    if inequality == "planar-l4":
        kmag = _planar_kmag(domain.l1, domain.l2, domain.n1, domain.n2)
        s = float(np.sum((2.0 * np.pi * kmag[kmag > 0]) ** -2.0))
        return (s / (domain.l1 * domain.l2)) ** 0.25
    if inequality == "poincare":
        return poincare_constant(domain, params["alpha"])
    return 1.0 if params["p"] >= 2.0 else None


def estimate_constant(
    inequality: str,
    domain: DomainSpec,
    budget: int = 200,
    seed: int = 0,
    oversample: int = 4,
    alpha: float = 1.0,
    p: float = 4.0,
    refine: bool = True,
) -> ConstantEstimate:
    """Randomized lower-bound estimation of an inequality constant.

    budget caps the ratio evaluations and is split between the trials (the
    deterministic ones, then random draws from white, power-law or dyadic
    block families) and the coordinate-ascent refinement of the best trial.
    A closed bracket stops the search: when the best deterministic ratio is
    within _BRACKET_RTOL of the closed-form upper bound, no trial can raise
    it, so the random trials and the refinement are skipped and trial_count
    reports the trials actually made.
    """
    if inequality not in INEQUALITIES:
        raise ValueError(f"unknown inequality {inequality!r}; pick one of {INEQUALITIES}")
    if budget <= 0:
        raise ValueError("budget must be positive")
    if not p > 1.0 or oversample < 1:
        raise ValueError(f"need p > 1 and oversample >= 1, got p={p}, oversample={oversample}")
    rng = np.random.default_rng(seed)
    params = {"oversample": oversample, "alpha": alpha, "p": p}

    trial_budget = budget if not refine else max(budget // 2, 1)
    refine_budget = budget - trial_budget if refine else 0

    # fixed: the deterministic (kind, trial) list; random_families(): a
    # (kind, envelope) per random family, or a list of them from which a second
    # draw picks one, built only for an open bracket (it draws nothing);
    # random_trial: the trial of one envelope
    if inequality == "planar-l4":
        n1, n2 = domain.n1, domain.n2
        kmag = _planar_kmag(domain.l1, domain.l2, n1, n2)
        kmag_safe = np.where(kmag == 0, 1.0, kmag)
        wrap = lambda half: Field2D._wrap(domain.l1, domain.l2, n1, n2, half)
        make = lambda c: wrap(c[:, n2:])
        # the single-mode floor first: it is also the analytic regression target
        single = np.zeros(kmag.shape, dtype=np.complex128)
        single[n1 + 1, n2] = 0.5
        single[n1 - 1, n2] = 0.5
        fixed = [("single-mode", make(single))] + [
            (f"profile-{s}", make((kmag_safe**-s) * (kmag >= 1.0)))
            for s in (1.0, 1.25, 1.5, 1.75, 2.0)
        ]

        def random_families() -> list:
            n_blocks = max(1, int(np.log2(max(np.max(kmag), 2.0))))
            blocks = [
                (f"block-{m}", ((kmag >= 2.0**m) & (kmag < 2.0 ** (m + 1))).astype(float))
                for m in range(n_blocks)
            ]
            return [
                ("white", 1.0),
                ("powerlaw-1", kmag_safe**-1.0),
                ("powerlaw-1.5", kmag_safe**-1.5),
                blocks,
            ]

        random_trial = lambda env: wrap(_hermitian_half(_draw(rng, kmag.shape, env), 2))
    else:
        q_constrained = inequality != "poincare"
        if q_constrained:
            # deterministic near-extremal profiles on the range of Q
            exponents = (4.0,) if inequality == "thin-sup" else (2.5, 3.0, 3.5)
            fixed = [(f"profile-{e}", _thin_profile(domain, e)) for e in exponents]
        else:
            # the lowest mode lies along x (DomainSpec enforces l1 >= l2 > 4 eps): a
            # conjugate pair of 0.25 in the p = 0 plane
            lowest = np.zeros(_half_shape(domain), dtype=np.complex128)
            lowest[0, [domain.n1 - 1, domain.n1 + 1], domain.n2, 0] = 0.25
            fixed = [("lowest-mode", SpectralField._wrap(domain, lowest))]

        def random_families() -> list:
            ksq = np.asarray(ksq_grid(domain))
            kmin2 = min_nonzero_k(domain) ** 2
            ksq_safe = np.where(ksq == 0, kmin2, ksq)
            return [
                ("random-0", 1.0),
                ("random-1", (ksq_safe / kmin2) ** -0.5),
                ("random-2", (ksq_safe / kmin2) ** -1.0),
            ]

        def random_trial(env) -> SpectralField:
            # one nonzero component, symmetrized alone; _wrap pins its zero mode
            raw = _draw(rng, domain.shape, env)
            if q_constrained:
                raw[:, :, domain.n3] = 0.0  # no vertical mean: live in the range of Q
            half = np.zeros(_half_shape(domain), dtype=np.complex128)
            half[0] = _hermitian_half(raw, 3)
            return SpectralField._wrap(domain, half)

    ratio_fn = lambda cand: _RATIO_DISPATCH[inequality](cand, params)
    best = None
    best_ratio = -1.0
    best_kind = ""
    ensemble_best: dict[str, float] = {}
    trials = 0

    def consider(candidate, kind: str):
        nonlocal best, best_ratio, best_kind, trials
        r = ratio_fn(candidate)
        trials += 1
        ensemble_best[kind] = max(ensemble_best.get(kind, 0.0), r)
        if r > best_ratio:
            best, best_ratio, best_kind = candidate, r, kind

    for kind, trial in fixed:
        consider(trial, kind)
    upper = _upper_bound(inequality, domain, params)
    closed = upper is not None and best_ratio >= upper * (1.0 - _BRACKET_RTOL)
    if not closed:
        families = random_families()
        while trials < trial_budget:
            family = families[int(rng.integers(0, len(families)))]
            if isinstance(family, list):
                family = family[int(rng.integers(0, len(family)))]
            kind, env = family
            consider(random_trial(env), kind)
        if refine and refine_budget > 0:
            refined, refined_ratio = _refine_coordinates(best, ratio_fn, refine_budget)
            if refined_ratio > best_ratio:
                best, best_ratio = refined, refined_ratio
                best_kind += "+ascent"

    res = (domain.n1, domain.n2) if inequality == "planar-l4" else (domain.n1, domain.n2, domain.n3)
    return ConstantEstimate(
        inequality=inequality,
        l1=domain.l1,
        l2=domain.l2,
        eps=None if inequality == "planar-l4" else domain.eps,
        resolution=res,
        trial_count=trials,
        max_ratio=best_ratio,
        maximizer=best,
        best_trial_kind=best_kind,
        upper_bound=upper,
        params=params,
        ensemble_best=ensemble_best,
    )


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares log-log slope of max_ratio against eps."""

    inequality: str
    eps_values: np.ndarray
    max_ratios: np.ndarray
    slope: float
    intercept: float
    stderr: float
    expected_slope: float | None
    normalized_ratios: np.ndarray

    def to_dict(self) -> dict:
        return record(self)


_EXPECTED_SLOPE = {"thin-sup": 0.5, "thin-l4": 0.25}


def fit_eps_scaling(
    inequality: str,
    eps_values,
    estimates: list[ConstantEstimate],
) -> ScalingFit:
    """Slope of log(max_ratio) vs log(eps) over a sweep of estimates.

    Needs at least 3 points (4+, geometric, recommended).  The normalized
    ratios divide out the predicted eps power, so a correct scaling reads
    as flatness.
    """
    eps_values = np.asarray(eps_values, dtype=float)
    if len(eps_values) < 3:
        raise ValueError("need at least 3 eps values to fit a slope")
    if len(estimates) != len(eps_values):
        raise ValueError("one estimate per eps value required")
    ratios = np.array([e.max_ratio for e in estimates])
    x = np.log(eps_values)
    y = np.log(ratios)
    coef, cov = np.polyfit(x, y, 1, cov=True)
    slope, intercept = float(coef[0]), float(coef[1])
    stderr = float(np.sqrt(cov[0, 0]))
    expected = _EXPECTED_SLOPE.get(inequality)
    normalized = ratios / eps_values ** (expected if expected is not None else 0.0)
    return ScalingFit(
        inequality=inequality,
        eps_values=eps_values,
        max_ratios=ratios,
        slope=slope,
        intercept=intercept,
        stderr=stderr,
        expected_slope=expected,
        normalized_ratios=normalized,
    )


#: beta = n1 eps / l1, the horizontal band a thin-constant sweep keeps per 1/eps
_SWEEP_BETA = 0.25


def thin_sweep_resolution(
    eps: float, l1: float = 4.0, cap: int = 64, n3: int = 2
) -> tuple[int, int, int]:
    """Horizontal resolution rule for thin-constant sweeps.

    The extremizing fields concentrate at horizontal frequency ~ 1/eps, so
    the retained horizontal band n1/l1 must track beta/eps; keeping
    beta = n1 eps / l1 constant across a sweep removes the truncation's own
    eps dependence from the fitted slope.  With the default l1 = 4 box this
    is n1 = 1/eps for the usual dyadic eps sweep.
    """
    n = int(min(cap, max(4, round(_SWEEP_BETA * l1 / eps))))
    return (n, n, n3)


def write_sweep_csv(path, eps_values, estimates: list[ConstantEstimate]) -> None:
    """One row per estimate; eps is written as str(eps), so 0.1 stays 0.1.

    max_ratio and upper_bound are the two ends of the bracket; upper_bound is
    an empty cell where the inequality has no closed-form bound, and trials
    is the number of trials made (fewer than the budget allows when the
    bracket closed).
    """
    rows = []
    for eps, est in zip(eps_values, estimates):
        res = est.resolution if len(est.resolution) == 3 else est.resolution + (0,)
        rows.append([
            str(eps), *res, est.max_ratio, est.upper_bound, est.trial_count, est.best_trial_kind
        ])
    header = ["eps", "n1", "n2", "n3", "max_ratio", "upper_bound", "trials", "best_kind"]
    write_csv(path, header, rows)
