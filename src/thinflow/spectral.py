"""Fourier representation of mean-zero periodic vector fields on a thin box.

The domain is the periodic box [0, l1] x [0, l2] x [0, eps] with a symmetric
Galerkin cutoff per axis.  A field is stored as a dense complex coefficient
array ``c[j, m + n1, n + n2, p + n3]`` for components j in {0, 1, 2} and mode
indices |m| <= n1, |n| <= n2, |p| <= n3, following the synthesis convention

    u_j(x, y, z) = sum_{m,n,p} c_j(m,n,p) exp(2 pi i (m x/l1 + n y/l2 + p z/eps)).

Real-valuedness is the Hermitian symmetry c(-m,-n,-p) = conj(c(m,n,p)), so
the p >= 0 half box c[..., n3:], of shape (3, 2 n1 + 1, 2 n2 + 1, n3 + 1),
holds all of a field's data; it is the one stored form of a SpectralField
(``half``), and its p = 0 plane is exactly Hermitian in itself.  The full box
(``coeffs``) is derived from it as its conjugate mirror, for the public API,
checkpoints and tests only.  A planar field (inequalities.Field2D) is stored
the same way, as the n >= 0 half (2 n1 + 1, n2 + 1) of its (m, n) slab.

Only coefficients from outside (a SpectralField or planar Field2D built from
a user array, or a checkpoint) pass the checked construction, because silent
drift would make fields complex: one symmetrizer forms the stored half of
(c + conj(flip c)) / 2 and checks finiteness and defect on it, per component.
Internal code (transforms, steps, rescaling, trials, random fields) builds
exactly Hermitian half boxes and wraps them unchecked.  Synthesis
embeds its n3 + 1 planes in a zeroed c2r input of the z grid's full size,
transforms them over (x, y) in place and finishes with a c2r along z;
analysis runs an r2c along z, keeps n3 + 1 planes, transforms only those over
(x, y) and symmetrizes the p = 0 plane.  Diagonal operators have even (or, times i, odd) multipliers and keep
the p = 0 plane exactly Hermitian.  Reductions read the half box, each p > 0
plane standing for itself and its mirror.  The (0,0,0) mode is structurally
pinned to zero: all fields live in the mean-free reduction.

Physical frequencies are k = (m/l1, n/l2, p/eps).  The fractional derivative
D^alpha acts as the real multiplier (2 pi |k|)^alpha; every use downstream is
inside an L2 norm, so the phase of the textbook (-2 pi i)^alpha multiplier is
dropped deliberately.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from functools import lru_cache

import numpy as np
from scipy.fft import next_fast_len

# The pair calls its transforms through these module names, so a caller can
# wrap them per call (perfbench/tracing.py counts the c2c calls ifftn/fftn over
# the leading grid axes this way).  They run on one thread: no measured size
# cut shows more workers winning on a shared host.
from scipy.fft import fftn, ifftn, irfft, rfft

__all__ = [
    "DomainSpec",
    "SpectralField",
    "mode_range",
    "ksq_grid",
    "kvec_grids",
    "min_nonzero_k",
    "poincare_constant",
    "default_grid",
    "grid_coords",
    "to_physical",
    "to_spectral",
    "deriv",
    "norm_l2",
    "norm_ds",
    "inner_l2",
    "h1_norm",
    "h2_norm",
    "leray",
    "proj_p",
    "proj_q",
    "proj_r",
    "proj_s",
    "truncate",
    "divergence_defect",
    "random_field",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_FORMAT_VERSION",
]

#: construction-time tolerance for the relative Hermitian defect
_HERMITIAN_TOL = 1e-6

CHECKPOINT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class DomainSpec:
    """Geometry, viscosity and per-axis Galerkin cutoff of the thin box.

    Parameters
    ----------
    l1, l2 : float
        Horizontal box lengths, l1 >= l2 > 0.
    eps : float
        Thin-direction length, 0 < eps < l2/4.
    nu : float
        Viscosity, > 0.
    n1, n2, n3 : int
        Retained mode count per axis (indices run over -n_i .. n_i).
    """

    l1: float
    l2: float
    eps: float
    nu: float
    n1: int
    n2: int
    n3: int

    def __post_init__(self):
        if not (self.l1 >= self.l2 > 0.0):
            raise ValueError(f"need l1 >= l2 > 0, got l1={self.l1}, l2={self.l2}")
        if not (0.0 < self.eps < self.l2 / 4.0):
            raise ValueError(f"need 0 < eps < l2/4, got eps={self.eps}, l2={self.l2}")
        if self.nu <= 0.0:
            raise ValueError(f"need nu > 0, got {self.nu}")
        if min(self.n1, self.n2, self.n3) < 1:
            raise ValueError("mode counts n1, n2, n3 must all be >= 1")

    @property
    def shape(self) -> tuple[int, int, int]:
        """Shape of the coefficient box, (2 n1 + 1, 2 n2 + 1, 2 n3 + 1)."""
        return (2 * self.n1 + 1, 2 * self.n2 + 1, 2 * self.n3 + 1)

    @property
    def lengths(self) -> tuple[float, float, float]:
        return (self.l1, self.l2, self.eps)

    @property
    def volume(self) -> float:
        return self.l1 * self.l2 * self.eps

    def same_geometry(self, other: "DomainSpec") -> bool:
        return self.lengths == other.lengths


def mode_range(n: int) -> np.ndarray:
    """Integer mode indices -n .. n in storage order."""
    return np.arange(-n, n + 1)


@lru_cache(maxsize=64)
def kvec_grids(spec: DomainSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Physical frequency arrays (k1, k2, k3) broadcastable to spec.shape."""
    k1 = (mode_range(spec.n1) / spec.l1).reshape(-1, 1, 1)
    k2 = (mode_range(spec.n2) / spec.l2).reshape(1, -1, 1)
    k3 = (mode_range(spec.n3) / spec.eps).reshape(1, 1, -1)
    for a in (k1, k2, k3):
        a.flags.writeable = False
    return k1, k2, k3


@lru_cache(maxsize=64)
def ksq_grid(spec: DomainSpec) -> np.ndarray:
    """|k|^2 = m^2/l1^2 + n^2/l2^2 + p^2/eps^2 over the full mode box."""
    k1, k2, k3 = kvec_grids(spec)
    ksq = k1 * k1 + k2 * k2 + k3 * k3
    ksq.flags.writeable = False
    return ksq


def min_nonzero_k(spec: DomainSpec) -> float:
    """Smallest |k| over nonzero modes (attained on a single-axis mode)."""
    return min(1.0 / spec.l1, 1.0 / spec.l2, 1.0 / spec.eps)


def poincare_constant(spec: DomainSpec, alpha: float) -> float:
    """Sharp constant in ||f||_2 <= C ||D^alpha f||_2 for mean-zero fields."""
    return (2.0 * np.pi * min_nonzero_k(spec)) ** (-alpha)


def _symmetrize(raw: np.ndarray, nd: int) -> np.ndarray:
    """Project onto arrays Hermitian over the last nd (mode) axes: (c + conj(flip c)) / 2."""
    return 0.5 * (raw + np.conj(np.flip(raw, axis=tuple(range(-nd, 0)))))


def _hermitian_half(raw: np.ndarray, nd: int) -> np.ndarray:
    """The nonnegative-last-axis half of _symmetrize(raw, nd), formed without the rest."""
    n = raw.shape[-1] // 2
    return 0.5 * (raw[..., n:] + np.conj(np.flip(raw[..., : n + 1], axis=tuple(range(-nd, 0)))))


def _checked_hermitian(coeffs, shape: tuple[int, ...], nd: int) -> np.ndarray:
    """Read-only symmetrized half (last axis n >= 0, zero mode pinned) of finite outside input
    of the given shape, Hermitian over its last nd axes to a relative defect of _HERMITIAN_TOL.

    Each component's half is formed directly (_hermitian_half), so only one
    component's half-size temporaries are held.  The scale |sym| and the
    defect |c - sym| are even under k -> -k, so their maxima over all
    components' halves are those over the whole input.
    """
    arr = np.asarray(coeffs, dtype=np.complex128, order="C")
    if arr.shape != shape:
        raise ValueError(f"coefficient shape {arr.shape} does not match {shape}")
    mode_shape = shape[-nd:]
    n = shape[-1] // 2
    out = np.empty(shape[:-1] + (n + 1,), dtype=np.complex128)
    zero_mode = tuple(m // 2 for m in mode_shape[:-1]) + (0,)
    scale = defect = 0.0
    for comp, kept in zip(arr.reshape((-1,) + mode_shape), out.reshape((-1,) + out.shape[-nd:])):
        if not np.all(np.isfinite(comp)):
            raise ValueError("coefficients must be finite (no NaN or inf)")
        kept[...] = _hermitian_half(comp, nd)
        scale = max(scale, float(np.max(np.abs(kept))))
        defect = max(defect, float(np.max(np.abs(comp[..., n:] - kept))))
        kept[zero_mode] = 0.0
    if defect > _HERMITIAN_TOL * max(scale, 1e-300):
        raise ValueError(
            f"coefficients are not Hermitian (relative defect {defect / max(scale, 1e-300):.3e}); "
            "symmetrize explicitly before constructing a field"
        )
    out.flags.writeable = False
    return out


def _half_shape(spec: DomainSpec) -> tuple[int, int, int, int]:
    """Shape of a field's stored half box, (3, 2 n1 + 1, 2 n2 + 1, n3 + 1)."""
    return (3,) + spec.shape[:2] + (spec.n3 + 1,)


class SpectralField:
    """Immutable real 3-component field, stored as the p >= 0 half of its mode box.

    ``half`` is the read-only, C-contiguous array c[j, m + n1, n + n2, p] for
    p = 0 .. n3, whose p = 0 plane is exactly Hermitian.  ``coeffs`` is the
    full box c[j, m + n1, n + n2, p + n3], the half's conjugate mirror, made
    afresh (read-only) on each access.  SpectralField(domain, coeffs), for
    outside input only, takes a full box through the checked Hermitian
    construction (_checked_hermitian) and keeps its half; internal code wraps
    the half boxes it builds (_wrap).  All operations on fields are pure
    functions; instances are safe to share across threads.
    """

    __slots__ = ("domain", "half")

    def __init__(self, domain: DomainSpec, coeffs: np.ndarray):
        half = _checked_hermitian(coeffs, (3,) + domain.shape, 3)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "half", half)

    def __setattr__(self, name, value):
        raise AttributeError("SpectralField is immutable")

    @property
    def coeffs(self) -> np.ndarray:
        """The full mode box, mirrored from the half box (a new read-only array)."""
        return _mirror(self.half)

    @classmethod
    def _wrap(cls, domain: DomainSpec, half: np.ndarray) -> "SpectralField":
        """Fast path for a half box whose p = 0 plane is exactly Hermitian (internal use).

        Takes ownership: callers pass an array they have just made, frozen in place.
        """
        out = object.__new__(cls)
        arr = np.ascontiguousarray(half, dtype=np.complex128)
        arr[:, domain.n1, domain.n2, 0] = 0.0
        arr.flags.writeable = False
        object.__setattr__(out, "domain", domain)
        object.__setattr__(out, "half", arr)
        return out

    @classmethod
    def zeros(cls, domain: DomainSpec) -> "SpectralField":
        return cls._wrap(domain, np.zeros(_half_shape(domain), dtype=np.complex128))

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_same(other)
        return SpectralField._wrap(self.domain, self.half + other.half)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_same(other)
        return SpectralField._wrap(self.domain, self.half - other.half)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField._wrap(self.domain, self.half * float(scalar))

    __rmul__ = __mul__

    def _check_same(self, other: "SpectralField") -> None:
        if self.domain != other.domain:
            raise ValueError("fields live on different domains")


#: padding factor of the product grid over the mode count, per axis
_GRID_FACTOR = 1.5


def default_grid(spec: DomainSpec) -> tuple[int, int, int]:
    """Per-axis physical sample counts, fast FFT sizes >= 1.5 * mode count.

    The 1.5x factor gives at least 3 n_i + 2 points per axis, which makes
    quadrature of cubic products of retained-band fields exact (and quadratic
    convolutions alias-free): this is the padded form of the 2/3 rule.
    """
    out = []
    for m in spec.shape:
        out.append(next_fast_len(max(int(np.ceil(_GRID_FACTOR * m)), m)))
    return tuple(out)


def grid_coords(
    spec: DomainSpec, grid: tuple[int, int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uniform sample coordinates (x, y, z) for a physical grid."""
    n1g, n2g, n3g = grid
    x = spec.l1 * np.arange(n1g) / n1g
    y = spec.l2 * np.arange(n2g) / n2g
    z = spec.eps * np.arange(n3g) / n3g
    return x, y, z


@lru_cache(maxsize=64)
def _bins(modes: tuple[int, ...], grid: tuple[int, ...]) -> tuple:
    """Index of modes -n .. n in FFT order on the given grid axes, then the whole last axis.

    Cached, with read-only np.ix_ arrays.
    """
    bins = np.ix_(*(mode_range(n) % g for n, g in zip(modes, grid)))
    for b in bins:
        b.flags.writeable = False
    return (Ellipsis, *bins, slice(None))


def _check_grid(spec: DomainSpec, grid: tuple[int, int, int]) -> None:
    if any(g < m for g, m in zip(grid, spec.shape)):
        raise ValueError(
            f"grid {tuple(grid)} is smaller than the mode box {spec.shape}; "
            "the transform would truncate"
        )


def _mirror(half: np.ndarray, nd: int = 3) -> np.ndarray:
    """Full mode box from its nonnegative-last-axis half: p < 0 mirrors p > 0 conjugated.

    The last nd axes of half are mode axes, -n .. n on all but the last and
    0 .. n on the last.  Returns a new read-only array.
    """
    n = half.shape[-1] - 1
    out = np.empty(half.shape[:-1] + (2 * n + 1,), dtype=np.complex128)
    out[..., n:] = half
    np.conjugate(np.flip(half[..., 1:], axis=tuple(range(-nd, 0))), out=out[..., :n])
    out.flags.writeable = False
    return out


def _synth_half(half: np.ndarray, grid: tuple[int, ...]) -> np.ndarray:
    """Real samples on a uniform grid of Hermitian coefficients given by their half box.

    The last len(grid) axes of half are mode axes: -n .. n on the leading
    ones, 0 .. n on the last (the rest is implied).  The c2r input is
    allocated at its full size, grid[-1] // 2 + 1 zeroed planes; the n + 1
    planes are embedded in its first n + 1, which one c2c call transforms
    over the leading grid axes in place, and one c2r call along the last
    axis finishes without a zero-padded copy.  Neither is scaled, as the
    synthesis convention asks.
    """
    nd = len(grid)
    modes = tuple(m // 2 for m in half.shape[-nd:-1])
    buf = np.zeros(
        half.shape[:-nd] + tuple(grid[:-1]) + (grid[-1] // 2 + 1,), dtype=np.complex128
    )
    kept = buf[..., : half.shape[-1]]
    kept[_bins(modes, tuple(grid[:-1]))] = half
    out = ifftn(kept, axes=tuple(range(-nd, -1)), norm="forward", overwrite_x=True, workers=1)
    # overwrite_x is a hint: scipy may return the transform in a new array
    if not np.may_share_memory(out, kept):
        kept[...] = out
    return irfft(buf, n=grid[-1], axis=-1, norm="forward", workers=1)


def _analyze_half(samples: np.ndarray, modes: tuple[int, ...]) -> np.ndarray:
    """Half box of the exactly Hermitian retained coefficients of real samples.

    modes holds the cutoffs (n1, n2, n3) of a mode box or (n1, n2) of a
    planar slab; the last len(modes) axes of samples are grid axes.  One r2c
    call along the last axis keeps its n + 1 nonnegative planes, which are
    scaled once by 1/(grid point count) (_r2c_planes) and transformed over
    the leading grid axes by one c2c call, in axis order; the zero plane is
    then symmetrized (_c2c_half).  This is the arithmetic of one multi-axis
    r2c transform, applied only to the planes that are kept, so the retained
    values are the same bits.
    """
    samples = np.asarray(samples, dtype=np.float64)
    nd = len(modes)
    planes = np.empty(samples.shape[:-1] + (modes[-1] + 1,), dtype=np.complex128)
    _r2c_planes(samples, planes, math.prod(samples.shape[-nd:]))
    return _c2c_half(planes, modes)


#: bytes of samples per block of every pass streamed by whole x rows (_block_rows)
_BLOCK_BYTES = 2**19


def _block_rows(row_bytes: int) -> int:
    """x rows per streamed block: as many rows of row_bytes as fit in _BLOCK_BYTES, at least one."""
    return max(1, _BLOCK_BYTES // row_bytes)


def _r2c_planes(samples: np.ndarray, out: np.ndarray, count: int) -> None:
    """The first out.shape[-1] planes of an r2c along the last axis of samples, into out.

    Each real and imaginary part is scaled by pocketfft's r2c factor for a
    grid of count points, 1/count rounded from long double.  Every line is
    transformed on its own, so samples may be any block of a grid's rows.
    """
    kept = rfft(samples, axis=-1, workers=1)[..., : out.shape[-1]]
    np.multiply(kept.view(np.float64), float(1 / np.longdouble(count)), out=out.view(np.float64))


def _c2c_half(planes: np.ndarray, modes: tuple[int, ...]) -> np.ndarray:
    """Finish an analysis from its kept planes: the retained modes' half box.

    planes (overwritten) holds _r2c_planes' output for the last len(modes)
    grid axes; one c2c call transforms it over the leading grid axes in
    place, the retained modes are gathered and the zero plane symmetrized.
    """
    nd = len(modes)
    half = fftn(planes, axes=tuple(range(-nd, -1)), overwrite_x=True, workers=1)
    out = half[_bins(modes[:-1], planes.shape[-nd:-1])]
    out[..., 0] = _symmetrize(out[..., 0], nd - 1)
    return out


def to_physical(f: SpectralField, grid: tuple[int, int, int] | None = None) -> np.ndarray:
    """Real samples of the field on a uniform grid.

    The grid must be at least the mode box per axis, otherwise the inverse
    transform would lose modes and the call is rejected.  Defaults to the
    domain's product grid (see default_grid).
    """
    if grid is None:
        grid = default_grid(f.domain)
    grid = tuple(int(g) for g in grid)
    _check_grid(f.domain, grid)
    return _synth_half(f.half, grid)


def to_spectral(samples: np.ndarray, domain: DomainSpec) -> SpectralField:
    """Retained-mode coefficients of real samples (inverse of to_physical)."""
    samples = np.asarray(samples)
    if samples.ndim != 4 or samples.shape[0] != 3:
        raise ValueError("samples must have shape (3, N1, N2, N3)")
    _check_grid(domain, samples.shape[1:])
    return SpectralField._wrap(domain, _analyze_half(samples, (domain.n1, domain.n2, domain.n3)))


def _ds_multiplier(spec: DomainSpec, alpha: float) -> np.ndarray:
    """(2 pi |k|)^alpha over the p >= 0 half box."""
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    ksq = ksq_grid(spec)[..., spec.n3 :]
    with np.errstate(divide="ignore"):
        mult = (2.0 * np.pi) ** alpha * ksq ** (alpha / 2.0)
    # 0^0 = 1 under numpy; the zero mode must stay pinned regardless of alpha.
    mult[spec.n1, spec.n2, 0] = 0.0 if alpha > 0 else 1.0
    return mult


def _box_sum(a: np.ndarray, nd: int = 3) -> float:
    """Sum over the full mode box of a real quantity even in k, given on the half box.

    The last nd axes of a are mode axes, the last one nonnegative; its
    negative planes are the positive ones flipped over the mode axes.  The
    sum runs over them in the full box's storage order, so it rounds as a
    sum over the full box does: a weighted half-box sum moves norms by an
    ulp, and with them the normalization of make_initial's fields.
    """
    flipped = np.flip(a[..., 1:], axis=tuple(range(-nd, 0)))
    return float(np.sum(np.concatenate([flipped, a], axis=-1)))


def deriv(f: SpectralField, alpha: float) -> SpectralField:
    """Fractional derivative: scale each mode by (2 pi |k|)^alpha."""
    return SpectralField._wrap(f.domain, f.half * _ds_multiplier(f.domain, alpha))


def norm_l2(f: SpectralField) -> float:
    """L2 norm by Parseval: ||f||_2^2 = l1 l2 eps * sum |c|^2."""
    return float(np.sqrt(f.domain.volume * _box_sum(np.abs(f.half) ** 2)))


def norm_ds(f: SpectralField, alpha: float) -> float:
    """||D^alpha f||_2 without materializing the derivative field."""
    mult = _ds_multiplier(f.domain, alpha)
    return float(np.sqrt(f.domain.volume * _box_sum(mult**2 * np.abs(f.half) ** 2)))


def inner_l2(f: SpectralField, g: SpectralField) -> float:
    f._check_same(g)
    return f.domain.volume * _box_sum(np.real(f.half * np.conj(g.half)))


def h1_norm(f: SpectralField) -> float:
    return float(np.sqrt(norm_l2(f) ** 2 + norm_ds(f, 1.0) ** 2))


def h2_norm(f: SpectralField) -> float:
    return float(np.sqrt(norm_l2(f) ** 2 + norm_ds(f, 1.0) ** 2 + norm_ds(f, 2.0) ** 2))


@lru_cache(maxsize=64)
def _ksq_divisor(spec: DomainSpec) -> np.ndarray:
    """|k|^2 over the p >= 0 half box, zero mode set to 1 (that mode of a field is zero anyway)."""
    ksq = ksq_grid(spec)[..., spec.n3 :].copy()
    ksq[spec.n1, spec.n2, 0] = 1.0
    ksq.flags.writeable = False
    return ksq


@lru_cache(maxsize=64)
def _half_kmag(spec: DomainSpec) -> np.ndarray:
    """|k| over the p >= 0 half box (cached, read-only)."""
    kmag = np.sqrt(ksq_grid(spec)[..., spec.n3 :])
    kmag.flags.writeable = False
    return kmag


def _leray_raw(half: np.ndarray, spec: DomainSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Leray projection of the planes p = 0 .. m - 1 of a half box, m = half.shape[-1].

    Written into out, which may be half itself, or else into a new array.
    """
    m = half.shape[-1]
    k1, k2, k3 = kvec_grids(spec)
    k3 = k3[..., spec.n3 : spec.n3 + m]
    ksq = _ksq_divisor(spec)[..., :m]
    kdotu = k1 * half[0] + k2 * half[1] + k3 * half[2]
    s = kdotu / ksq
    # made after k . u's temporaries are freed: made before them, the new
    # array left glibc's heap 9 MB larger after a (32,32,8) make_initial
    if out is None:
        out = np.empty_like(half)
    np.subtract(half[0], k1 * s, out=out[0])
    np.subtract(half[1], k2 * s, out=out[1])
    np.subtract(half[2], k3 * s, out=out[2])
    return out


def leray(f: SpectralField) -> SpectralField:
    """Orthogonal projection onto divergence-free fields, mode by mode."""
    return SpectralField._wrap(f.domain, _leray_raw(f.half, f.domain))


def proj_p(f: SpectralField) -> SpectralField:
    """Vertical average: keep only the p = 0 modes."""
    out = np.zeros_like(f.half)
    out[..., 0] = f.half[..., 0]
    return SpectralField._wrap(f.domain, out)


def proj_q(f: SpectralField) -> SpectralField:
    """Oscillatory part in the thin direction: zero the p = 0 modes."""
    out = f.half.copy()
    out[..., 0] = 0.0
    return SpectralField._wrap(f.domain, out)


def proj_r(f: SpectralField) -> SpectralField:
    """Horizontal components (u1, u2, 0)."""
    out = f.half.copy()
    out[2] = 0.0
    return SpectralField._wrap(f.domain, out)


def proj_s(f: SpectralField) -> SpectralField:
    """Vertical component (0, 0, u3)."""
    out = np.zeros_like(f.half)
    out[2] = f.half[2]
    return SpectralField._wrap(f.domain, out)


def truncate(f: SpectralField, spec: DomainSpec) -> SpectralField:
    """Galerkin cutoff onto the target spec's mode box.

    Copies the overlapping modes; a smaller target truncates, a larger one
    zero-pads.  Idempotent and diagonal-in-mode, so it commutes with the
    projection operators.  Geometry (l1, l2, eps) must match.
    """
    if not f.domain.same_geometry(spec):
        raise ValueError("truncate requires matching box geometry")
    out = np.zeros(_half_shape(spec), dtype=np.complex128)
    w1 = min(f.domain.n1, spec.n1)
    w2 = min(f.domain.n2, spec.n2)
    w3 = min(f.domain.n3, spec.n3)
    src = f.half[
        :,
        f.domain.n1 - w1 : f.domain.n1 + w1 + 1,
        f.domain.n2 - w2 : f.domain.n2 + w2 + 1,
        : w3 + 1,
    ]
    out[
        :,
        spec.n1 - w1 : spec.n1 + w1 + 1,
        spec.n2 - w2 : spec.n2 + w2 + 1,
        : w3 + 1,
    ] = src
    return SpectralField._wrap(spec, out)


def divergence_defect(f: SpectralField) -> float:
    """max over modes of |k . c| / (|k| |c|); 0 for the zero field.

    Mirrored modes have equal ratios, so the half box gives the full box's value.
    """
    spec, half = f.domain, f.half
    k1, k2, k3 = kvec_grids(spec)
    kdotu = np.abs(k1 * half[0] + k2 * half[1] + k3[..., spec.n3 :] * half[2])
    umag = np.sqrt(np.sum(np.abs(half) ** 2, axis=0))
    denom = _half_kmag(spec) * umag
    # ratios are >= 0, so the zeros left where denom == 0 (all of it for the zero field) change no max
    return float(np.max(np.divide(kdotu, denom, out=np.zeros_like(kdotu), where=denom > 0)))


def random_field(
    domain: DomainSpec, rng: np.random.Generator, slope: float = 0.0
) -> SpectralField:
    """Random Hermitian mean-zero field with a power-law spectral envelope.

    slope = 0 gives a white spectrum; slope = -2 damps amplitudes like
    |k|^-2 relative to the smallest nonzero frequency.  Not divergence-free;
    compose with leray for velocity-like samples.  The draws cover the full
    mode box (real parts first); only the p >= 0 half of their symmetrization
    (_hermitian_half) is formed.
    """
    shape = (3,) + domain.shape
    raw = np.empty(shape, dtype=np.complex128)
    raw.real = rng.standard_normal(shape)
    raw.imag = rng.standard_normal(shape)
    if slope != 0.0:
        ksq = ksq_grid(domain).copy()
        kmin2 = min_nonzero_k(domain) ** 2
        ksq[domain.n1, domain.n2, domain.n3] = kmin2
        # out of place: the in-place product measured 2.7 MB more peak RSS on a
        # (32,32,8) simulate, through glibc's dynamic mmap threshold
        raw = raw * ((ksq / kmin2) ** (slope / 2.0))
    return SpectralField._wrap(domain, _hermitian_half(raw, 3))


def save_checkpoint(
    f: SpectralField,
    path,
    time: float | None = None,
    step: int | None = None,
    extra: dict | None = None,
) -> None:
    """Write a field as a one-line JSON header plus raw little-endian data.

    Layout: a single ASCII line of JSON (domain spec, mode counts, simulation
    time stamp, format version) terminated by a newline, followed by the
    coefficients as little-endian complex128 in C order with index layout
    [component, m + n1, n + n2, p + n3].  The full mode box is mirrored from
    the half box and written one component at a time, so it is never held.
    """
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        **asdict(f.domain),
        "time": time,
        "step": step,
    }
    if extra:
        header["extra"] = extra
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        for j in range(3):
            fh.write(_mirror(f.half[j : j + 1]).astype("<c16", copy=False))


def load_checkpoint(path) -> tuple[SpectralField, dict]:
    """Read a checkpoint written by save_checkpoint; returns (field, header).

    The payload passes the checked construction, which keeps only its half
    box and works one component at a time.
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
        header = json.loads(header_line.decode("ascii"))
        if header.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format: {header.get('format_version')}")
        try:
            domain = DomainSpec(**{f.name: header[f.name] for f in fields(DomainSpec)})
        except KeyError as exc:
            raise ValueError(f"{path}: checkpoint header has no {exc.args[0]!r}") from None
        payload = fh.read()
    expected = 16 * 3 * int(np.prod(domain.shape))
    if len(payload) != expected:
        raise ValueError(
            f"{path}: checkpoint payload is {len(payload)} bytes, "
            f"the header implies {expected}"
        )
    data = np.frombuffer(payload, dtype="<c16").astype(np.complex128, copy=False)
    return SpectralField(domain, data.reshape((3,) + domain.shape)), header
