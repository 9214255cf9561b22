"""Fourier representation of mean-zero periodic vector fields on a thin box.

The domain is the periodic box [0, l1] x [0, l2] x [0, eps] with a symmetric
Galerkin cutoff per axis.  A field is stored as a dense complex coefficient
array ``c[j, m + n1, n + n2, p + n3]`` for components j in {0, 1, 2} and mode
indices |m| <= n1, |n| <= n2, |p| <= n3, following the synthesis convention

    u_j(x, y, z) = sum_{m,n,p} c_j(m,n,p) exp(2 pi i (m x/l1 + n y/l2 + p z/eps)).

Real-valuedness is the Hermitian symmetry c(-m,-n,-p) = conj(c(m,n,p)).
Coefficients from outside (a SpectralField built from a user array or a
checkpoint) are symmetrized and verified at construction, because silent
drift would make fields complex.  Internal transforms need no such repair:
physical samples come from one real-to-complex transform pair that reads and
writes only the p >= 0 half of the mode box and fills p < 0 by conjugate
mirror, so every box it returns is exactly Hermitian, and the diagonal
operators applied afterwards keep it so.  The (0,0,0) mode is structurally
pinned to zero: all fields live in the mean-free reduction.

Physical frequencies are k = (m/l1, n/l2, p/eps).  The fractional derivative
D^alpha acts as the real multiplier (2 pi |k|)^alpha; every use downstream is
inside an L2 norm, so the phase of the textbook (-2 pi i)^alpha multiplier is
dropped deliberately.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import next_fast_len

# The pair calls the real transforms through these module names, so a caller
# can wrap them per call (perfbench/tracing.py counts FFTs this way).  They run
# on one thread: no measured size cut shows more workers winning on a shared host.
from scipy.fft import irfftn as ifftn, rfftn as fftn

__all__ = [
    "DomainSpec",
    "SpectralField",
    "WaveVector",
    "hermitian_symmetrize",
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


@dataclass(frozen=True)
class WaveVector:
    """A single Fourier mode (m, n, p) with its physical frequencies."""

    m: int
    n: int
    p: int
    l1: float
    l2: float
    eps: float

    @property
    def k(self) -> tuple[float, float, float]:
        return (self.m / self.l1, self.n / self.l2, self.p / self.eps)

    @property
    def ksq(self) -> float:
        k1, k2, k3 = self.k
        return k1 * k1 + k2 * k2 + k3 * k3


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


def hermitian_symmetrize(raw: np.ndarray) -> np.ndarray:
    """Project onto Hermitian-symmetric arrays over the last three axes."""
    flipped = np.flip(raw, axis=(-3, -2, -1))
    return 0.5 * (raw + np.conj(flipped))


class SpectralField:
    """Immutable 3-component coefficient array on a domain's mode box.

    Construction symmetrizes the coefficients and verifies the input was
    already Hermitian to within a small relative defect, then pins the
    (0,0,0) mode to zero and freezes the array.  All operations on fields
    are pure functions; instances are safe to share across threads.
    """

    __slots__ = ("domain", "coeffs")

    def __init__(self, domain: DomainSpec, coeffs: np.ndarray):
        arr = np.array(coeffs, dtype=np.complex128, order="C", copy=True)
        if arr.shape != (3,) + domain.shape:
            raise ValueError(
                f"coefficient shape {arr.shape} does not match (3,)+{domain.shape}"
            )
        sym = hermitian_symmetrize(arr)
        scale = float(np.max(np.abs(sym))) if sym.size else 0.0
        defect = float(np.max(np.abs(arr - sym)))
        if defect > _HERMITIAN_TOL * max(scale, 1e-300):
            raise ValueError(
                f"coefficients are not Hermitian (relative defect {defect / max(scale, 1e-300):.3e}); "
                "symmetrize explicitly before constructing a field"
            )
        sym[:, domain.n1, domain.n2, domain.n3] = 0.0
        sym.flags.writeable = False
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "coeffs", sym)

    def __setattr__(self, name, value):
        raise AttributeError("SpectralField is immutable")

    @classmethod
    def _wrap(cls, domain: DomainSpec, sym: np.ndarray) -> "SpectralField":
        """Fast path for arrays already exactly Hermitian (internal use)."""
        out = object.__new__(cls)
        arr = np.ascontiguousarray(sym, dtype=np.complex128)
        if arr is sym and arr.flags.writeable:
            arr = arr.copy()
        arr[:, domain.n1, domain.n2, domain.n3] = 0.0
        arr.flags.writeable = False
        object.__setattr__(out, "domain", domain)
        object.__setattr__(out, "coeffs", arr)
        return out

    @classmethod
    def zeros(cls, domain: DomainSpec) -> "SpectralField":
        return cls._wrap(domain, np.zeros((3,) + domain.shape, dtype=np.complex128))

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_same(other)
        return SpectralField._wrap(self.domain, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_same(other)
        return SpectralField._wrap(self.domain, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField._wrap(self.domain, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField._wrap(self.domain, -self.coeffs)

    def _check_same(self, other: "SpectralField") -> None:
        if self.domain != other.domain:
            raise ValueError("fields live on different domains")

    # Convenience wrappers around the module-level norms.
    def norm_l2(self) -> float:
        return norm_l2(self)

    def norm_ds(self, alpha: float) -> float:
        return norm_ds(self, alpha)

    def h1(self) -> float:
        return h1_norm(self)

    def h2(self) -> float:
        return h2_norm(self)


def default_grid(spec: DomainSpec, factor: float = 1.5) -> tuple[int, int, int]:
    """Per-axis physical sample counts, fast FFT sizes >= factor * mode count.

    The 1.5x default gives at least 3 n_i + 2 points per axis, which makes
    quadrature of cubic products of retained-band fields exact (and quadratic
    convolutions alias-free): this is the padded form of the 2/3 rule.
    """
    out = []
    for m in spec.shape:
        out.append(next_fast_len(max(int(np.ceil(factor * m)), m)))
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


def _fft_bins(n: int, size: int) -> np.ndarray:
    return np.asarray(mode_range(n) % size)


def _check_grid(spec: DomainSpec, grid: tuple[int, int, int]) -> None:
    if any(g < m for g, m in zip(grid, spec.shape)):
        raise ValueError(
            f"grid {tuple(grid)} is smaller than the mode box {spec.shape}; "
            "the transform would truncate"
        )


def _synth(coeffs: np.ndarray, spec: DomainSpec, grid: tuple[int, int, int]) -> np.ndarray:
    """Real samples of Hermitian coefficients on a uniform grid (one c2r call).

    Only the p >= 0 half of the mode box is read; c2r implies the rest.
    """
    b1 = _fft_bins(spec.n1, grid[0])
    b2 = _fft_bins(spec.n2, grid[1])
    half = np.zeros(coeffs.shape[:-3] + (grid[0], grid[1], grid[2] // 2 + 1), dtype=np.complex128)
    half[..., b1[:, None], b2, : spec.n3 + 1] = coeffs[..., spec.n3 :]
    return ifftn(half, s=grid, axes=(-3, -2, -1), norm="forward", workers=1)


def _analyze(samples: np.ndarray, spec: DomainSpec) -> np.ndarray:
    """Exactly Hermitian retained-mode coefficients of real samples (one r2c call).

    The p >= 0 half is read from the transform, the p = 0 plane is
    symmetrized and p < 0 is filled by conjugate mirror.
    """
    samples = np.asarray(samples, dtype=np.float64)
    grid = samples.shape[-3:]
    n3 = spec.n3
    half = fftn(samples, axes=(-3, -2, -1), norm="forward", workers=1)
    b1 = _fft_bins(spec.n1, grid[0])
    b2 = _fft_bins(spec.n2, grid[1])
    out = np.empty(samples.shape[:-3] + spec.shape, dtype=np.complex128)
    out[..., n3:] = half[..., b1[:, None], b2, : n3 + 1]
    plane = out[..., n3]
    plane[...] = 0.5 * (plane + np.conj(np.flip(plane, axis=(-2, -1))))
    out[..., :n3] = np.conj(np.flip(out[..., n3 + 1 :], axis=(-3, -2, -1)))
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
    return _synth(f.coeffs, f.domain, grid)


def to_spectral(samples: np.ndarray, domain: DomainSpec) -> SpectralField:
    """Retained-mode coefficients of real samples (inverse of to_physical)."""
    samples = np.asarray(samples)
    if samples.ndim != 4 or samples.shape[0] != 3:
        raise ValueError("samples must have shape (3, N1, N2, N3)")
    _check_grid(domain, samples.shape[1:])
    return SpectralField._wrap(domain, _analyze(samples, domain))


def _ds_multiplier(spec: DomainSpec, alpha: float) -> np.ndarray:
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    ksq = ksq_grid(spec)
    with np.errstate(divide="ignore"):
        mult = (2.0 * np.pi) ** alpha * ksq ** (alpha / 2.0)
    # 0^0 = 1 under numpy; the zero mode must stay pinned regardless of alpha.
    mult[spec.n1, spec.n2, spec.n3] = 0.0 if alpha > 0 else 1.0
    return mult


def deriv(f: SpectralField, alpha: float) -> SpectralField:
    """Fractional derivative: scale each mode by (2 pi |k|)^alpha."""
    return SpectralField._wrap(f.domain, f.coeffs * _ds_multiplier(f.domain, alpha))


def norm_l2(f: SpectralField) -> float:
    """L2 norm by Parseval: ||f||_2^2 = l1 l2 eps * sum |c|^2."""
    return float(np.sqrt(f.domain.volume * np.sum(np.abs(f.coeffs) ** 2)))


def norm_ds(f: SpectralField, alpha: float) -> float:
    """||D^alpha f||_2 without materializing the derivative field."""
    mult = _ds_multiplier(f.domain, alpha)
    return float(np.sqrt(f.domain.volume * np.sum(mult**2 * np.abs(f.coeffs) ** 2)))


def inner_l2(f: SpectralField, g: SpectralField) -> float:
    f._check_same(g)
    return float(f.domain.volume * np.real(np.sum(f.coeffs * np.conj(g.coeffs))))


def h1_norm(f: SpectralField) -> float:
    return float(np.sqrt(norm_l2(f) ** 2 + norm_ds(f, 1.0) ** 2))


def h2_norm(f: SpectralField) -> float:
    return float(np.sqrt(norm_l2(f) ** 2 + norm_ds(f, 1.0) ** 2 + norm_ds(f, 2.0) ** 2))


def _leray_raw(coeffs: np.ndarray, spec: DomainSpec) -> np.ndarray:
    k1, k2, k3 = kvec_grids(spec)
    ksq = ksq_grid(spec).copy()
    ksq[spec.n1, spec.n2, spec.n3] = 1.0  # zero mode is zero anyway
    kdotu = k1 * coeffs[0] + k2 * coeffs[1] + k3 * coeffs[2]
    s = kdotu / ksq
    out = coeffs.copy()
    out[0] -= k1 * s
    out[1] -= k2 * s
    out[2] -= k3 * s
    return out


def leray(f: SpectralField) -> SpectralField:
    """Orthogonal projection onto divergence-free fields, mode by mode."""
    return SpectralField._wrap(f.domain, _leray_raw(f.coeffs, f.domain))


def proj_p(f: SpectralField) -> SpectralField:
    """Vertical average: keep only the p = 0 modes."""
    out = np.zeros_like(f.coeffs)
    n3 = f.domain.n3
    out[..., n3] = f.coeffs[..., n3]
    return SpectralField._wrap(f.domain, out)


def proj_q(f: SpectralField) -> SpectralField:
    """Oscillatory part in the thin direction: zero the p = 0 modes."""
    out = f.coeffs.copy()
    out[..., f.domain.n3] = 0.0
    return SpectralField._wrap(f.domain, out)


def proj_r(f: SpectralField) -> SpectralField:
    """Horizontal components (u1, u2, 0)."""
    out = f.coeffs.copy()
    out[2] = 0.0
    return SpectralField._wrap(f.domain, out)


def proj_s(f: SpectralField) -> SpectralField:
    """Vertical component (0, 0, u3)."""
    out = np.zeros_like(f.coeffs)
    out[2] = f.coeffs[2]
    return SpectralField._wrap(f.domain, out)


def truncate(f: SpectralField, spec: DomainSpec) -> SpectralField:
    """Galerkin cutoff onto the target spec's mode box.

    Copies the overlapping modes; a smaller target truncates, a larger one
    zero-pads.  Idempotent and diagonal-in-mode, so it commutes with the
    projection operators.  Geometry (l1, l2, eps) must match.
    """
    if not f.domain.same_geometry(spec):
        raise ValueError("truncate requires matching box geometry")
    out = np.zeros((3,) + spec.shape, dtype=np.complex128)
    w1 = min(f.domain.n1, spec.n1)
    w2 = min(f.domain.n2, spec.n2)
    w3 = min(f.domain.n3, spec.n3)
    src = f.coeffs[
        :,
        f.domain.n1 - w1 : f.domain.n1 + w1 + 1,
        f.domain.n2 - w2 : f.domain.n2 + w2 + 1,
        f.domain.n3 - w3 : f.domain.n3 + w3 + 1,
    ]
    out[
        :,
        spec.n1 - w1 : spec.n1 + w1 + 1,
        spec.n2 - w2 : spec.n2 + w2 + 1,
        spec.n3 - w3 : spec.n3 + w3 + 1,
    ] = src
    return SpectralField._wrap(spec, out)


def divergence_defect(f: SpectralField) -> float:
    """max over modes of |k . c| / (|k| |c|); 0 for the zero field."""
    k1, k2, k3 = kvec_grids(f.domain)
    kdotu = np.abs(k1 * f.coeffs[0] + k2 * f.coeffs[1] + k3 * f.coeffs[2])
    kmag = np.sqrt(ksq_grid(f.domain))
    umag = np.sqrt(np.sum(np.abs(f.coeffs) ** 2, axis=0))
    denom = kmag * umag
    mask = denom > 0
    if not np.any(mask):
        return 0.0
    return float(np.max(kdotu[mask] / denom[mask]))


def random_field(
    domain: DomainSpec,
    rng: np.random.Generator,
    slope: float = 0.0,
    components: int = 3,
) -> SpectralField:
    """Random Hermitian mean-zero field with a power-law spectral envelope.

    slope = 0 gives a white spectrum; slope = -2 damps amplitudes like
    |k|^-2 relative to the smallest nonzero frequency.  Not divergence-free;
    compose with leray for velocity-like samples.
    """
    shape = (3,) + domain.shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if components < 3:
        raw[components:] = 0.0
    if slope != 0.0:
        ksq = ksq_grid(domain).copy()
        kmin2 = min_nonzero_k(domain) ** 2
        ksq[domain.n1, domain.n2, domain.n3] = kmin2
        raw *= (ksq / kmin2) ** (slope / 2.0)
    return SpectralField(domain, hermitian_symmetrize(raw))


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
    [component, m + n1, n + n2, p + n3].
    """
    d = f.domain
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "l1": d.l1,
        "l2": d.l2,
        "eps": d.eps,
        "nu": d.nu,
        "n1": d.n1,
        "n2": d.n2,
        "n3": d.n3,
        "time": time,
        "step": step,
    }
    if extra:
        header["extra"] = extra
    payload = np.ascontiguousarray(f.coeffs).astype("<c16")
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        fh.write(payload.tobytes())


def load_checkpoint(path) -> tuple[SpectralField, dict]:
    """Read a checkpoint written by save_checkpoint; returns (field, header)."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        header = json.loads(header_line.decode("ascii"))
        if header.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format: {header.get('format_version')}")
        domain = DomainSpec(
            l1=header["l1"],
            l2=header["l2"],
            eps=header["eps"],
            nu=header["nu"],
            n1=header["n1"],
            n2=header["n2"],
            n3=header["n3"],
        )
        payload = fh.read()
    expected = 16 * 3 * int(np.prod(domain.shape))
    if len(payload) != expected:
        raise ValueError(
            f"{path}: checkpoint payload is {len(payload)} bytes, "
            f"the header implies {expected}"
        )
    data = np.frombuffer(payload, dtype="<c16").astype(np.complex128)
    return SpectralField(domain, data.reshape((3,) + domain.shape)), header
