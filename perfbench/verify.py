"""Output checks made apart from the program.

Each check reads the files a CLI invocation wrote and compares them with a
computation of its own: its own checkpoint reader, its own wave vectors and
Leray projection, its own numpy.fft products, closed forms for the energy
envelope and the thin sup constant.  The one program call is
``solver.nonlinear_term`` in the box32 check, which is the thing compared.
Each function returns a list of failure messages; empty means it passed.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

# ---------------------------------------------------------------------------
# Readers.
# ---------------------------------------------------------------------------


def read_checkpoint(path: str) -> tuple[dict, np.ndarray]:
    """Header and coefficients c[j, m+n1, n+n2, p+n3] of a checkpoint file.

    The file is one ASCII JSON line, then little-endian complex128 data; the
    payload must hold exactly 3 (2n1+1)(2n2+1)(2n3+1) values.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    cut = blob.index(b"\n")
    header = json.loads(blob[:cut].decode("ascii"))
    shape = (3, 2 * header["n1"] + 1, 2 * header["n2"] + 1, 2 * header["n3"] + 1)
    payload = blob[cut + 1:]
    want = 16 * math.prod(shape)
    if len(payload) != want:
        raise ValueError(f"{path}: payload is {len(payload)} bytes, header implies {want}")
    return header, np.frombuffer(payload, dtype="<c16").reshape(shape).astype(np.complex128)


def read_csv(path: str) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    cols = rows[0]
    data = np.array([[float(v) for v in row] for row in rows[1:]], dtype=float)
    return {name: data[:, i] for i, name in enumerate(cols)}


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Spectral helpers of our own.
# ---------------------------------------------------------------------------


def wave_vectors(h: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    k1 = (np.arange(-h["n1"], h["n1"] + 1) / h["l1"])[:, None, None]
    k2 = (np.arange(-h["n2"], h["n2"] + 1) / h["l2"])[None, :, None]
    k3 = (np.arange(-h["n3"], h["n3"] + 1) / h["eps"])[None, None, :]
    return k1, k2, k3


def _leray(c: np.ndarray, k) -> np.ndarray:
    k1, k2, k3 = k
    ksq = k1 * k1 + k2 * k2 + k3 * k3
    ksq = np.where(ksq == 0.0, 1.0, ksq)
    s = (k1 * c[0] + k2 * c[1] + k3 * c[2]) / ksq
    return np.stack([c[0] - k1 * s, c[1] - k2 * s, c[2] - k3 * s])


def divergence_defect(c: np.ndarray, h: dict) -> float:
    """max over modes of |k . c| / (|k| |c|)."""
    k1, k2, k3 = wave_vectors(h)
    kdotc = np.abs(k1 * c[0] + k2 * c[1] + k3 * c[2])
    denom = np.sqrt(k1 * k1 + k2 * k2 + k3 * k3) * np.sqrt(np.sum(np.abs(c) ** 2, axis=0))
    mask = denom > 0
    return float(np.max(kdotc[mask] / denom[mask])) if np.any(mask) else 0.0


def hermitian_defect(c: np.ndarray) -> float:
    """max |c(k) - conj(c(-k))| relative to max |c|."""
    scale = float(np.max(np.abs(c)))
    diff = np.abs(c - np.conj(np.flip(c, axis=(1, 2, 3))))
    return float(np.max(diff)) / scale if scale > 0 else 0.0


def reference_nonlinear(c: np.ndarray, h: dict) -> np.ndarray:
    """-L(u . grad u) with numpy.fft products on the 3n+2 grid per axis."""
    n = (h["n1"], h["n2"], h["n3"])
    grid = tuple(3 * ni + 2 for ni in n)
    bins = np.ix_(*[np.arange(-ni, ni + 1) % g for ni, g in zip(n, grid)])
    size = math.prod(grid)
    k = wave_vectors(h)

    def synth(coeffs):
        full = np.zeros(grid, dtype=np.complex128)
        full[bins] = coeffs
        return np.fft.ifftn(full).real * size

    u = [synth(c[j]) for j in range(3)]
    adv = np.empty((3,) + c.shape[1:], dtype=np.complex128)
    for j in range(3):
        prod = sum(u[i] * synth(2j * np.pi * k[i] * c[j]) for i in range(3))
        adv[j] = (np.fft.fftn(prod) / size)[bins]
    out = -_leray(adv, k)
    out[:, n[0], n[1], n[2]] = 0.0
    return out


def poincare_rate(h: dict) -> float:
    """nu * lambda with lambda = (2 pi min(1/l1, 1/l2, 1/eps))^2."""
    kmin = min(1.0 / h["l1"], 1.0 / h["l2"], 1.0 / h["eps"])
    return h["nu"] * (2.0 * math.pi * kmin) ** 2


# ---------------------------------------------------------------------------
# Per-operation checks.
# ---------------------------------------------------------------------------


def _ckpts(out: str) -> list[str]:
    return sorted(os.path.join(out, f) for f in os.listdir(out) if f.endswith(".ckpt"))


def check_closure_simulate(out: str, units: int) -> list[str]:
    fails = []
    diag = read_csv(os.path.join(out, "diagnostics.csv"))
    if len(diag["t"]) != units + 1:
        fails.append(f"diagnostics has {len(diag['t'])} rows, expected {units + 1}")
    ckpts = _ckpts(out)
    if len(ckpts) < 2:
        fails.append(f"only {len(ckpts)} checkpoints written")
    header = None
    for path in ckpts:
        header, c = read_checkpoint(path)
        off = float(np.max(np.abs(np.delete(c, header["n3"], axis=3))))
        if not off <= 1e-12 * float(np.max(np.abs(c))):
            fails.append(f"{os.path.basename(path)}: max |p != 0 mode| {off:.3e}")
    ratio = float(np.max(diag["chi"] / diag["h1"]))
    if not ratio <= 1e-10:
        fails.append(f"chi/h1 reaches {ratio:.3e}")
    header, final = read_checkpoint(os.path.join(out, "run_final.ckpt"))
    div = divergence_defect(final, header)
    if not div <= 1e-12:
        fails.append(f"final divergence defect {div:.3e}")
    herm = hermitian_defect(final)
    if not herm <= 1e-14:
        fails.append(f"final Hermitian defect {herm:.3e}")
    # d/dt theta <= -nu lambda theta + F gives the envelope below
    rate = poincare_rate(header)
    t, theta, force = diag["t"], diag["theta"], float(np.max(diag["F"]))
    decay = np.exp(-rate * t)
    envelope = theta[0] * decay + force / rate * (1.0 - decay)
    worst = float(np.max(theta / envelope))
    if not worst <= 1.0 + 1e-9:
        fails.append(f"theta exceeds the energy envelope by a factor {worst:.12g}")
    return fails


def check_closure_verify(out: str) -> list[str]:
    fails = []
    reports = _read_json(os.path.join(out, "inequality_reports.json"))
    if len(reports) != 9:
        fails.append(f"{len(reports)} inequality reports, expected 9 (three regimes)")
    for r in reports:
        if r["verdict"] != "pass" or not r["residual_max"] <= r["slack"]:
            fails.append(f"{r['name']}: residual {r['residual_max']:.3e} over slack {r['slack']:.3e}")
    contained = _read_json(os.path.join(out, "containment.json"))["containment"]["contained"]
    if contained is not True:
        fails.append("trajectory is not contained in the Gronwall envelope")
    return fails


def check_box32_simulate(out: str, units: int) -> list[str]:
    from thinflow import solver, spectral

    fails = []
    header, u0 = read_checkpoint(os.path.join(out, "run_step00000000.ckpt"))
    dom = spectral.DomainSpec(**{k: header[k] for k in ("l1", "l2", "eps", "nu", "n1", "n2", "n3")})
    got = solver.nonlinear_term(spectral.SpectralField(dom, u0)).coeffs
    ref = reference_nonlinear(u0, header)
    rel = float(np.linalg.norm(got - ref) / np.linalg.norm(ref))
    if not rel <= 1e-12:
        fails.append(f"nonlinear_term(u0) differs from the numpy.fft reference by {rel:.3e}")
    inner = abs(float(np.real(np.vdot(u0, got))))
    scale = float(np.linalg.norm(got) * np.linalg.norm(u0))
    if not inner <= 1e-12 * scale:
        fails.append(f"<N(u0), u0> = {inner / scale:.3e} * |N| |u0|")
    diag = read_csv(os.path.join(out, "diagnostics.csv"))
    t, theta = diag["t"], diag["theta"]
    if len(t) != units + 1:
        fails.append(f"diagnostics has {len(t)} rows, expected {units + 1}")
    if np.any(np.diff(theta) > 0.0):
        fails.append("theta increases in an unforced run")
    worst = float(np.max(theta / (theta[0] * np.exp(-poincare_rate(header) * t))))
    if not worst <= 1.0 + 1e-9:
        fails.append(f"theta exceeds the Poincare decay by a factor {worst:.12g}")
    return fails


def thin_sup_bound(eps: float, l1: float, l2: float, n: tuple[int, int, int]) -> float:
    """sqrt(sum (2 pi |k|)^-4 / vol) over the retained p != 0 modes.

    Cauchy-Schwarz bounds sup|u| / ||D^2 u||_2 by this on the box, with
    equality for positive coefficients proportional to |k|^-4.
    """
    m = np.arange(-n[0], n[0] + 1)[:, None, None] / l1
    q = np.arange(-n[1], n[1] + 1)[None, :, None] / l2
    p = np.array([p for p in range(-n[2], n[2] + 1) if p != 0])[None, None, :] / eps
    ksq = m * m + q * q + p * p
    return math.sqrt(float(np.sum((4.0 * math.pi**2 * ksq) ** -2)) / (l1 * l2 * eps))


def check_sweep(out: str, eps_list, l1: float, cap: int) -> list[str]:
    fails = []
    with open(os.path.join(out, "sweep.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    if [float(r["eps"]) for r in rows] != list(eps_list):
        fails.append("sweep.csv eps column differs from the configured list")
        return fails
    for eps, row in zip(eps_list, rows):
        n = min(cap, max(4, round(0.25 * l1 / eps)))
        got_n = (int(row["n1"]), int(row["n2"]), int(row["n3"]))
        if got_n != (n, n, 2):
            fails.append(f"eps={eps}: resolution {got_n}, expected {(n, n, 2)}")
            continue
        bound = thin_sup_bound(eps, l1, l1, got_n)
        rel = abs(float(row["max_ratio"]) - bound) / bound
        if not rel <= 1e-12:
            fails.append(f"eps={eps}: max_ratio off the closed form by {rel:.3e}")
    slope = _read_json(os.path.join(out, "scaling_fit.json"))["slope"]
    if not abs(slope - 0.5) <= 0.1:
        fails.append(f"fitted slope {slope:.4f} is not within 0.1 of 1/2")
    return fails


def check(workload: str, op: str, out: str, spec: dict) -> list[str]:
    """Checks of one CLI invocation's outputs."""
    if workload == "closure":
        if op == "simulate":
            return check_closure_simulate(out, spec["units"])
        return check_closure_verify(out)
    if workload == "box32":
        return check_box32_simulate(out, spec["units"])
    return check_sweep(out, spec["eps_list"], float(spec["config"]["l1"]), spec["cap"])
