from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from thinflow.diagnostics import DiagnosticSeries, SeriesBuilder
from thinflow.solver import make_initial
from thinflow.spectral import DomainSpec, h1_norm

REFERENCE_DIR = Path(__file__).parent / "data"


@pytest.fixture
def small_domain() -> DomainSpec:
    return DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=4, n2=4, n3=2)


@pytest.fixture
def thin_domain() -> DomainSpec:
    return DomainSpec(l1=1.5, l2=1.0, eps=0.2, nu=0.05, n1=6, n2=5, n3=3)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def assert_matches_reference():
    """Check a diagnostics series against tests/data/<name>.csv, every column to rtol 1e-10."""

    def check(series: DiagnosticSeries, name: str) -> None:
        ref = DiagnosticSeries.from_csv(REFERENCE_DIR / f"{name}.csv")
        for col in fields(DiagnosticSeries):
            np.testing.assert_allclose(
                getattr(series, col.name), getattr(ref, col.name), rtol=1e-10, atol=0.0,
                err_msg=f"{name}: column {col.name}",
            )

    return check


@pytest.fixture(scope="session")
def series_of():
    """A diagnostics series of in-memory fields at the given times, built row by row
    through SeriesBuilder.append as a run builds it; forcing holds per-sample F values."""

    def build(fields, times, forcing=None) -> DiagnosticSeries:
        builder = SeriesBuilder()
        f_l2 = np.zeros(len(times)) if forcing is None else np.asarray(forcing, dtype=float)
        for u, t, f in zip(fields, times, f_l2):
            builder.append(float(t), u, float(f))
        return builder.finish()

    return build


@pytest.fixture
def rising_planar_series(series_of, small_domain):
    """(series, U): the z-independent field u(t) = (1 + t) u0 sampled at F = 0, so
    phi^2 rises although nothing forces it, and U = ||u0||_H1."""
    u0 = make_initial(small_domain, "z-independent", u_target=0.05, seed=5)
    times = np.linspace(0.0, 0.2, 11)
    return series_of([u0 * (1.0 + t) for t in times], times), h1_norm(u0)
