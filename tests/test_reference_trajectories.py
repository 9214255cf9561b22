"""Same behaviour as the stored reference trajectories, one 3D run per scheme.

The CSVs under tests/data/ are diagnostics series written at fixed configs
and seeds by an earlier version of the solver: the five acceptance
trajectories (compared in test_acceptance.py through its shared fixture) and
the short runs below, on q-perturbed boxes whose oscillatory (p != 0) modes
take part in the dynamics: one per scheme at (6,5,3), and a few etd-rk2 steps
at (32,32,8), the box of the benchmark's 3D workload.  A refactor that only
changes roundoff, such as a new transform order, keeps every column within
rtol = 1e-10.
"""

import pytest

from thinflow import solver as sv
from thinflow import spectral as sp


def forced_run(
    domain: sp.DomainSpec, scheme: str, u_target: float, dt: float, steps: int
) -> sv.RunResult:
    """A q-perturbed run forced by a steady z-independent profile."""
    u0 = sv.make_initial(domain, "q-perturbed", u_target=u_target, seed=7)
    profile = sv.make_initial(domain, "z-independent", u_target=1.0, seed=8)
    forcing = sv.ForcingSpec.steady(profile, amplitude=0.5)
    return sv.run(u0, forcing, sv.SolverConfig(dt=dt, t_end=steps * dt, scheme=scheme))


@pytest.mark.parametrize("scheme", sv.SCHEMES)
def test_scheme_run_matches_reference(thin_domain, scheme, assert_matches_reference):
    # 100 steps; dt is a sixth of the CFL bound
    result = forced_run(thin_domain, scheme, u_target=2.0, dt=2e-3, steps=100)
    assert not result.blew_up
    assert_matches_reference(result.series, f"scheme-{scheme}")


def test_box32_run_matches_reference(assert_matches_reference):
    """12 etd-rk2 steps on the 98x98x27 grid; dt is about a tenth of the CFL bound."""
    domain = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=32, n2=32, n3=8)
    result = forced_run(domain, "etd-rk2", u_target=1.0, dt=5e-4, steps=12)
    assert not result.blew_up
    assert_matches_reference(result.series, "scheme-etd-rk2-32x32x8")
