"""Same behaviour as the stored reference trajectories, one 3D run per scheme.

The CSVs under tests/data/ are diagnostics series written at fixed configs
and seeds by an earlier version of the solver: the five acceptance
trajectories (compared in test_acceptance.py through its shared fixture) and
the short runs below, on a q-perturbed box whose oscillatory (p != 0) modes
take part in the dynamics.  A refactor that only changes roundoff, such as a
new transform order, keeps every column within rtol = 1e-10.
"""

import pytest

from thinflow import solver as sv
from thinflow import spectral as sp


def scheme_run(domain: sp.DomainSpec, scheme: str) -> sv.RunResult:
    """100 steps of a forced q-perturbed run; dt is a sixth of the CFL bound."""
    u0 = sv.make_initial(domain, "q-perturbed", u_target=2.0, seed=7)
    profile = sv.make_initial(domain, "z-independent", u_target=1.0, seed=8)
    forcing = sv.ForcingSpec.steady(profile, amplitude=0.5)
    return sv.run(u0, forcing, sv.SolverConfig(dt=2e-3, t_end=0.2, scheme=scheme))


@pytest.mark.parametrize("scheme", sv.SCHEMES)
def test_scheme_run_matches_reference(thin_domain, scheme, assert_matches_reference):
    result = scheme_run(thin_domain, scheme)
    assert not result.blew_up
    assert_matches_reference(result.series, f"scheme-{scheme}")
