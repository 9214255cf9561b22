"""Same estimates as the stored reference, for every inequality.

tests/data/estimates.json holds estimate_constant's results on a small box
for each inequality, two seeds, and refinement on and off, written by an
earlier version of the estimator.  A refactor of the trial ensembles or the
refinement must keep every trial count and best-trial kind, and every ratio
to rtol 1e-12.  To write the file from the current code (only when the
estimator's results are meant to change):

    PYTHONPATH=src python tests/test_estimates_reference.py
"""

import json
from pathlib import Path

import pytest

from thinflow import inequalities as iq
from thinflow import spectral as sp

REFERENCE = Path(__file__).parent / "data" / "estimates.json"

_BOX = dict(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=3, n2=3, n3=2)
_BUDGET = 16
CASES = [
    (inequality, seed, refine)
    for inequality in iq.INEQUALITIES
    for seed in (0, 7)
    for refine in (False, True)
]


def _case_id(inequality: str, seed: int, refine: bool) -> str:
    return f"{inequality}-seed{seed}-{'refine' if refine else 'plain'}"


def _record(inequality: str, seed: int, refine: bool) -> dict:
    est = iq.estimate_constant(
        inequality, sp.DomainSpec(**_BOX), budget=_BUDGET, seed=seed, refine=refine
    )
    return {
        "max_ratio": est.max_ratio,
        "trial_count": est.trial_count,
        "best_trial_kind": est.best_trial_kind,
        "ensemble_best": est.ensemble_best,
    }


@pytest.fixture(scope="module")
def reference() -> dict:
    return json.loads(REFERENCE.read_text())


@pytest.mark.parametrize("case", CASES, ids=[_case_id(*c) for c in CASES])
def test_estimate_matches_reference(reference, case):
    ref = reference[_case_id(*case)]
    got = _record(*case)
    assert got["trial_count"] == ref["trial_count"]
    assert got["best_trial_kind"] == ref["best_trial_kind"]
    assert got["max_ratio"] == pytest.approx(ref["max_ratio"], rel=1e-12, abs=0.0)
    assert sorted(got["ensemble_best"]) == sorted(ref["ensemble_best"])
    for kind, ratio in ref["ensemble_best"].items():
        assert got["ensemble_best"][kind] == pytest.approx(ratio, rel=1e-12, abs=0.0), kind


if __name__ == "__main__":
    doc = {_case_id(*c): _record(*c) for c in CASES}
    REFERENCE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
