"""Empirical constants of the thin-domain and planar Sobolev inequalities.

The two thin-domain embeddings for fields with no vertical mean,

    sup |w| <= C(eps) ||D^2 w||_2      expected C ~ eps^(1/2)
    ||w||_4 <= C(eps) ||D w||_2        expected C ~ eps^(1/4)

are probed by ratio maximization over spectral ensembles; sweeping eps and
fitting a log-log slope makes the predicted power visible.  Each estimate
is printed as the bracket [max_ratio, upper_bound]: the best ratio found
and the closed-form bound on the retained mode box.  The sup bracket closes
with the first deterministic trial.  The planar
L4 embedding against the half derivative is estimated the same way, and the
dyadic block profile behind its proof is computed for the maximizer.
"""

import numpy as np

from thinflow import inequalities as iq
from thinflow import spectral as sp

eps_values = [2.0**-k for k in range(2, 7)]
print("thin-domain constants over an eps sweep (box 4 x 4 x eps):")
for ineq, target in (("thin-sup", 0.5), ("thin-l4", 0.25)):
    estimates = []
    for eps in eps_values:
        n1, n2, n3 = iq.thin_sweep_resolution(eps)
        d = sp.DomainSpec(l1=4.0, l2=4.0, eps=eps, nu=1.0, n1=n1, n2=n2, n3=n3)
        estimates.append(iq.estimate_constant(ineq, d, budget=10, seed=7, refine=False))
    fit = iq.fit_eps_scaling(ineq, eps_values, estimates)
    print(f"\n  {ineq}: fitted slope {fit.slope:.3f} (predicted {target})")
    for eps, est, norm in zip(eps_values, estimates, fit.normalized_ratios):
        print(f"    eps = {eps:<8g} [{est.max_ratio:.4e}, {est.upper_bound:.4e}]  "
              f"ratio / eps^{target} = {norm:.4f}  trials {est.trial_count}")

print("\nplanar L4 constant ||f||_4 <= C ||D^(1/2) f||_2 (unit square):")
d2 = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.2, nu=1.0, n1=32, n2=32, n3=1)
est = iq.estimate_constant("planar-l4", d2, budget=300, seed=5)
floor = iq.single_mode_floor_planar_l4()
print(f"  single-mode floor (analytic) : {floor:.5f}")
print(f"  best of {est.trial_count} trials + ascent : {est.max_ratio:.5f} "
      f"[{est.best_trial_kind}]")
print(f"  maximizer reproduces ratio   : {est.reproduced_ratio():.5f}")
print(f"  closed-form upper bound      : {est.upper_bound:.5f}")

profile = iq.dyadic_decompose(est.maximizer)
print("\n  dyadic block profile of the maximizer (A_m over rings 2^m <= |r| < 2^(m+1)):")
for m, a in enumerate(profile.block_norms):
    bar = "#" * int(60 * a / max(profile.block_norms))
    print(f"    m={m}: {a:10.4e} {bar}")
print(f"  sum 2^m A_m^2 = {profile.weighted_sq:.4e} <= "
      f"{profile.multiplier_constant:.4f} * ||D^(1/2)f||^2 = "
      f"{profile.multiplier_constant * profile.half_deriv_norm**2:.4e}: "
      f"{profile.satisfies_multiplier_bound}")
