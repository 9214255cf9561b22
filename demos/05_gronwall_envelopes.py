"""Comparison-ODE envelopes dominating a simulated trajectory.

The constants fitted on a run feed the scalar comparison system; its
solution must lie above the measured theta^2, phi^2, psi^2 at every sample.
For the full (3D) regime the shear guard is traced against its threshold:
as long as it never crosses, the planar Gronwall argument applies verbatim,
which is the mechanism behind the uniform-in-eps smallness threshold.
"""

import numpy as np

from thinflow import diagnostics as dg
from thinflow import gronwall as gw
from thinflow import solver as sv
from thinflow import spectral as sp

domain = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.125, nu=1.0, n1=8, n2=8, n3=2)
u0 = sv.make_initial(domain, "q-perturbed", u_target=0.08, seed=41, q_fraction=0.2)
cfg = sv.SolverConfig(dt=1e-3, t_end=0.5, scheme="etd-rk2", diag_stride=5)
series = sv.run(u0, None, cfg).series
U = sp.h1_norm(u0)

reports = dg.check_diff_inequalities(
    series, eps=domain.eps, regime="full", bounds={"shear_damping": (0.25, 1e9)}
)
system = gw.InequalitySystem.from_fits(
    domain, reports, U=U, F=0.0, regime="full", data_threshold=0.1
)
env = gw.solve_envelope(system, series.times)
rep = gw.check_trajectory(series, env)

print(f"{'t':>6} {'theta^2':>12} {'bound':>12} {'psi^2':>12} {'bound':>12}")
for i in range(0, len(series), len(series) // 8):
    print(f"{series.times[i]:6.2f} {series.theta[i]**2:12.3e} {env.theta_sq[i]:12.3e} "
          f"{series.psi[i]**2:12.3e} {env.psi_sq[i]:12.3e}")

print(f"\ncontained below the envelope: {rep.contained}")
print(f"guard max {rep.guard_max:.3e} vs threshold {rep.guard_threshold:.3e} "
      f"-> crossed: {rep.guard_crossed}")
print(f"small-data condition M <= {system.data_threshold}: {rep.small_data_ok}")
print(f"\npsi peak bound  : {env.psi_peak_bound:.4f}  (c max(M, M^2/sqrt(eps)))")
print(f"psi tail bound  : {env.psi_tail_bound:.4f}  (limsup form, F = 0 here)")
print(f"dissipation int : {env.dissipation_integral:.4e}  (finite certificate)")

# the conclusion-level bounds for this run
bounds = dg.evaluate_regularity_bounds(
    series, U=U, F=0.0, l1=domain.l1, l2=domain.l2, nu=domain.nu, eps=domain.eps
)
print(f"\nsup_t ||u||_H1 = {bounds.sup_h1:.4f}; smallest admissible prefactor "
      f"against max(M, M^2/sqrt(eps)) = {bounds.c_uniform:.3f}")
print(f"tail sup over {bounds.tail_window}: {bounds.tail_sup_h1:.2e} "
      f"(forcing-free limsup floor is 0)")
