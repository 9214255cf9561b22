"""Energy bookkeeping and the planar vorticity-stretching cancellation.

Three checks of the solver's own operators:
  - advection moves no energy: the unforced energy budget closes to the
    viscous dissipation alone;
  - the planar cancellation integral, the inner product of lap(r) with the
    solver's nonlinear term, vanishes for every 2D divergence-free field
    (this is what closes the planar enstrophy estimate);
  - the matching integral for the transported vertical component does NOT
    vanish: a two-mode counterexample shows why that term needs an
    inequality instead of an identity.
"""

import numpy as np

from thinflow import diagnostics as dg
from thinflow import solver as sv
from thinflow import spectral as sp

# --- energy budget ---------------------------------------------------------
domain = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.2, nu=0.02, n1=6, n2=6, n3=2)
u0 = sv.make_initial(domain, "random-divfree", u_target=0.3, seed=3)
cfg = sv.SolverConfig(dt=5e-4, t_end=0.05, scheme="etd-rk4", diag_stride=1)
s = sv.run(u0, None, cfg).series
_, residual, scale = dg.energy_identity_residuals(s, domain.nu)
worst = np.max(residual / scale)
print("unforced energy budget d(theta^2)/dt = -2 nu ||Du||^2:")
print(f"  worst relative closure over {len(residual)} intervals: {worst:.2e}\n")

# --- planar cancellation ---------------------------------------------------
d2 = sp.DomainSpec(l1=1.0, l2=1.0, eps=0.2, nu=1.0, n1=8, n2=8, n3=1)
rng = np.random.default_rng(5)
residuals = []
for _ in range(20):
    r = sp.proj_r(sp.leray(sp.proj_p(sp.random_field(d2, rng, slope=-1.0))))
    residuals.append(dg.check_enstrophy_miracle(r))
print("planar cancellation of the laplacian-advection integral:")
print(f"  normalized residual over 20 random fields: max {max(residuals):.2e}\n")

# --- the term that survives ------------------------------------------------
n1, n2, n3 = d2.n1, d2.n2, d2.n3
c = np.zeros((3,) + d2.shape, complex)
c[0, n1, n2 + 1, n3] = -0.5j
c[0, n1, n2 - 1, n3] = 0.5j                      # r = (sin 2 pi y, 0)
r = sp.SpectralField(d2, c)
cs = np.zeros((3,) + d2.shape, complex)
cs[2, n1 + 1, n2, n3] = 0.5
cs[2, n1 - 1, n2, n3] = 0.5                      # s3 = cos 2 pi x
cs[2, n1 + 1, n2 + 1, n3] = 0.5
cs[2, n1 - 1, n2 - 1, n3] = 0.5                  #    + cos 2 pi (x + y)
s3 = sp.SpectralField(d2, cs)
val = dg.s_transport_residual(r, s3)
print("the transported vertical component keeps a genuine transfer term:")
print(f"  two-mode counterexample, normalized integral = {val:.4f} (not zero)")
