"""Pseudo-spectral toolkit for Navier-Stokes flow on thin periodic boxes.

Submodules
----------
spectral       coefficient fields, projection algebra, norms, checkpoints
solver         Galerkin time integration, forcing, initial data
diagnostics    norm functionals, identity checks, inequality fitting
inequalities   empirical constants for the functional inequalities
gronwall       comparison-ODE envelopes, rescaling, literature thresholds
artifacts      the JSON/CSV artifact formats, records from dataclass fields
cli            experiment orchestration (``thinflow`` entry point)
"""

from .spectral import (
    DomainSpec,
    SpectralField,
    deriv,
    divergence_defect,
    h1_norm,
    h2_norm,
    inner_l2,
    leray,
    load_checkpoint,
    norm_ds,
    norm_l2,
    proj_p,
    proj_q,
    proj_r,
    proj_s,
    random_field,
    save_checkpoint,
    to_physical,
    to_spectral,
    truncate,
)

__version__ = "0.1.0"
