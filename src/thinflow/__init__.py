"""Pseudo-spectral toolkit for Navier-Stokes flow on thin periodic boxes.

Importing the package loads no submodule; import the one you need, e.g.
``from thinflow import spectral as sp``.

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

__version__ = "0.1.0"
