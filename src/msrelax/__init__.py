"""Spectral boundary-integral simulation of curvature-driven two-phase
interface relaxation for nearly circular curves on the plane and flat torus,
with a diagnostics harness for the energy gap E, squared distance H, and
dissipation D along trajectories."""

__version__ = "1.0.0"

# not cli: importing it here makes `python -m msrelax.cli` warn
from . import (analysis, elliptic, errors, evolution, geometry, potential,
               sobolev)

__all__ = ["analysis", "cli", "elliptic", "errors", "evolution", "geometry",
           "potential", "sobolev", "__version__"]
