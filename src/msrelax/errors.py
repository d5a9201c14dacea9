"""Exception hierarchy for msrelax.

Every hard failure mode has its own class so callers (and the CLI exit-code
logic) can react precisely.  Monitors never raise; they return reports.
"""


class MsrelaxError(Exception):
    """Base class for all package errors."""


# -- geometry ---------------------------------------------------------------

class NonPositiveRadius(MsrelaxError):
    """rho(phi) <= 0 somewhere: the curve left the polar-graph class."""


class Unresolved(MsrelaxError):
    """Top Fourier mode carries too much amplitude; N is too small."""


class OptimFail(MsrelaxError):
    """An iterative construction failed: the annulus-center search of
    bonnesen_monitor diverged, the admissibility projection
    (make_admissible_stack) did not converge, or a random_admissible curve
    left the sup bounds after projection."""


# -- sobolev ----------------------------------------------------------------

class NonZeroMean(MsrelaxError):
    """Negative-order norm requested for a signal with nonzero mean."""


# -- elliptic ---------------------------------------------------------------

class NearPole(MsrelaxError):
    """Evaluation point too close to a lattice point."""


class OutOfRadius(MsrelaxError):
    """Point outside the convergence disk of the small-|z| series."""


# -- potential --------------------------------------------------------------

class SolverSingular(MsrelaxError):
    """Bordered collocation system numerically singular."""


class NegativeDissipation(MsrelaxError):
    """D < 0 beyond tolerance: sign/convention bug, not physics."""


class GridTooCoarse(UserWarning):
    """H rasterization warning: interface band under-resolved."""


# -- evolution --------------------------------------------------------------

class StepRejected(MsrelaxError):
    """A step failed: a stage produced rho <= 0 ("positivity"), the area
    drift or projection failed ("area"), or the step size collapsed under
    error control ("error").  ``reason`` holds that category."""

    def __init__(self, message, reason="area"):
        super().__init__(message)
        self.reason = reason


class RecenterFail(MsrelaxError):
    """A ray from the new pole misses the curve (not star-shaped there)."""


# -- analysis ---------------------------------------------------------------

class HypothesisFail(MsrelaxError):
    """A theorem hypothesis (smallness condition) is violated by the input."""


class EnergyBalanceFail(MsrelaxError):
    """dE/dt = -D violated beyond tolerance."""


class MonotoneViolation(MsrelaxError):
    """E^2 D (or E) increased beyond slack along a trajectory."""


class NoExponentialWindow(MsrelaxError):
    """Regime fit: no late window with log-linear E decay."""
