"""Homogeneous fractional Sobolev norms of band-limited periodic functions.

A function on an interval of length 2P (half-period P) is an (N, 2) array in
geometry's cos/sin layout over the angle phi = pi x / P:

    f(x) = a_0 + sum_{k>=1} a_k cos(pi k x / P) + b_k sin(pi k x / P),

so ||f - a_0||_L2^2 = P sum_{k>=1} (a_k^2 + b_k^2), and

    ||f||_{H^sigma}^2 = P sum_{k>=1} (pi k / P)^{2 sigma} (a_k^2 + b_k^2).

Negative orders need zero-mean data: a_0 must be rounding-level, below
MEAN_TOL * max(1, max |coefficient|), or h_norm raises NonZeroMean.

Curve norms ||f||_{H^sigma(Gamma)} resample f to uniform arc length (spectral
antiderivative of ell, Newton-inverted, evaluated by ``geometry.eval_series``)
and take the coefficients there with 2P = L(Gamma); the order sigma = 1 is
integrated on the phi-nodes directly, since ds = ell dphi.
"""

import numpy as np

from .errors import NonZeroMean
from . import geometry

MEAN_TOL = 1e-10


def h_norm(coef, P, sigma):
    """Homogeneous Sobolev norm of order sigma (any real sigma) of the
    (N, 2) series on an interval of half-period P.

    For sigma < 0 the series must have zero mean; raises NonZeroMean
    otherwise (silent projection would mask bugs).
    """
    scale = max(1.0, np.max(np.abs(coef)))
    if sigma < 0 and abs(coef[0, 0]) > MEAN_TOL * scale:
        raise NonZeroMean(f"mean coefficient {coef[0, 0]:.3e}")
    w = (np.pi * np.arange(1, coef.shape[0]) / P) ** (2.0 * sigma)
    return float(np.sqrt(P * np.sum(w * (coef[1:, 0]**2 + coef[1:, 1]**2))))


def interpolation_check(coef, P, alpha, sigma, beta):
    """||f||_sigma <= ||f||_alpha^{1/p} ||f||_beta^{1/q},
    p = (beta-alpha)/(beta-sigma), q = (beta-alpha)/(sigma-alpha)."""
    if not alpha < sigma < beta:
        raise ValueError("need alpha < sigma < beta")
    p = (beta - alpha) / (beta - sigma)
    q = (beta - alpha) / (sigma - alpha)
    lhs = h_norm(coef, P, sigma)
    rhs = (h_norm(coef, P, alpha) ** (1.0 / p)
           * h_norm(coef, P, beta) ** (1.0 / q))
    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else np.inf)
    return {"lhs": lhs, "rhs": rhs, "ratio": ratio}


# ---------------------------------------------------------------------------
# norms on curves
# ---------------------------------------------------------------------------

def arclength_angles(cache):
    """Angles phi_j with s(phi_j) = j * L / M: uniform arc-length nodes.

    The cumulative length s(phi) is integrated spectrally and inverted by
    Newton iteration (s' = ell > 0, so the map is strictly monotone).
    """
    length = geometry.perimeter(cache)
    mean_ell = length / (2.0 * np.pi)

    # antiderivative of ell - mean, normalized to s(0) = 0:
    # a cos(k phi) + b sin(k phi) -> (-b/k) cos(k phi) + (a/k) sin(k phi)
    fh = geometry.coeffs_from_nodes(cache.ell)
    k = np.arange(1, fh.shape[0])
    anti = np.zeros_like(fh)
    anti[1:, 0] = -fh[1:, 1] / k
    anti[1:, 1] = fh[1:, 0] / k
    anti[0, 0] = -np.sum(anti[1:, 0])

    s_targets = length * np.arange(cache.M) / cache.M
    phi = s_targets / mean_ell  # uniform initial guess
    for _ in range(60):
        res = mean_ell * phi + geometry.eval_series(anti, phi) - s_targets
        phi -= res / np.hypot(geometry.eval_rho(cache.curve, phi),
                              geometry.eval_rho(cache.curve, phi, 1))
        if np.max(np.abs(res)) < 1e-13 * length:
            break
    else:
        raise RuntimeError("arc-length inversion did not converge")
    return phi


def curve_norm(cache, f_nodes, sigma):
    """Homogeneous H^sigma(Gamma) norm of node values f.

    sigma = 1 is ||f_s||_L2 = sqrt(int f_phi^2 / ell dphi), with a spectral
    f_phi on the phi-nodes; other orders resample f to uniform arc length.
    For sigma < 0, f must have zero mean along Gamma."""
    fh = geometry.coeffs_from_nodes(np.asarray(f_nodes, dtype=float))
    if sigma == 1.0:
        f_phi = geometry.synth_nodes(fh, 1)
        return float(np.sqrt(cache.quad(f_phi**2 / cache.ell)))
    arc = geometry.coeffs_from_nodes(
        geometry.eval_series(fh, arclength_angles(cache)))
    return h_norm(arc, geometry.perimeter(cache) / 2.0, sigma)
