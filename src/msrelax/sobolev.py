"""Fourier-based homogeneous fractional Sobolev norms on periodic signals.

Conventions, for a real signal f on an interval of length 2P (half-period P):

    f_hat(k) = (1/sqrt(2P)) int f(x) exp(-i (pi/P) k x) dx,

so Parseval reads ||f||_L2^2 = sum_k |f_hat(k)|^2, and

    ||f||_{H^sigma}^2 = sum_{k != 0} |(pi/P) k|^{2 sigma} |f_hat(k)|^2.

Curve norms ||f||_{H^sigma(Gamma)} resample f to uniform arc length (spectral
antiderivative of ell, Newton-inverted, evaluated by ``geometry.eval_series``)
and apply the same machinery with 2P = L(Gamma); the order sigma = 1 is
integrated on the phi-nodes directly, since ds = ell dphi.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import NonZeroMean
from . import geometry

MEAN_TOL = 1e-12


@dataclass(frozen=True)
class PeriodicSignal:
    """Real periodic signal stored as complex coefficients for k in [-K, K].

    coeffs[K + k] = f_hat(k); conjugate symmetry f_hat(-k) = conj(f_hat(k))
    is enforced at construction.
    """

    P: float
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        object.__setattr__(self, "coeffs", c)
        if c.size % 2 != 1:
            raise ValueError("coeffs must have odd length 2K+1")
        K = c.size // 2
        sym = np.max(np.abs(c[K + 1:] - np.conj(c[K - 1::-1])))
        if sym > 1e-10 * max(1.0, np.max(np.abs(c))):
            raise ValueError("coefficients are not conjugate-symmetric")

    @property
    def K(self):
        return self.coeffs.size // 2

    def wavenumbers(self):
        return np.arange(-self.K, self.K + 1)

    def mean(self):
        """Signal mean = f_hat(0)/sqrt(2P)."""
        return float(self.coeffs[self.K].real) / np.sqrt(2.0 * self.P)


def from_samples(values, P):
    """Build a PeriodicSignal from M uniform samples on [0, 2P)."""
    values = np.asarray(values, dtype=float)
    M = values.size
    a = np.fft.fft(values) / M            # a_k, f = sum a_k e^{i pi k x / P}
    K = M // 2 - 1 if M % 2 == 0 else M // 2
    coeffs = np.concatenate([a[M - K:], a[:K + 1]])
    return PeriodicSignal(P, np.sqrt(2.0 * P) * coeffs)


def to_samples(signal, M):
    """Evaluate the signal at M uniform points on [0, 2P); wavenumbers
    beyond the grid alias onto k mod M."""
    a = np.zeros(M, dtype=complex)
    np.add.at(a, signal.wavenumbers() % M, signal.coeffs)
    return (np.fft.ifft(a) * M).real / np.sqrt(2.0 * signal.P)


def h_norm(signal, sigma):
    """Homogeneous Sobolev norm of order sigma (any real sigma).

    For sigma < 0 the signal must have zero mean; raises NonZeroMean
    otherwise (silent projection would mask bugs).
    """
    K = signal.K
    if sigma < 0 and abs(signal.coeffs[K]) > MEAN_TOL * np.sqrt(2 * signal.P):
        raise NonZeroMean(f"mean coefficient {abs(signal.coeffs[K]):.3e}")
    k = signal.wavenumbers().astype(float)
    w = np.abs(np.pi * k / signal.P)
    w[K] = 1.0  # excluded below
    terms = w ** (2.0 * sigma) * np.abs(signal.coeffs) ** 2
    terms[K] = 0.0
    return float(np.sqrt(np.sum(terms)))


def l2_norm(signal):
    return float(np.sqrt(np.sum(np.abs(signal.coeffs) ** 2)))


def interpolation_check(signal, alpha, sigma, beta):
    """||f||_sigma <= ||f||_alpha^{1/p} ||f||_beta^{1/q},
    p = (beta-alpha)/(beta-sigma), q = (beta-alpha)/(sigma-alpha)."""
    if not alpha < sigma < beta:
        raise ValueError("need alpha < sigma < beta")
    p = (beta - alpha) / (beta - sigma)
    q = (beta - alpha) / (sigma - alpha)
    lhs = h_norm(signal, sigma)
    rhs = h_norm(signal, alpha) ** (1.0 / p) * h_norm(signal, beta) ** (1.0 / q)
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


def curve_signal(cache, f_nodes):
    """Resample node values of f to uniform arc length (spectral
    interpolation from the phi-nodes) as a PeriodicSignal with half-period
    P = L(Gamma)/2."""
    fh = geometry.coeffs_from_nodes(np.asarray(f_nodes, dtype=float))
    f_arc = geometry.eval_series(fh, arclength_angles(cache))
    return from_samples(f_arc, geometry.perimeter(cache) / 2.0)


def curve_norm(cache, f_nodes, sigma):
    """Homogeneous H^sigma(Gamma) norm of node values f.

    sigma = 1 is ||f_s||_L2 = sqrt(int f_phi^2 / ell dphi), with a spectral
    f_phi on the phi-nodes; other orders resample f to uniform arc length.
    For sigma < 0, f must have zero mean along Gamma."""
    if sigma == 1.0:
        fh = geometry.coeffs_from_nodes(np.asarray(f_nodes, dtype=float))
        f_phi = geometry.synth_nodes(replace(cache.curve, rho_hat=fh), 1)
        return float(np.sqrt(cache.quad(f_phi**2 / cache.ell)))
    sig = curve_signal(cache, f_nodes)
    if sigma < 0:
        K = sig.K
        c = sig.coeffs.copy()
        mean_scale = np.sqrt(2.0 * sig.P)
        if abs(c[K]) > 1e-10 * mean_scale * max(1.0, np.max(np.abs(c))):
            raise NonZeroMean("curve_norm with sigma<0 needs zero-mean data")
        c[K] = 0.0
        sig = PeriodicSignal(sig.P, c)
    return h_norm(sig, sigma)
