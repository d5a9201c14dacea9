"""Spectral representation of nearly circular curves.

A curve is a polar graph rho(phi) about a pole, stored as a band-limited real
Fourier series with N modes and evaluated at M = 2N uniform collocation nodes.
All derivatives are spectral (multiplication by ik in coefficient space).

Curvature of the polar graph:

    kappa = (rho_phi^2 - rho * rho_phiphi) / ell^3 + 1/ell,
    ell   = sqrt(rho^2 + rho_phi^2),

with ell the length element ds = ell dphi.  The cache keeps rho, rho_phi,
ell and kappa; rho_phiphi enters only kappa.  It synthesizes rho and both
derivatives by one inverse FFT, with the real factors +-k^d M/2 of the
spectrum cached per (N, d, M) and the node angles and their cosines and
sines (node_trig) per M.

The node integrals reduce over the last axis, so single curves and (B, ...)
stacks share them: ``polar_nodes`` (rho > 0 guard), ``quad`` (trapezoidal
rule), ``node_area`` (1/2 int rho^2) and ``node_moments`` (int rho^3 e(phi)).
"""

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import elliptic
from .errors import NonPositiveRadius, OptimFail


@dataclass(frozen=True)
class RadialCurve:
    """Band-limited polar curve rho(phi) about ``pole``.

    rho_hat has shape (N, 2): column 0 the cos(k phi) coefficients, column 1
    the sin(k phi) coefficients, k = 0..N-1 (the k = 0 sin entry is unused and
    must be zero).  ``R`` is the length scale of the equal-area circle; the
    flow preserves enclosed area = pi R^2.  ``domain`` is "plane" or "torus";
    the torus has fundamental cell [-L, L)^2.  The domain fixes the Green's
    function (``kernel``) of every solve on the curve.
    """

    R: float
    rho_hat: np.ndarray
    pole: np.ndarray
    domain: str = "plane"
    L: float | None = None

    def __post_init__(self):
        rho_hat = np.asarray(self.rho_hat, dtype=float)
        object.__setattr__(self, "rho_hat", rho_hat)
        object.__setattr__(self, "pole", np.asarray(self.pole, dtype=float))
        N = rho_hat.shape[0]
        if rho_hat.shape != (N, 2):
            raise ValueError("rho_hat must have shape (N, 2)")
        if N < 16 or (N & (N - 1)) != 0:
            raise ValueError("N must be a power of two, N >= 16")
        if rho_hat[0, 1] != 0.0:
            raise ValueError("sin coefficient at k=0 must be zero")
        if self.domain not in ("plane", "torus"):
            raise ValueError(f"unknown domain {self.domain!r}")
        if self.domain == "torus":
            if self.L is None or not 0.0 < self.L < math.inf:
                raise ValueError("torus domain requires a finite L > 0")

    @property
    def N(self):
        return self.rho_hat.shape[0]

    @property
    def M(self):
        return 2 * self.rho_hat.shape[0]

    @property
    def kernel(self):
        """The torus's elliptic.LatticeKernel, a value of L; None on the
        plane, whose kernel is the free-space log."""
        return elliptic.LatticeKernel(self.L) if self.domain == "torus" \
            else None


@dataclass
class GeometryCache:
    """Node-wise geometry of a RadialCurve at the M = 2N uniform angles
    node_trig(M)[0]."""

    curve: RadialCurve
    rho: np.ndarray
    rho_phi: np.ndarray
    ell: np.ndarray
    kappa: np.ndarray

    @property
    def M(self):
        return self.rho.size

    @property
    def dphi(self):
        return 2.0 * np.pi / self.M

    def quad(self, values):
        """``quad`` of this curve's node values, as a float."""
        return float(quad(values))


# ---------------------------------------------------------------------------
# synthesis / analysis between coefficients and nodes
# ---------------------------------------------------------------------------

def synth_nodes(coef, derivative=0, M=None):
    """Evaluate the (..., N, 2) cos/sin series (or a phi-derivative) at the
    M uniform nodes 2 pi j / M (default M = 2N; an even M >= 2N zero-pads
    the spectrum); leading axes are a batch of curves.  A tuple of orders
    synthesizes each, stacked along a new leading axis, by one inverse FFT;
    each slice equals its own synthesis bit for bit.  The spectrum's real
    and imaginary parts are written straight from the coefficient columns
    (_spectral_factors), with no complex temporary."""
    N = coef.shape[-2]
    if M is None:
        M = 2 * N
    elif M % 2 or M < 2 * N:
        raise ValueError(f"M = {M} must be even and at least 2N = {2 * N}")
    orders = derivative if isinstance(derivative, tuple) else (derivative,)
    X = np.zeros((len(orders),) + coef.shape[:-2] + (M // 2 + 1,),
                 dtype=complex)  # rfft layout
    for d, Xd in zip(orders, X):
        if d == 0:
            Xd.real[..., 0] = coef[..., 0, 0] * M
        re_col, re_factor, im_col, im_factor = _spectral_factors(N, d, M)
        np.multiply(coef[..., 1:, re_col], re_factor, out=Xd.real[..., 1:N])
        np.multiply(coef[..., 1:, im_col], im_factor, out=Xd.imag[..., 1:N])
    nodes = np.fft.irfft(X, M)
    return nodes if isinstance(derivative, tuple) else nodes[0]


@functools.lru_cache(maxsize=32)
def _spectral_factors(N, d, M):
    """How modes k = 1..N-1 of order d enter synth_nodes' M-node spectrum,
    (a_k - i b_k) (ik)^d M/2: its real part is the column re_col (0 for a,
    1 for b) times re_factor, its imaginary part im_col times im_factor.
    i^d (a - ib) is (a, -b), (b, a), (-a, b), (-b, -a) for d % 4 = 0..3,
    and each factor is +-k^d M/2, exact in floating point.  Returns
    (re_col, re_factor, im_col, im_factor), the factors read-only."""
    scale = np.arange(1.0, N) ** d * (M // 2)
    re_factor = scale if d % 4 < 2 else -scale
    im_factor = scale if d % 4 in (1, 2) else -scale
    for f in (re_factor, im_factor):
        f.setflags(write=False)
    return d % 2, re_factor, 1 - d % 2, im_factor


@functools.lru_cache(maxsize=8)
def node_trig(M):
    """The M uniform node angles 2 pi j / M and their cosines and sines,
    (3, M), read-only."""
    phi = 2.0 * np.pi * np.arange(M) / M
    trig = np.stack([phi, np.cos(phi), np.sin(phi)])
    trig.setflags(write=False)
    return trig


def coeffs_from_nodes(values):
    """Inverse of synth_nodes: (N, 2) real coefficients from M = 2N samples."""
    M = values.size
    N = M // 2
    X = np.fft.rfft(values)
    rho_hat = np.zeros((N, 2))
    rho_hat[0, 0] = X[0].real / M
    rho_hat[1:, 0] = 2.0 * X[1:N].real / M
    rho_hat[1:, 1] = -2.0 * X[1:N].imag / M
    return rho_hat


def polar_nodes(coef, order=1):
    """rho and its phi-derivatives up to ``order`` of (..., N, 2)
    coefficients at the nodes, from one inverse FFT; raises
    NonPositiveRadius unless rho > 0 at every node of every row."""
    rho, *derivs = synth_nodes(coef, tuple(range(order + 1)))
    if not np.all(rho > 0.0):
        raise NonPositiveRadius(f"min rho = {rho.min():.3e}")
    return rho, *derivs


def eval_series(coef, phi, derivative=0):
    """Evaluate the (N, 2) cos/sin series sum_k a_k cos(k phi) + b_k sin(k phi)
    (or a phi-derivative) at arbitrary angles by direct synthesis."""
    phi = np.asarray(phi, dtype=float)
    N = coef.shape[0]
    c = coef[:, 0] - 1j * coef[:, 1]
    if derivative:
        k = np.arange(N)
        c = c * (1j * k) ** derivative
    w = np.exp(1j * phi)
    # Horner in w = e^{i phi}; Re sum c_k w^k
    acc = np.full_like(w, c[N - 1])
    for k in range(N - 2, -1, -1):
        acc = acc * w + c[k]
    return acc.real


def eval_rho(curve, phi, derivative=0):
    """Evaluate rho (or a derivative) at arbitrary angles."""
    return eval_series(curve.rho_hat, phi, derivative)


def curve_points(curve, phi):
    """Points pole + rho(phi) e(phi) at arbitrary angles."""
    rho = eval_rho(curve, phi)
    return curve.pole + np.stack([rho * np.cos(phi), rho * np.sin(phi)], axis=-1)


# ---------------------------------------------------------------------------
# cache construction
# ---------------------------------------------------------------------------

def top_mode_ratio(rho_hat):
    """Amplitude of the top Fourier mode relative to the largest one: the
    resolution headroom, which evolution.rhs alone judges."""
    amp = np.hypot(rho_hat[:, 0], rho_hat[:, 1])
    return float(amp[-1] / max(amp.max(), 1e-300))


def build_cache(curve):
    """Fill all node-wise geometric quantities for a curve.

    Raises NonPositiveRadius unless rho > 0 everywhere; whether the curve
    is resolved is for evolution.rhs to decide.
    """
    rho, rho_phi, rho_phiphi = polar_nodes(curve.rho_hat, 2)
    ell = np.hypot(rho, rho_phi)
    kappa = (rho_phi**2 - rho * rho_phiphi) / ell**3 + 1.0 / ell
    return GeometryCache(curve, rho, rho_phi, ell, kappa)


# ---------------------------------------------------------------------------
# integral quantities
# ---------------------------------------------------------------------------

def quad(values):
    """Trapezoidal (spectrally accurate) quadrature over [0, 2pi) of values
    at M uniform nodes, reduced over the last axis of (..., M)."""
    return np.sum(values, axis=-1) * (2.0 * np.pi / values.shape[-1])


def node_area(rho):
    """Enclosed area 1/2 int rho^2 dphi of (..., M) node radii."""
    return 0.5 * quad(rho**2)


def node_moments(rho):
    """First moments int rho^3 (cos phi, sin phi) dphi of (..., M) node
    radii, (..., 2): 3 area times the barycenter's offset from the pole."""
    return quad(rho[..., None, :] ** 3 * node_trig(rho.shape[-1])[1:])


def perimeter(cache):
    return cache.quad(cache.ell)


def enclosed_area(cache):
    return float(node_area(cache.rho))


def isoperimetric_gap(cache):
    """Perimeter minus the perimeter of the equal-area circle, computed
    without catastrophic cancellation.

    Two stable pieces: the excess over the nominal circle,

        perimeter - 2 pi R = quad(ell - R),
        ell - R = (u (2R + u) + rho_phi^2) / (ell + R),   u = rho - R,

    with u synthesized directly from the coefficient deviation (so the gap
    stays fully resolved at the 1e-14 scale, where perimeter() - 2 pi R is
    pure rounding noise), and the offset between the nominal and the actual
    equal-area radius, whose squared mismatch x = area/(pi R^2) - 1 (an ulp
    or two after area projection) is assembled from exact low-level
    differences rather than from the O(R^2) totals.
    """
    curve = cache.curve
    R = curve.R
    dev_hat = curve.rho_hat.copy()
    dev_hat[0, 0] -= R
    u = synth_nodes(dev_hat)
    num = u * (2.0 * R + u) + cache.rho_phi**2
    excess = cache.quad(num / (cache.ell + R))
    # area = pi (a0^2 + sum amp^2 / 2) for the band-limited series
    a0 = curve.rho_hat[0, 0]
    x = ((a0 - R) * (a0 + R) + 0.5 * np.sum(curve.rho_hat[1:] ** 2)) / R**2
    # 2 pi (R_eq - R) = 2 pi R (sqrt(1+x) - 1)
    return excess - 2.0 * np.pi * R * x / (1.0 + np.sqrt(1.0 + x))


def barycenter_bulk(cache):
    """Centroid of the enclosed region: pole + (1/(3|Omega|)) int rho^3 e(phi)."""
    return cache.curve.pole + node_moments(cache.rho) / (
        3.0 * enclosed_area(cache))


def gauss_bonnet_residual(cache):
    """| int kappa ds - 2 pi |; zero for every embedded closed curve."""
    return abs(cache.quad(cache.kappa * cache.ell) - 2.0 * np.pi)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def admissibility_report(curve, delta=0.05):
    """Check the nearly-circular conditions at tolerance delta (relative to R).

    Conditions: sup|rho - R| <= delta R, sup|rho_phi| <= delta R, bulk
    barycenter at the pole, enclosed area pi R^2.  Returns residuals and
    booleans; raises only NonPositiveRadius, as build_cache does.  One
    polar synthesis feeds admissibility_report_nodes.
    """
    rep = admissibility_report_nodes(*polar_nodes(curve.rho_hat[None]),
                                     curve.R, delta)
    return {k: v[0].item() for k, v in rep.items()}


def admissibility_report_nodes(rho, rho_phi, R, delta=0.05):
    """admissibility_report of B rows sharing R, from their node values
    (B, M) of rho and rho_phi: the same keys, each an array over the rows.
    The annulus and slope residuals are the sup norms sup|rho - R| / R and
    sup|rho_phi| / R; the barycentre residual is the offset from the pole,
    whatever the pole's position."""
    area = node_area(rho)
    bary = node_moments(rho) / (3.0 * area[:, None])
    report = {
        "annulus_residual": np.max(np.abs(rho - R), axis=-1) / R,
        "slope_residual": np.max(np.abs(rho_phi), axis=-1) / R,
        "barycenter_residual": np.hypot(bary[:, 0], bary[:, 1]) / R,
        "area_residual": np.abs(area - np.pi * R**2) / (np.pi * R**2),
    }
    report["annulus_pass"] = report["annulus_residual"] <= delta
    report["slope_pass"] = report["slope_residual"] <= delta
    report["barycenter_pass"] = report["barycenter_residual"] <= 1e-10
    report["area_pass"] = report["area_residual"] <= 1e-10
    report["pass"] = (report["annulus_pass"] & report["slope_pass"]
                      & report["barycenter_pass"] & report["area_pass"])
    return report


def bonnesen_monitor(cache):
    """Containing-annulus width vs the isoperimetric gap.

    Optimizes the annulus center by Nelder-Mead from the barycenter and
    returns lhs = pi^2 (R_out - R_in)^2 and rhs = L^2 - (2 pi R)^2.  The
    optimized annulus only upper-bounds the minimal one, so lhs/rhs is a
    monitored ratio, not an assertion.
    """
    phi = 2.0 * np.pi * np.arange(4096) / 4096
    pts = curve_points(cache.curve, phi)

    def width(c):
        r = np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1])
        return r.max() - r.min()

    from scipy.optimize import minimize  # only caller; keeps import cheap

    c0 = barycenter_bulk(cache)
    res = minimize(width, c0, method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 2000})
    if not np.all(np.isfinite(res.x)) or np.hypot(*(res.x - c0)) > cache.curve.R:
        raise OptimFail("annulus center search diverged")
    r = np.hypot(pts[:, 0] - res.x[0], pts[:, 1] - res.x[1])
    r_out, r_in = float(r.max()), float(r.min())
    length = perimeter(cache)
    return {
        "center": res.x,
        "R_out": r_out,
        "R_in": r_in,
        "lhs": np.pi**2 * (r_out - r_in) ** 2,
        "rhs": length**2 - (2.0 * np.pi * cache.curve.R) ** 2,
    }


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------

def make_admissible(curve):
    """Project (a0, a1, b1) so area = pi R^2 and the barycenter sits at the pole.

    a0 comes from the area identity a0^2 = R^2 - (1/2) sum_{k>=1} |rho_hat_k|^2
    in closed form, and a Newton iteration in (a1, b1) zeroes the first
    moments int rho^3 e(phi) dphi (see make_admissible_stack).
    """
    return replace(curve, rho_hat=make_admissible_stack(curve.rho_hat[None],
                                                        curve.R)[0])


@functools.lru_cache(maxsize=8)
def _moment_table(M):
    """cos, sin, cos^2, cos sin and sin^2 of the M node angles, (5, M),
    read-only: the weights of make_admissible_stack's node sums."""
    _, cphi, sphi = node_trig(M)
    table = np.stack([cphi, sphi, cphi * cphi, cphi * sphi, sphi * sphi])
    table.setflags(write=False)
    return table


def make_admissible_stack(rho_hat, R):
    """make_admissible for stacked (B, N, 2) coefficients sharing R; returns
    the projected copy.

    Each Newton iterate first sets a0 exactly from the area identity
    a0^2 = R^2 - (1/2) sum_{k>=1} |rho_hat_k|^2, then takes a Newton step in
    (a1, b1) on the moments m = int rho^3 (cos phi, sin phi) dphi, whose
    2 x 2 Jacobian carries a0's dependence da0/da1 = -a1 / (2 a0),
    da0/db1 = -b1 / (2 a0): dm/da1 = 3 int rho^2 e(phi) (cos phi - a1 / (2 a0)),
    and likewise for b1.  One einsum of rho^2 and rho^3 against
    _moment_table gives m and the Jacobian, and Cramer's rule solves the
    step.  Each row iterates until its moments converge and is then left
    alone, so every row matches its B = 1 projection bit for bit.  Raises
    OptimFail at once if a row's area is out of reach (a0^2 <= 0), and if
    any row has not converged after 50 Newton steps.
    """
    rho_hat = np.array(rho_hat, dtype=float)
    M = 2 * rho_hat.shape[-2]
    table = _moment_table(M)
    # the sums below are node sums, quad without its factor 2 pi / M
    tol = 1e-14 * R**2 * M / (2.0 * np.pi)
    rows = np.arange(rho_hat.shape[0])
    for _ in range(50):
        a0sq = R**2 - 0.5 * np.sum(rho_hat[rows, 1:] ** 2, axis=(1, 2))
        # a NaN coefficient fails here too
        if not np.all(a0sq > 0.0):
            raise OptimFail("admissibility projection did not converge: "
                            "area pi R^2 out of reach")
        a0 = np.sqrt(a0sq)
        rho_hat[rows, 0, 0] = a0
        rho = synth_nodes(rho_hat[rows])
        rho2 = rho * rho
        sums = np.einsum("pbm,jm->pbj", np.stack([rho2, rho2 * rho]), table)
        m = sums[1, :, :2]
        moving = ~(np.max(np.abs(m), axis=-1) < tol)
        rows, q, m = rows[moving], sums[0, moving], m[moving]
        if rows.size == 0:
            return rho_hat
        # the Jacobian over 3, from the rho^2 sums q
        da0 = rho_hat[rows, 1] / (2.0 * a0[moving, None])
        j00 = q[:, 2] - da0[:, 0] * q[:, 0]
        j01 = q[:, 3] - da0[:, 1] * q[:, 0]
        j10 = q[:, 3] - da0[:, 0] * q[:, 1]
        j11 = q[:, 4] - da0[:, 1] * q[:, 1]
        det = 3.0 * (j00 * j11 - j01 * j10)
        rho_hat[rows, 1, 0] -= (m[:, 0] * j11 - m[:, 1] * j01) / det
        rho_hat[rows, 1, 1] -= (j00 * m[:, 1] - j10 * m[:, 0]) / det
    raise OptimFail("admissibility projection did not converge")


class AdmissibleStack(NamedTuple):
    """random_admissible_stack's projected unit-radius (B, N, 2)
    coefficients, with their node values (B, M) of rho and rho_phi from one
    polar synthesis and the admissibility_report_nodes report that passed
    every row."""

    rho_hat: np.ndarray
    rho: np.ndarray
    rho_phi: np.ndarray
    report: dict


def random_admissible(rng, N=32, delta=0.05, k_max=8):
    """Random nearly circular curve of unit equal-area radius satisfying all
    admissibility conditions: row 0 of random_admissible_stack(rng, 1, ...).

    Draws modes 2..k_max with random phases, scales the perturbation so both
    sup bounds sit at ``delta / 2``, then Newton-projects the area and
    barycenter conditions.  The curve lies in the plane, its pole at the
    origin.  Raises OptimFail if the projected curve breaks a sup bound.
    """
    rho_hat = random_admissible_stack(rng, 1, N, delta, k_max).rho_hat[0]
    return RadialCurve(1.0, rho_hat, np.zeros(2))


def random_admissible_stack(rng, B, N=32, delta=0.05, k_max=8):
    """B random_admissible curves drawn from one generator, as an
    AdmissibleStack: row i is the curve the i-th of B successive
    random_admissible(rng, ...) calls would return, bit for bit, since one
    uniform call fills the draws in the same stream order (per curve, the
    k_max - 1 amplitudes, then the k_max - 1 phases).

    The rows are projected (make_admissible_stack), synthesized once
    (polar_nodes) and checked (admissibility_report_nodes).  The projection
    moves only a0, a1 and b1, each by O(delta^2), so a row scaled to the
    sup bounds delta / 2 stays well inside them; OptimFail if any row does
    not.
    """
    rho_hat = np.zeros((B, N, 2))
    rho_hat[:, 0, 0] = 1.0
    ks = np.arange(2, k_max + 1)
    draws = rng.uniform([[0.2], [0.0]], [[1.0], [2.0 * np.pi]],
                        (B, 2, ks.size))
    amps = draws[:, 0] / ks  # mild spectral decay
    phases = draws[:, 1]
    rho_hat[:, ks, 0] = amps * np.cos(phases)
    rho_hat[:, ks, 1] = amps * np.sin(phases)
    rho, rho_phi = synth_nodes(rho_hat, (0, 1))
    dev = np.max(np.abs(rho - 1.0), axis=-1)
    slope = np.max(np.abs(rho_phi), axis=-1)
    rho_hat[:, 1:] *= (0.5 * delta / np.maximum(dev, slope))[:, None, None]
    rho_hat = make_admissible_stack(rho_hat, 1.0)
    rho, rho_phi = polar_nodes(rho_hat)
    report = admissibility_report_nodes(rho, rho_phi, 1.0, delta)
    if not report["pass"].all():
        raise OptimFail("random_admissible: projected curve outside the "
                        "sup bounds")
    return AdmissibleStack(rho_hat, rho, rho_phi, report)


def single_mode_curve(R, k, eps, N=32, phase=0.0, domain="plane", L=None,
                      project_area=True):
    """rho = R + eps cos(k phi - phase), optionally area-projected to pi R^2."""
    rho_hat = np.zeros((N, 2))
    rho_hat[0, 0] = R
    rho_hat[k, 0] = eps * np.cos(phase)
    rho_hat[k, 1] = eps * np.sin(phase)
    if project_area:
        _set_area_zero_mode(rho_hat, R)
    return RadialCurve(R, rho_hat, np.zeros(2), domain, L)


def project_area(curve):
    """Adjust the zero mode so enclosed area equals pi R^2 exactly."""
    rho_hat = curve.rho_hat.copy()
    _set_area_zero_mode(rho_hat, curve.R)
    return replace(curve, rho_hat=rho_hat)


def _set_area_zero_mode(rho_hat, R):
    # exact zero-mode adjustment: area = pi (a0^2 + sum amp^2 / 2)
    a0sq = R**2 - 0.5 * np.sum(rho_hat[1:] ** 2)
    if not a0sq > 0.0:
        raise NonPositiveRadius("area projection impossible: perturbation too large")
    rho_hat[0, 0] = np.sqrt(a0sq)


def shifted_disk_curve(R, a):
    """Radial function (N = 64, plane) of the disk of radius R whose center
    sits at (a, 0) while the pole stays at the origin:
    rho = a cos phi + sqrt(R^2 - a^2 sin^2 phi)."""
    phi = 2.0 * np.pi * np.arange(128) / 128
    rho = a * np.cos(phi) + np.sqrt(R**2 - (a * np.sin(phi)) ** 2)
    return RadialCurve(R, coeffs_from_nodes(rho), np.zeros(2))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def write_curve(curve, path):
    """Write the text format: header `msrc v1 N R domain [L] pole_x pole_y`
    then N lines of (cos, sin) coefficient pairs with 17 significant digits."""
    with open(path, "w") as fh:
        head = [f"msrc v1 {curve.N} {curve.R:.17g} {curve.domain}"]
        if curve.domain == "torus":
            head.append(f"{curve.L:.17g}")
        head.append(f"{curve.pole[0]:.17g} {curve.pole[1]:.17g}")
        fh.write(" ".join(head) + "\n")
        for a, b in curve.rho_hat:
            fh.write(f"{a:.17g} {b:.17g}\n")


def read_curve(path):
    """Read a write_curve file; ValueError unless the header is msrc v1, R
    is finite and positive, and the pole and every coefficient are
    finite."""
    with open(path) as fh:
        parts = fh.readline().split()
        domain = parts[4] if len(parts) > 4 else None
        # plane: msrc v1 N R plane px py; torus adds L before the pole
        if parts[:2] != ["msrc", "v1"] or \
                len(parts) != (8 if domain == "torus" else 7):
            raise ValueError(f"{path}: not an msrc v1 header")
        N = int(parts[2])
        R = float(parts[3])
        L = float(parts[5]) if domain == "torus" else None
        pole = np.array([float(parts[-2]), float(parts[-1])])
        rho_hat = np.array([[float(x) for x in fh.readline().split()]
                            for _ in range(N)])
    if not 0.0 < R < math.inf:
        raise ValueError(f"{path}: R = {R} is not finite and positive")
    if not (np.all(np.isfinite(pole)) and np.all(np.isfinite(rho_hat))):
        raise ValueError(f"{path}: the pole and coefficients must be finite")
    return RadialCurve(R, rho_hat, pole, domain, L)
