"""Fractional Sobolev norms: closed forms, scalings, inequalities, curve norms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from msrelax import cli, evolution, geometry, potential, sobolev
from msrelax.errors import NonZeroMean


def cos_signal(k, P=np.pi, amp=1.0, M=128):
    x = 2.0 * P * np.arange(M) / M
    return sobolev.from_samples(amp * np.cos(np.pi * k * x / P), P)


def random_signal(rng, K, zero_mean=False):
    coeffs = rng.normal(size=2 * K + 1) + 1j * rng.normal(size=2 * K + 1)
    coeffs[:K] = np.conj(coeffs[:K:-1])
    coeffs[K] = coeffs[K].real
    if zero_mean:
        coeffs[K] = 0.0
    return sobolev.PeriodicSignal(np.pi, coeffs)


def fractional_derivative(signal, sigma):
    """|d|^sigma: multiply coefficients by |(pi/P) k|^sigma, zero the mean."""
    K = signal.K
    k = signal.wavenumbers().astype(float)
    w = np.abs(np.pi * k / signal.P)
    w[K] = 1.0
    c = signal.coeffs * w**sigma
    c[K] = 0.0
    return sobolev.PeriodicSignal(signal.P, c)


def poincare_check(signal, sigma):
    """||f - mean||_L2^2 <= (P/pi)^{2 sigma} ||f||_{H^sigma}^2."""
    K = signal.K
    c = signal.coeffs.copy()
    c[K] = 0.0
    lhs = float(np.sum(np.abs(c) ** 2))
    rhs = ((signal.P / np.pi) ** (2.0 * sigma)
           * sobolev.h_norm(signal, sigma) ** 2)
    return {"lhs": lhs, "rhs": rhs}


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,sigma", [(1, 0.5), (3, 1.0), (5, -0.5), (4, 2.0)])
def test_h_norm_single_mode(k, sigma):
    # f = cos(k x) on [0, 2 pi): ||f||_{H^sigma} = sqrt(pi) k^sigma
    sig = cos_signal(k)
    assert abs(sobolev.h_norm(sig, sigma) - np.sqrt(np.pi) * k**sigma) < 1e-12


def test_l2_norm_parseval():
    rng = np.random.default_rng(1)
    sig = random_signal(rng, 12)
    vals = sobolev.to_samples(sig, 256)
    # ||f||_L2^2 = int f^2 dx = mean(f^2) * 2P
    assert abs(np.mean(vals**2) * 2.0 * np.pi
               - sobolev.l2_norm(sig)**2) < 1e-10


def test_samples_roundtrip():
    rng = np.random.default_rng(2)
    vals = rng.normal(size=63)  # odd count: no half-weight Nyquist mode
    sig = sobolev.from_samples(vals, 1.7)
    assert np.max(np.abs(sobolev.to_samples(sig, 63) - vals)) < 1e-12


@given(st.integers(1, 24), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_to_samples_aliasing_matches_direct_sum(K, seed):
    # fewer samples than wavenumbers: modes beyond the grid alias onto it
    rng = np.random.default_rng([41, seed])
    M = int(rng.integers(1, 2 * K + 1))
    P = rng.uniform(0.5, 3.0)
    coeffs = rng.normal(size=2 * K + 1) + 1j * rng.normal(size=2 * K + 1)
    coeffs[:K] = np.conj(coeffs[:K:-1])
    coeffs[K] = coeffs[K].real
    sig = sobolev.PeriodicSignal(P, coeffs)
    x = 2.0 * P * np.arange(M) / M
    k = sig.wavenumbers()
    direct = (np.exp(1j * np.pi * np.outer(x, k) / P) @ coeffs).real
    direct /= np.sqrt(2.0 * P)
    scale = np.sum(np.abs(coeffs)) / np.sqrt(2.0 * P)
    assert np.max(np.abs(sobolev.to_samples(sig, M) - direct)) < 1e-13 * scale


def test_mean():
    sig = sobolev.from_samples(3.5 + np.cos(np.linspace(0, 2 * np.pi, 64,
                                                        endpoint=False)), np.pi)
    assert abs(sig.mean() - 3.5) < 1e-12


def test_dilation_homogeneity():
    # stretching the domain by lambda scales ||.||_{H^sigma} by lambda^{1/2-sigma}
    rng = np.random.default_rng(3)
    vals = rng.normal(size=64)
    vals -= vals.mean()
    lam = 2.5
    a = sobolev.from_samples(vals, 1.0)
    b = sobolev.from_samples(vals, lam)
    for sigma in (-0.5, 0.5, 1.0):
        ratio = sobolev.h_norm(b, sigma) / sobolev.h_norm(a, sigma)
        assert abs(ratio - lam ** (0.5 - sigma)) < 1e-10


# ---------------------------------------------------------------------------
# fractional derivative
# ---------------------------------------------------------------------------

def test_fractional_derivative_single_mode():
    sig = cos_signal(4)
    d = fractional_derivative(sig, 1.0)
    vals = sobolev.to_samples(d, 128)
    x = 2.0 * np.pi * np.arange(128) / 128
    assert np.max(np.abs(vals - 4.0 * np.cos(4 * x))) < 1e-10


def test_fractional_derivative_composes():
    rng = np.random.default_rng(4)
    sig = random_signal(rng, 10, zero_mean=True)
    one = fractional_derivative(sig, 0.7)
    two = fractional_derivative(one, 0.3)
    direct = fractional_derivative(sig, 1.0)
    assert np.max(np.abs(two.coeffs - direct.coeffs)) < 1e-10


def test_h_norm_via_derivative():
    rng = np.random.default_rng(5)
    sig = random_signal(rng, 10, zero_mean=True)
    for sigma in (-0.5, 0.5, 1.5):
        lhs = sobolev.h_norm(sig, sigma)
        rhs = sobolev.l2_norm(fractional_derivative(sig, sigma))
        assert abs(lhs - rhs) < 1e-10


def test_negative_order_requires_zero_mean():
    sig = cos_signal(2)
    shifted = sobolev.PeriodicSignal(sig.P, sig.coeffs + np.eye(1, sig.coeffs.size,
                                                                sig.K)[0])
    with pytest.raises(NonZeroMean):
        sobolev.h_norm(shifted, -0.5)


# ---------------------------------------------------------------------------
# inequalities
# ---------------------------------------------------------------------------

def test_interpolation_equality_single_mode():
    rep = sobolev.interpolation_check(cos_signal(3), 0.0, 0.5, 1.0)
    assert abs(rep["ratio"] - 1.0) < 1e-12


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_interpolation_inequality(seed):
    rng = np.random.default_rng([31, seed])
    sig = random_signal(rng, int(rng.integers(2, 20)), zero_mean=True)
    alpha, beta = sorted(rng.uniform(-1.0, 1.5, 2))
    beta = max(beta, alpha + 0.1)
    sigma = rng.uniform(alpha + 0.01, beta - 0.01)
    rep = sobolev.interpolation_check(sig, alpha, sigma, beta)
    assert rep["ratio"] <= 1.0 + 1e-10


def test_poincare_equality_lowest_mode():
    rep = poincare_check(cos_signal(1), 1.0)
    assert abs(rep["lhs"] - rep["rhs"]) < 1e-12


def test_poincare_strict_higher_mode():
    rep = poincare_check(cos_signal(3), 1.0)
    assert abs(rep["lhs"] / rep["rhs"] - 1.0 / 9.0) < 1e-12


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_poincare_inequality(seed):
    rng = np.random.default_rng([37, seed])
    sig = random_signal(rng, int(rng.integers(2, 20)))
    sigma = rng.uniform(0.1, 1.5)
    rep = poincare_check(sig, sigma)
    assert rep["lhs"] <= rep["rhs"] * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# norms on curves
# ---------------------------------------------------------------------------

def test_arclength_angles_circle_identity():
    cache = geometry.build_cache(geometry.single_mode_curve(1.0, 2, 0.0))
    phi = sobolev.arclength_angles(cache)
    assert np.max(np.abs(phi - cache.phi_nodes)) < 1e-12


def assert_arclength_equispaced(cache, phi):
    # verify s(phi_j) = j L / M with a dense independent quadrature
    dense = 1 << 14
    t = 2.0 * np.pi * np.arange(dense) / dense
    ell = np.hypot(geometry.eval_rho(cache.curve, t),
                   geometry.eval_rho(cache.curve, t, 1))
    # cumulative trapezoid rule (independent of the spectral antiderivative)
    s_dense = np.concatenate(
        [[0.0], np.cumsum(0.5 * (ell + np.roll(ell, -1)))]) * (2.0 * np.pi / dense)
    length = s_dense[-1]
    s_at = np.interp(phi, np.concatenate([t, [2.0 * np.pi]]), s_dense)
    target = length * np.arange(cache.M) / cache.M
    assert np.max(np.abs(s_at - target)) < 1e-6 * length


def test_arclength_angles_equispaced():
    cache = geometry.build_cache(geometry.single_mode_curve(1.0, 3, 0.03))
    assert_arclength_equispaced(cache, sobolev.arclength_angles(cache))


@given(st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_arclength_angles_equispaced_random_torus(seed):
    rng = np.random.default_rng([43, seed])
    curve = geometry.random_admissible(rng, N=32, domain="torus", L=8.0)
    cache = geometry.build_cache(curve)
    assert_arclength_equispaced(cache, sobolev.arclength_angles(cache))


@pytest.mark.parametrize("k,sigma", [(2, 1.0), (5, 0.5), (3, -0.5)])
def test_curve_norm_circle_closed_form(k, sigma):
    # on a circle of radius R: ||cos(k phi)||_{H^sigma(Gamma)} =
    # sqrt(pi R) (k/R)^sigma
    R = 1.7
    cache = geometry.build_cache(geometry.single_mode_curve(R, 2, 0.0))
    f = np.cos(k * cache.phi_nodes)
    val = sobolev.curve_norm(cache, f, sigma)
    assert abs(val - np.sqrt(np.pi * R) * (k / R) ** sigma) < 1e-10


def test_curve_norm_order_one_converges_to_resampled_norm():
    # sigma = 1 is integrated on the phi-nodes; on the regime32 initial
    # curve with its own V it converges under N-doubling and, once resolved,
    # matches the arc-length-resampled norm it replaced
    vals = {}
    for N in (32, 64, 128):
        cfg = {**evolution.DEFAULTS, **cli.RUNS["regime32"], "N": N,
               "seed": 11}
        cache = geometry.build_cache(evolution.initial_curve(cfg))
        V = potential.solve_ms(cache).V
        vals[N] = sobolev.curve_norm(cache, V, 1.0)
    assert abs(vals[32] / vals[128] - 1.0) < 1e-6
    assert abs(vals[64] / vals[128] - 1.0) < 1e-9
    resampled = sobolev.h_norm(sobolev.curve_signal(cache, V), 1.0)
    assert abs(vals[128] / resampled - 1.0) < 1e-12


def test_curve_norm_negative_order_mean_guard():
    cache = geometry.build_cache(geometry.single_mode_curve(1.0, 2, 0.0))
    with pytest.raises(NonZeroMean):
        sobolev.curve_norm(cache, 1.0 + np.cos(2 * cache.phi_nodes), -0.5)
