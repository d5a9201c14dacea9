"""Fractional Sobolev norms: closed forms, scalings, inequalities, curve norms."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from msrelax import cli, evolution, geometry, potential, sobolev
from msrelax.errors import NonZeroMean


def cos_signal(k, amp=1.0, N=64):
    """amp cos(k phi) in the (N, 2) layout; amp cos(k x) on [0, 2 pi)."""
    coef = np.zeros((N, 2))
    coef[k, 0] = amp
    return coef


def random_signal(rng, K, zero_mean=False):
    coef = rng.normal(size=(K + 1, 2))
    coef[0, 1] = 0.0
    if zero_mean:
        coef[0, 0] = 0.0
    return coef


def l2_from_nodes(coef, P):
    """||f||_L2 on [0, 2P) from the node values of the series."""
    return float(np.sqrt(2.0 * P * np.mean(geometry.synth_nodes(coef) ** 2)))


def fractional_derivative(coef, P, sigma):
    """|d|^sigma: multiply mode k by (pi k / P)^sigma, zero the mean."""
    out = coef.copy()
    out[0] = 0.0
    out[1:] *= ((np.pi * np.arange(1, coef.shape[0]) / P) ** sigma)[:, None]
    return out


def poincare_check(coef, P, sigma):
    """||f - mean||_L2^2 <= (P/pi)^{2 sigma} ||f||_{H^sigma}^2."""
    dev = coef.copy()
    dev[0] = 0.0
    lhs = l2_from_nodes(dev, P) ** 2
    rhs = (P / np.pi) ** (2.0 * sigma) * sobolev.h_norm(coef, P, sigma) ** 2
    return {"lhs": lhs, "rhs": rhs}


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,sigma", [(1, 0.5), (3, 1.0), (5, -0.5), (4, 2.0)])
def test_h_norm_single_mode(k, sigma):
    # f = cos(k x) on [0, 2 pi): ||f||_{H^sigma} = sqrt(pi) k^sigma
    val = sobolev.h_norm(cos_signal(k), np.pi, sigma)
    assert abs(val - np.sqrt(np.pi) * k**sigma) < 1e-12


@given(st.integers(1, 64), st.floats(0.1, 10.0), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_h_norm_orders_zero_and_one_from_nodes(N, P, seed):
    # on the 2N nodes, which resolve every mode of an (N, 2) series:
    # ||f||_{H^0}^2 = 2P mean((f - a_0)^2) and
    # ||f||_{H^1}^2 = ||f_x||_L2^2 = 2P mean(((pi/P) f_phi)^2)
    coef = random_signal(np.random.default_rng([47, seed]), N - 1)
    f, f_phi = geometry.synth_nodes(coef), geometry.synth_nodes(coef, 1)
    h0 = 2.0 * P * np.mean((f - coef[0, 0]) ** 2)
    h1 = 2.0 * P * np.mean((np.pi / P * f_phi) ** 2)
    assert abs(sobolev.h_norm(coef, P, 0.0) ** 2 - h0) <= 1e-12 * h0
    assert abs(sobolev.h_norm(coef, P, 1.0) ** 2 - h1) <= 1e-12 * h1


def test_dilation_homogeneity():
    # stretching the domain by lambda scales ||.||_{H^sigma} by lambda^{1/2-sigma}
    coef = random_signal(np.random.default_rng(3), 31, zero_mean=True)
    lam = 2.5
    for sigma in (-0.5, 0.5, 1.0):
        ratio = (sobolev.h_norm(coef, lam, sigma)
                 / sobolev.h_norm(coef, 1.0, sigma))
        assert abs(ratio - lam ** (0.5 - sigma)) < 1e-10


# ---------------------------------------------------------------------------
# fractional derivative
# ---------------------------------------------------------------------------

def test_fractional_derivative_single_mode():
    d = fractional_derivative(cos_signal(4), np.pi, 1.0)
    x = 2.0 * np.pi * np.arange(128) / 128
    err = geometry.synth_nodes(d) - 4.0 * np.cos(4 * x)
    assert np.max(np.abs(err)) < 1e-10


def test_fractional_derivative_composes():
    coef = random_signal(np.random.default_rng(4), 10, zero_mean=True)
    one = fractional_derivative(coef, np.pi, 0.7)
    two = fractional_derivative(one, np.pi, 0.3)
    direct = fractional_derivative(coef, np.pi, 1.0)
    assert np.max(np.abs(two - direct)) < 1e-10


def test_h_norm_via_derivative():
    coef = random_signal(np.random.default_rng(5), 10, zero_mean=True)
    for sigma in (-0.5, 0.5, 1.5):
        lhs = sobolev.h_norm(coef, np.pi, sigma)
        rhs = l2_from_nodes(fractional_derivative(coef, np.pi, sigma), np.pi)
        assert abs(lhs - rhs) < 1e-10


def test_negative_order_requires_zero_mean():
    coef = cos_signal(2)
    coef[0, 0] = 1.0
    with pytest.raises(NonZeroMean):
        sobolev.h_norm(coef, np.pi, -0.5)


def test_mean_guard_is_relative_to_the_data():
    # the mean a_0 is ignored at orders >= 0; at negative orders it must sit
    # below MEAN_TOL * max(1, max |coefficient|), so pure rounding noise (the
    # velocity of an exact circle) passes too
    noise = 1e-15 * np.random.default_rng(6).normal(size=(8, 2))
    assert sobolev.h_norm(noise, np.pi, -0.5) < 1e-14
    coef = cos_signal(3, amp=1e6)
    coef[0, 0] = 1e-6
    assert sobolev.h_norm(coef, np.pi, -0.5) == \
        sobolev.h_norm(cos_signal(3, amp=1e6), np.pi, -0.5)
    coef = cos_signal(3, amp=1e-3)
    coef[0, 0] = 1e-6
    assert sobolev.h_norm(coef, np.pi, 0.5) == \
        sobolev.h_norm(cos_signal(3, amp=1e-3), np.pi, 0.5)
    with pytest.raises(NonZeroMean):
        sobolev.h_norm(coef, np.pi, -0.5)


# ---------------------------------------------------------------------------
# inequalities
# ---------------------------------------------------------------------------

def test_interpolation_equality_single_mode():
    rep = sobolev.interpolation_check(cos_signal(3), np.pi, 0.0, 0.5, 1.0)
    assert abs(rep["ratio"] - 1.0) < 1e-12


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_interpolation_inequality(seed):
    rng = np.random.default_rng([31, seed])
    coef = random_signal(rng, int(rng.integers(2, 20)), zero_mean=True)
    P = rng.uniform(0.5, 3.0)
    alpha, beta = sorted(rng.uniform(-1.0, 1.5, 2))
    beta = max(beta, alpha + 0.1)
    sigma = rng.uniform(alpha + 0.01, beta - 0.01)
    rep = sobolev.interpolation_check(coef, P, alpha, sigma, beta)
    assert rep["ratio"] <= 1.0 + 1e-10


def test_poincare_equality_lowest_mode():
    rep = poincare_check(cos_signal(1), np.pi, 1.0)
    assert abs(rep["lhs"] - rep["rhs"]) < 1e-12


def test_poincare_strict_higher_mode():
    rep = poincare_check(cos_signal(3), np.pi, 1.0)
    assert abs(rep["lhs"] / rep["rhs"] - 1.0 / 9.0) < 1e-12


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_poincare_inequality(seed):
    rng = np.random.default_rng([37, seed])
    coef = random_signal(rng, int(rng.integers(2, 20)))
    sigma = rng.uniform(0.1, 1.5)
    rep = poincare_check(coef, np.pi, sigma)
    assert rep["lhs"] <= rep["rhs"] * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# norms on curves
# ---------------------------------------------------------------------------

def test_arclength_angles_circle_identity():
    cache = geometry.build_cache(geometry.single_mode_curve(1.0, 2, 0.0))
    phi = sobolev.arclength_angles(cache)
    assert np.max(np.abs(phi - geometry.node_trig(cache.M)[0])) < 1e-12


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
    curve = replace(geometry.random_admissible(rng, N=32), domain="torus",
                    L=8.0)
    cache = geometry.build_cache(curve)
    assert_arclength_equispaced(cache, sobolev.arclength_angles(cache))


@pytest.mark.parametrize("k,sigma", [(2, 1.0), (5, 0.5), (3, -0.5)])
def test_curve_norm_circle_closed_form(k, sigma):
    # on a circle of radius R: ||cos(k phi)||_{H^sigma(Gamma)} =
    # sqrt(pi R) (k/R)^sigma
    R = 1.7
    cache = geometry.build_cache(geometry.single_mode_curve(R, 2, 0.0))
    f = np.cos(k * geometry.node_trig(cache.M)[0])
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
    arc = geometry.coeffs_from_nodes(geometry.eval_series(
        geometry.coeffs_from_nodes(V), sobolev.arclength_angles(cache)))
    resampled = sobolev.h_norm(arc, geometry.perimeter(cache) / 2.0, 1.0)
    assert abs(vals[128] / resampled - 1.0) < 1e-12


def test_curve_norm_negative_order_mean_guard():
    cache = geometry.build_cache(geometry.single_mode_curve(1.0, 2, 0.0))
    with pytest.raises(NonZeroMean):
        sobolev.curve_norm(
            cache, 1.0 + np.cos(2 * geometry.node_trig(cache.M)[0]), -0.5)
