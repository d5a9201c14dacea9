"""Weierstrass sigma / periodic kernel Lambda: periodicity, series, residuals."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from msrelax import elliptic, geometry
from msrelax.errors import NearPole, OutOfRadius


@pytest.fixture(scope="module")
def kern():
    return elliptic.LatticeKernel(1.0)


def random_points(seed, n, lo=-0.9, hi=0.9):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, n) + 1j * rng.uniform(lo, hi, n)


def test_legendre_residual(kern):
    assert elliptic.legendre_residual(kern) < 1e-15


def test_quasi_period_constants(kern):
    # eta_j omega_j = pi/4 on the square lattice
    omega1, omega3, eta1, eta3 = kern.periods
    assert abs(eta1 * omega1 - np.pi / 4.0) < 1e-15
    assert abs(eta3 * omega3 - np.pi / 4.0) < 1e-15
    assert abs(kern.beta_bg - np.pi / 8.0) < 1e-15


def test_lambda_periodicity(kern):
    z = random_points(11, 100)
    base = elliptic.lam(kern, z)
    for shift in (2.0, 2.0j, 2.0 + 2.0j):
        assert np.max(np.abs(elliptic.lam(kern, z + shift) - base)) < 1e-10


def test_lambda_even(kern):
    z = random_points(13, 50)
    assert np.max(np.abs(elliptic.lam(kern, -z)
                         - elliptic.lam(kern, z))) < 1e-12


def test_lambda_log_singularity(kern):
    # Lambda(z) - log|z| -> 0 as z -> 0
    z = 1e-6 * np.exp(1j * np.linspace(0.1, 6.0, 8))
    diff = elliptic.lam(kern, z) - np.log(np.abs(z))
    assert np.max(np.abs(diff)) < 1e-11


def test_lambda_tail_matches_difference(kern):
    z = random_points(17, 40, -0.8, 0.8)
    lhs = elliptic.lambda_tail(kern, z)
    rhs = elliptic.lam(kern, z) - np.log(np.abs(z))
    assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_discrete_laplacian_background(kern):
    # away from lattice points Delta Lambda = -2 pi / (4 L^2): the background
    # charge integrates to -2 pi over the cell, cancelling the point charge.
    # Richardson-extrapolated five-point stencil kills the O(h^2) term.
    z = random_points(29, 20, 0.3, 0.7)

    def lap(h):
        return (elliptic.lam(kern, z + h) + elliptic.lam(kern, z - h)
                + elliptic.lam(kern, z + 1j * h) + elliptic.lam(kern, z - 1j * h)
                - 4.0 * elliptic.lam(kern, z)) / h**2

    lr = (4.0 * lap(5e-4) - lap(1e-3)) / 3.0
    cell_integral = lr * (2.0 * kern.L) ** 2
    assert np.max(np.abs(cell_integral / (-2.0 * np.pi) - 1.0)) < 1e-6


def test_scale_invariance():
    # Lambda_L(z) = Lambda_1(z/L) + log L
    k1 = elliptic.LatticeKernel(1.0)
    k3 = elliptic.LatticeKernel(3.0)
    z = random_points(31, 20)
    lhs = elliptic.lam(k3, 3.0 * z)
    rhs = elliptic.lam(k1, z) + np.log(3.0)
    assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_eisenstein_selection_rule():
    assert elliptic.eisenstein(2) == 0.0
    assert elliptic.eisenstein(6) == 0.0
    assert elliptic.eisenstein(4) > 0.0
    # E8 = E4^2 in the weight-8 modular space at tau = i
    g4, g8 = elliptic.eisenstein(4), elliptic.eisenstein(8)
    zeta4, zeta8 = np.pi**4 / 90.0, np.pi**8 / 9450.0
    e4, e8 = g4 / (2 * zeta4), g8 / (2 * zeta8)
    assert abs(e8 - e4**2) < 1e-10


def test_near_pole_raises(kern):
    with pytest.raises(NearPole):
        elliptic.log_sigma(kern, 1e-10)
    with pytest.raises(NearPole):
        elliptic.lam(kern, 2.0 + 1e-10j)


def test_out_of_radius_raises(kern):
    with pytest.raises(OutOfRadius):
        elliptic.lambda_tail(kern, 1.999)


def test_bad_lattice():
    # pi/(8 L^2) must be finite and positive too: 8 L^2 underflows to 0 at
    # L = 1e-300, and L^2 overflows at L = 1e200
    for L in (-1.0, 0.0, np.nan, np.inf, 1e-300, 1e200):
        with pytest.raises(ValueError, match=re.escape(f"L = {L}:")):
            elliptic.LatticeKernel(L)


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_periodicity_property(seed):
    kern = elliptic.LatticeKernel(1.0)
    rng = np.random.default_rng(seed)
    z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
    if abs(z) < 1e-3:
        z += 0.1
    assert abs(elliptic.lam(kern, z + 2.0) - elliptic.lam(kern, z)) < 1e-10


def test_eisenstein_sums_match_all_shells():
    # g_k sums only the shells whose tail bound 8 s^(2-k) / (k - 2) is above
    # 1e-18, with zeros for the rest: every degree that TAIL_RADIUS admits
    # keeps the bits of the full 64-shell sum
    top = elliptic._tail_degree(np.nextafter(elliptic.TAIL_RADIUS, 0.0))
    assert top == 1936
    assert elliptic._POINTS.size == 4 * elliptic.SHELLS * (elliptic.SHELLS + 1)
    for k in range(12, top + 1, 4):
        full = float(np.sum(elliptic._POINTS ** (-float(k))).real)
        assert elliptic.eisenstein(k) == full, k


def test_tail_degree_is_a_multiple_of_four():
    # only the powers k = 0 mod 4 enter the series, so every degree is one
    # of them, at least 8 and at most 1936, and the first power the series
    # drops, K + 4, is below 1e-17 at the reach
    reach = np.append(np.linspace(0.0, elliptic.TAIL_RADIUS, 4001)[:-1],
                      np.nextafter(elliptic.TAIL_RADIUS, 0.0))
    for r in reach:
        K = elliptic._tail_degree(r)
        assert K % 4 == 0 and 8 <= K <= 1936, (r, K)
        assert r ** (K + 4) < 1e-17, (r, K)


def test_pair_coefficients_cache_stays_bounded():
    # one table per degree, the same for every L: the tables are kept per
    # process, at most PAIR_CACHE of them, each read-only and served again
    # while it is kept
    assert elliptic._pair_coefficients.cache_info().maxsize == \
        elliptic.PAIR_CACHE
    for K in range(8, 64, 4):
        C = elliptic._pair_coefficients(K)
        assert C.shape == (K + 1, K + 1) and not C.flags.writeable
        assert C is elliptic._pair_coefficients(K)
        assert elliptic._pair_coefficients.cache_info().currsize <= \
            elliptic.PAIR_CACHE


def unit_nodes(rng, N):
    """The offsets rho e(phi) of a random admissible curve from its pole,
    scaled to a reach max|z| of 0.1 to 0.9 on the lattice of half edge 1."""
    curve = geometry.random_admissible(rng, N=N)
    _, cphi, sphi = geometry.node_trig(curve.M)
    z = geometry.synth_nodes(curve.rho_hat) * (cphi + 1j * sphi)
    return z * (rng.uniform(0.1, 0.9) / np.max(np.abs(z)))


@pytest.mark.parametrize("N", [32, 64, 128])
def test_node_tail_is_scale_invariant(N):
    # Lambda_L(z) = Lambda_1(z/L) + log L, so the tail the solver uses at
    # the nodes L z, and its factors, are the L = 1 ones at z, and each
    # degree's one pair table serves every L
    rng = np.random.default_rng(N)
    elliptic._pair_coefficients.cache_clear()
    unit, degrees = elliptic.LatticeKernel(1.0), set()
    for _ in range(4):
        z = unit_nodes(rng, N)
        ref = elliptic.lambda_tail_nodes(unit, z)
        ref_factors = elliptic.lambda_tail_factors(unit, z)
        if ref_factors is not None:
            degrees.add(elliptic._tail_degree(np.max(np.abs(z))))
        for L in (0.5, 1.0, 2.0, 8.0):
            kern = elliptic.LatticeKernel(L)
            tail = elliptic.lambda_tail_nodes(kern, L * z)
            assert np.max(np.abs(tail - ref)) <= \
                1e-15 * np.max(np.abs(ref)), L
            factors = elliptic.lambda_tail_factors(kern, L * z)
            assert (factors is None) == (ref_factors is None)
            for got, want in zip(factors or (), ref_factors or ()):
                assert np.max(np.abs(got - want)) <= \
                    1e-15 * np.max(np.abs(want)), L
    assert elliptic._pair_coefficients.cache_info().misses == len(degrees)


def test_lambda_tail_just_under_the_reach_bound(kern):
    # the reach rule's bound leaves the series' degree (at most 1936) enough
    # terms: lambda_tail matches Lambda - log|z| on a circle of reach just
    # under TAIL_RADIUS
    r = 0.9999 * elliptic.TAIL_RADIUS
    z = 2.0 * kern.L * r * np.exp(1j * np.linspace(0.0, 0.5 * np.pi, 13))
    for zi in z:
        ref = elliptic.lam(kern, zi) - np.log(abs(zi))
        assert abs(elliptic.lambda_tail(kern, zi) - ref) <= 5e-14, zi
    with pytest.raises(OutOfRadius):
        elliptic.lambda_tail(kern, 2.0 * kern.L * elliptic.TAIL_RADIUS)
