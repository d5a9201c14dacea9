"""Geometry: spectral curves, caches, integral quantities, admissibility."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from msrelax import geometry
from msrelax.errors import NonPositiveRadius, OptimFail


def circle(R=1.0, N=32):
    rho_hat = np.zeros((N, 2))
    rho_hat[0, 0] = R
    return geometry.RadialCurve(R, rho_hat, np.zeros(2))


# ---------------------------------------------------------------------------
# exact circles and shifted disks
# ---------------------------------------------------------------------------

def test_circle_cache_exact():
    cache = geometry.build_cache(circle(2.0))
    assert np.allclose(cache.kappa, 0.5, atol=1e-14)
    assert np.allclose(cache.ell, 2.0, atol=1e-14)
    assert abs(geometry.perimeter(cache) - 4.0 * np.pi) < 1e-13
    assert abs(geometry.enclosed_area(cache) - 4.0 * np.pi) < 1e-13
    assert abs(geometry.isoperimetric_gap(cache)) < 1e-14
    assert geometry.gauss_bonnet_residual(cache) < 1e-13


def test_shifted_disk_is_a_circle():
    # rho = a cos phi + sqrt(R^2 - a^2 sin^2 phi) parametrizes an exact circle
    curve = geometry.shifted_disk_curve(1.0, 0.3)
    cache = geometry.build_cache(curve)
    assert np.max(np.abs(cache.kappa - 1.0)) < 1e-11
    assert abs(geometry.enclosed_area(cache) - np.pi) < 1e-12
    assert np.allclose(geometry.barycenter_bulk(cache), [0.3, 0.0], atol=1e-11)
    assert geometry.isoperimetric_gap(cache) < 1e-11


@pytest.mark.parametrize("R", [1.0, 1.3])
def test_stacked_integrals_of_shifted_disks(R):
    # a stack of disks of radius R centred at (a, 0), the pole at the
    # origin: area pi R^2, barycenter (a, 0) and perimeter 2 pi R exactly
    a = R * np.array([0.0, 0.01, 0.05, 0.1, 0.3])
    rho_hat = np.stack([geometry.shifted_disk_curve(R, ai).rho_hat
                        for ai in a])
    rho, rho_phi = geometry.polar_nodes(rho_hat)
    area = geometry.node_area(rho)
    offset = geometry.node_moments(rho) / (3.0 * area[:, None])
    length = geometry.quad(np.hypot(rho, rho_phi))
    assert np.max(np.abs(area / (np.pi * R**2) - 1.0)) <= 1e-13
    assert np.max(np.abs(offset - np.stack([a, 0.0 * a], axis=1))) <= 1e-13 * R
    assert np.max(np.abs(length / (2.0 * np.pi * R) - 1.0)) <= 1e-13
    rep = geometry.admissibility_report_nodes(rho, rho_phi, R)
    assert np.max(np.abs(rep["barycenter_residual"] - a / R)) <= 1e-13
    # the Newton projection moves every row's barycenter to the pole
    out = geometry.make_admissible_stack(rho_hat, R)
    rep = geometry.admissibility_report_nodes(*geometry.polar_nodes(out), R)
    assert np.max(rep["barycenter_residual"]) <= 1e-10
    assert np.max(rep["area_residual"]) <= 1e-10


def test_barycenter_residual_independent_of_pole():
    # the residual is the offset from the pole, read without adding the
    # pole and taking it away again: a far pole must not round it
    curve = geometry.shifted_disk_curve(1.0, 1e-9)
    near = geometry.admissibility_report(curve)
    far = geometry.admissibility_report(replace(curve,
                                                pole=np.array([1e7, 0.0])))
    assert near["barycenter_residual"] == far["barycenter_residual"]
    assert abs(near["barycenter_residual"] / 1e-9 - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# synthesis / analysis round trips
# ---------------------------------------------------------------------------

def test_synth_coeffs_roundtrip():
    rng = np.random.default_rng(0)
    rho_hat = np.zeros((32, 2))
    rho_hat[0, 0] = 1.0
    rho_hat[1:8] = 0.01 * rng.normal(size=(7, 2))
    back = geometry.coeffs_from_nodes(geometry.synth_nodes(rho_hat))
    assert np.max(np.abs(back - rho_hat)) < 1e-14


def test_eval_rho_matches_nodes():
    curve = geometry.single_mode_curve(1.0, 3, 0.02, phase=0.7)
    phi = 2.0 * np.pi * np.arange(curve.M) / curve.M
    for d in (0, 1, 2):
        assert np.max(np.abs(geometry.eval_rho(curve, phi, d)
                             - geometry.synth_nodes(curve.rho_hat, d))) < 1e-12


@given(st.integers(1, 40), st.integers(0, 2), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_eval_series_matches_synth_nodes(N, d, seed):
    # any (N, 2) array, N not restricted to powers of two
    coef = np.random.default_rng(seed).normal(size=(N, 2))
    phi = 2.0 * np.pi * np.arange(2 * N) / (2 * N)
    scale = np.sum(np.abs(coef)) * max(N - 1, 1) ** d
    assert np.max(np.abs(geometry.eval_series(coef, phi, d)
                         - geometry.synth_nodes(coef, d))) < 1e-13 * scale


def synth_nodes_2n(coef, derivative=0):
    """geometry.synth_nodes as it was before it took a node count M: the
    flows call it on every rhs, so M = 2N must stay bit-identical."""
    N = coef.shape[-2]
    M = 2 * N
    c = coef[..., 0] - 1j * coef[..., 1]
    if derivative:
        c = c * (1j * np.arange(N)) ** derivative
    X = np.zeros(c.shape[:-1] + (N + 1,), dtype=complex)
    if derivative == 0:
        X[..., 0] = c[..., 0].real * M
    X[..., 1:N] = c[..., 1:] * N
    return np.fft.irfft(X, M)


def decaying_coef(rng, shape):
    """A cos/sin array of unit mean and decaying modes, like a curve's."""
    N = shape[-2]
    coef = rng.normal(size=shape) / (1.0 + np.arange(N))[:, None] ** 2
    coef[..., 0, :] = (1.0, 0.0)
    return coef


@pytest.mark.parametrize("shape", [(16, 2), (64, 2), (1024, 2), (4, 64, 2)])
def test_synth_nodes_zero_padded_matches_horner(shape):
    M, N = 8192, shape[-2]
    coef = decaying_coef(np.random.default_rng(N), shape)
    phi = 2.0 * np.pi * np.arange(M) / M
    for d in (0, 1):
        got = geometry.synth_nodes(coef, d, M=M)
        assert got.shape == shape[:-2] + (M,)
        for row, c in zip(got.reshape(-1, M), coef.reshape(-1, N, 2)):
            err = np.max(np.abs(row - geometry.eval_series(c, phi, d)))
            assert err <= 1e-14 * np.max(np.abs(c)) * (N - 1) ** d


@pytest.mark.parametrize("shape", [(16, 2), (64, 2), (3, 32, 2),
                                   (128, 32, 2)])
def test_synth_nodes_at_2n_unchanged(shape):
    coef = np.random.default_rng(5).normal(size=shape)
    for d in (0, 1, 2, 3):
        ref = synth_nodes_2n(coef, d)
        assert np.array_equal(geometry.synth_nodes(coef, d), ref)
        assert np.array_equal(
            geometry.synth_nodes(coef, d, M=2 * shape[-2]), ref)


@pytest.mark.parametrize("curve", [
    geometry.single_mode_curve(1.0, 2, 0.0),
    geometry.single_mode_curve(1.3, 5, 0.02, N=64, phase=0.7)],
    ids=["circle", "mode5"])
def test_synth_nodes_of_sparse_spectra_unchanged(curve):
    # zero coefficients, whose signs the real and imaginary parts could
    # flip: the nodes match the complex-spectrum synthesis byte for byte
    for d in (0, 1, 2, 3):
        assert geometry.synth_nodes(curve.rho_hat, d).tobytes() == \
            synth_nodes_2n(curve.rho_hat, d).tobytes()
    stacked = geometry.synth_nodes(curve.rho_hat, (0, 1, 2))
    assert stacked.tobytes() == np.stack(
        [synth_nodes_2n(curve.rho_hat, d) for d in (0, 1, 2)]).tobytes()


@pytest.mark.parametrize("M", [63, 65, 62, 0])
def test_synth_nodes_rejects_odd_or_short_m(M):
    with pytest.raises(ValueError):
        geometry.synth_nodes(np.zeros((32, 2)), M=M)


def test_curve_points_offset_pole():
    curve = geometry.RadialCurve(1.0, circle().rho_hat, np.array([0.5, -0.2]))
    pts = geometry.curve_points(curve, np.array([0.0, np.pi / 2]))
    assert np.allclose(pts, [[1.5, -0.2], [0.5, 0.8]], atol=1e-13)


# ---------------------------------------------------------------------------
# perimeter / energy-gap expansions (quadrature oracle values)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [2, 3, 5])
def test_perimeter_expansion_raw(k):
    # without area projection: perimeter - 2 pi R = pi eps^2 k^2 / (2R) + O(eps^4)
    eps, R = 1e-3, 1.0
    curve = geometry.single_mode_curve(R, k, eps, project_area=False)
    cache = geometry.build_cache(curve)
    gap = geometry.perimeter(cache) - 2.0 * np.pi * R
    assert abs(gap / (np.pi * eps**2 * k**2 / (2.0 * R)) - 1.0) < 1e-4


@pytest.mark.parametrize("k", [2, 3, 5])
def test_energy_gap_expansion(k):
    # area-projected: E = pi eps^2 (k^2 - 1) / (2R) + O(eps^4)
    eps, R = 1e-3, 1.0
    curve = geometry.single_mode_curve(R, k, eps)
    cache = geometry.build_cache(curve)
    E = geometry.isoperimetric_gap(cache)
    assert abs(E / (np.pi * eps**2 * (k**2 - 1) / (2.0 * R)) - 1.0) < 1e-4


def test_isoperimetric_gap_matches_naive_difference():
    curve = geometry.single_mode_curve(1.0, 3, 0.02)
    cache = geometry.build_cache(curve)
    naive = geometry.perimeter(cache) - 2.0 * np.pi * 1.0
    stable = geometry.isoperimetric_gap(cache)
    assert abs(stable - naive) < 1e-10 * naive


def test_isoperimetric_gap_nonnegative_tiny():
    # at amplitudes where perimeter() - 2 pi R is pure rounding noise, the
    # stable path still resolves the (positive) gap
    curve = geometry.single_mode_curve(1.0, 2, 1e-8)
    cache = geometry.build_cache(curve)
    E = geometry.isoperimetric_gap(cache)
    expected = np.pi * 1e-16 * 3.0 / 2.0
    assert abs(E / expected - 1.0) < 1e-4


# ---------------------------------------------------------------------------
# barycenters, Gauss-Bonnet, Bonnesen
# ---------------------------------------------------------------------------

def barycenter_boundary(cache):
    """Arc-length-weighted mean of the boundary points."""
    length = geometry.perimeter(cache)
    points = geometry.curve_points(cache.curve,
                                   geometry.node_trig(cache.M)[0])
    bx = cache.quad(cache.ell * points[:, 0]) / length
    by = cache.quad(cache.ell * points[:, 1]) / length
    return np.array([bx, by])


@given(st.integers(0, 200))
@settings(max_examples=25, deadline=None)
def test_barycenters_agree_to_second_order(seed):
    rng = np.random.default_rng([17, seed])
    curve = geometry.random_admissible(rng, delta=0.05)
    cache = geometry.build_cache(curve)
    d = np.hypot(*(geometry.barycenter_bulk(cache)
                   - barycenter_boundary(cache)))
    sup = np.max(np.abs(cache.rho - curve.R))
    assert d <= 2.0 * sup**2 / curve.R


@given(st.integers(0, 200))
@settings(max_examples=25, deadline=None)
def test_gauss_bonnet_random(seed):
    rng = np.random.default_rng([23, seed])
    curve = geometry.random_admissible(rng, delta=0.05)
    cache = geometry.build_cache(curve)
    assert geometry.gauss_bonnet_residual(cache) < 1e-10


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_bonnesen_annulus_inside_gap(k):
    cache = geometry.build_cache(geometry.single_mode_curve(1.0, k, 0.01))
    rep = geometry.bonnesen_monitor(cache)
    assert rep["lhs"] <= rep["rhs"]
    assert rep["R_in"] <= 1.0 <= rep["R_out"]


# ---------------------------------------------------------------------------
# admissibility machinery
# ---------------------------------------------------------------------------

@given(st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_random_admissible_passes_report(seed):
    rng = np.random.default_rng([5, seed])
    curve = geometry.random_admissible(rng, delta=0.05)
    rep = geometry.admissibility_report(curve, delta=0.05)
    assert rep["pass"], rep


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("delta, k_max", [(0.05, 8), (0.01, 5)])
def test_random_admissible_draw_order(seed, delta, k_max):
    # the amplitudes of modes 2..k_max, then their phases: the curves of
    # every seeded caller depend on this order
    rng = np.random.default_rng(seed)
    ks = np.arange(2, k_max + 1)
    amps = rng.uniform(0.2, 1.0, ks.size) / ks
    phases = rng.uniform(0.0, 2.0 * np.pi, ks.size)
    rho_hat = np.zeros((32, 2))
    rho_hat[0, 0] = 1.0
    rho_hat[ks, 0] = amps * np.cos(phases)
    rho_hat[ks, 1] = amps * np.sin(phases)
    dev = np.max(np.abs(geometry.synth_nodes(rho_hat) - 1.0))
    slope = np.max(np.abs(geometry.synth_nodes(rho_hat, 1)))
    rho_hat[1:] *= 0.5 * delta / max(dev, slope)
    expected = geometry.make_admissible_stack(rho_hat[None], 1.0)[0]
    drawn = np.random.default_rng(seed)
    curve = geometry.random_admissible(drawn, delta=delta, k_max=k_max)
    assert np.array_equal(curve.rho_hat, expected)
    # and nothing more is drawn
    assert drawn.uniform() == rng.uniform()


def test_make_admissible_fixes_constraints():
    rho_hat = np.zeros((32, 2))
    rho_hat[0, 0] = 1.02
    rho_hat[1, 0] = 0.004
    rho_hat[3, 1] = 0.01
    curve = geometry.make_admissible(
        geometry.RadialCurve(1.0, rho_hat, np.zeros(2)))
    rep = geometry.admissibility_report(curve)
    assert rep["area_residual"] < 1e-13
    assert rep["barycenter_residual"] < 1e-13


def mode2_row(eps, N=32):
    """Unit-radius rho = 1 + eps cos(2 phi): its slope bound 2 eps is the
    one that binds, and the area/barycenter projection leaves eps alone."""
    rho_hat = np.zeros((N, 2))
    rho_hat[0, 0] = 1.0
    rho_hat[2, 0] = eps
    return rho_hat


def test_synth_nodes_batch_rows_match_single_rows():
    coef = np.random.default_rng(4).normal(size=(5, 32, 2))
    coef[:, 0, 1] = 0.0
    for d in (0, 1, 2):
        stacked = geometry.synth_nodes(coef, d)
        assert stacked.shape == (5, 64)
        for row, c in zip(stacked, coef):
            assert np.array_equal(row, geometry.synth_nodes(c, d))
    # a tuple of orders stacks the syntheses of one inverse FFT
    for M in (None, 128):
        stacked = geometry.synth_nodes(coef, (0, 1, 2), M=M)
        assert stacked.shape == (3, 5, M or 64)
        for d, got in enumerate(stacked):
            assert np.array_equal(got, geometry.synth_nodes(coef, d, M=M))


@pytest.mark.parametrize("seed, N, domain", [(0, 32, "plane"),
                                             (1, 64, "plane"),
                                             (2, 128, "torus")])
def test_build_cache_matches_separate_syntheses(seed, N, domain):
    # the cache's one inverse FFT and cached trig give each field of the
    # three separate syntheses bit for bit
    rng = np.random.default_rng(seed)
    curve = replace(geometry.random_admissible(rng, N=N), domain=domain,
                    L=4.0 if domain == "torus" else None,
                    pole=rng.uniform(-1.0, 1.0, 2))
    cache = geometry.build_cache(curve)
    rho, rho_phi, rho_phiphi = (geometry.synth_nodes(curve.rho_hat, d)
                                for d in (0, 1, 2))
    ell = np.hypot(rho, rho_phi)
    assert cache.M == 2 * N
    expected = {
        "rho": rho, "rho_phi": rho_phi, "ell": ell,
        "kappa": (rho_phi**2 - rho * rho_phiphi) / ell**3 + 1.0 / ell}
    for name, value in expected.items():
        assert np.array_equal(getattr(cache, name), value), name


@pytest.mark.parametrize("seed, delta, k_max", [([0, 1], 0.05, 8),
                                                ([0, 7], 0.01, 5)])
def test_projection_keeps_draws_inside_the_sup_bounds(seed, delta, k_max):
    # the draw scales each curve to sup bounds delta / 2 and the projection
    # moves a0, a1 and b1 by O(delta^2): 1000 draws, the first of the
    # Fuglede suite at seed 0 and the embed suite's gentle draw, stay near
    # delta / 2, so no projected row needs another try
    draw = geometry.random_admissible_stack(np.random.default_rng(seed),
                                            1000, delta=delta, k_max=k_max)
    for key in ("annulus_residual", "slope_residual"):
        assert np.max(draw.report[key]) <= 0.51 * delta, key
    assert draw.report["pass"].all()


def test_random_admissible_stack_raises_if_a_projected_row_breaks_the_bounds(
        monkeypatch):
    # row 2's projection lands on a + eps cos(2 phi) of area pi and slope
    # 2 eps = 1.125 delta: the block raises rather than retrying the row
    delta = 0.05
    project = geometry.make_admissible_stack

    def breaks_row_two(rho_hat, R):
        out = project(rho_hat, R)
        out[2] = project(mode2_row(0.45 * delta / 0.8)[None], R)[0]
        return out

    monkeypatch.setattr(geometry, "make_admissible_stack", breaks_row_two)
    with pytest.raises(OptimFail, match="sup bounds"):
        geometry.random_admissible_stack(np.random.default_rng(0), 4,
                                         delta=delta)


def test_make_admissible_stack_raises_if_one_row_does_not_converge():
    # amplitude 2 in mode 2 alone encloses more than pi: no a0 reaches the
    # target area (a0^2 < 0), and the projection says so at once
    good, bad = mode2_row(0.01), mode2_row(2.0)
    assert geometry.make_admissible_stack(good[None], 1.0).shape == (1, 32, 2)
    with pytest.raises(OptimFail, match="did not converge"):
        geometry.make_admissible_stack(np.stack([good, bad]), 1.0)


def newton_3x3_projection(rho_hat, R):
    """Independent reference for make_admissible_stack: Newton in
    (a0, a1, b1) on the node area and both first moments together, with the
    3 x 3 Jacobian summed entry by entry and solved by LAPACK."""
    rho_hat = np.array(rho_hat, dtype=float)
    M = 2 * rho_hat.shape[-2]
    dphi = 2.0 * np.pi / M
    _, cphi, sphi = geometry.node_trig(M)
    basis = [np.ones(M), cphi, sphi]
    target = np.array([np.pi * R**2, 0.0, 0.0])
    rows = np.arange(rho_hat.shape[0])
    for _ in range(50):
        rho = geometry.synth_nodes(rho_hat[rows])
        g = np.concatenate([geometry.node_area(rho)[:, None],
                            geometry.node_moments(rho)], axis=-1) - target
        moving = ~(np.max(np.abs(g), axis=-1) < 1e-14 * R**2)
        rows, rho, g = rows[moving], rho[moving], g[moving]
        if rows.size == 0:
            return rho_hat
        jac = np.empty((rows.size, 3, 3))
        for j, b in enumerate(basis):
            jac[:, 0, j] = np.sum(rho * b, axis=-1) * dphi
            jac[:, 1, j] = 3.0 * np.sum(rho**2 * cphi * b, axis=-1) * dphi
            jac[:, 2, j] = 3.0 * np.sum(rho**2 * sphi * b, axis=-1) * dphi
        delta = np.linalg.solve(jac, g[:, :, None])[:, :, 0]
        rho_hat[rows, 0, 0] -= delta[:, 0]
        rho_hat[rows, 1, 0] -= delta[:, 1]
        rho_hat[rows, 1, 1] -= delta[:, 2]
    raise AssertionError("reference projection did not converge")


def fuglede_suite_draws(monkeypatch, n, seed):
    """The n scaled, not yet projected curves that the Fuglede suite
    (cli._suite_fuglede) draws first at ``seed``: the input of their
    projection."""
    inputs = []
    project = geometry.make_admissible_stack

    def captured(rho_hat, R):
        inputs.append(rho_hat.copy())
        return project(rho_hat, R)

    with monkeypatch.context() as m:
        m.setattr(geometry, "make_admissible_stack", captured)
        geometry.random_admissible_stack(np.random.default_rng([seed, 1]), n,
                                         delta=0.05)
    (rho_hat,) = inputs
    return rho_hat


def perturbed_shifted_disks(R):
    """Disks of radius R centred at (a, 0) about the pole at the origin, with
    small random modes 2..12 and an area off by up to 1e-3."""
    rng = np.random.default_rng(3)
    rows = []
    for a in R * np.array([0.0, 0.01, 0.05, 0.1]):
        rho_hat = geometry.shifted_disk_curve(R, a).rho_hat
        for _ in range(4):
            row = rho_hat.copy()
            row[2:13] += 1e-3 * R * rng.normal(size=(11, 2))
            row[0, 0] *= 1.0 + 1e-3 * rng.uniform(-1.0, 1.0)
            rows.append(row)
    return np.stack(rows)


@pytest.mark.parametrize("case", ["fuglede", "disks-1.0", "disks-1.3"])
def test_make_admissible_stack_matches_3x3_newton(monkeypatch, case):
    # the closed-form a0 and the 2 x 2 Newton land where the full 3 x 3
    # Newton does, and meet both constraints to rounding
    if case == "fuglede":
        R, rho_hat = 1.0, fuglede_suite_draws(monkeypatch, 1000, 0)
    else:
        R = float(case.split("-")[1])
        rho_hat = perturbed_shifted_disks(R)
    got = geometry.make_admissible_stack(rho_hat, R)
    ref = newton_3x3_projection(rho_hat, R)
    assert np.max(np.abs(got - ref)) <= 1e-14 * R
    rep = geometry.admissibility_report_nodes(*geometry.polar_nodes(got), R)
    assert np.max(rep["area_residual"]) <= 1e-14
    assert np.max(rep["barycenter_residual"]) <= 1e-14


def test_make_admissible_stack_converges_quadratically(monkeypatch):
    # a 128-curve block of the suite converges in a few Newton steps, one
    # synthesis each: a Jacobian slip that left it linear would take more
    rho_hat = fuglede_suite_draws(monkeypatch, 128, 0)
    calls = []
    synth = geometry.synth_nodes

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return synth(*args, **kwargs)

    monkeypatch.setattr(geometry, "synth_nodes", counted)
    geometry.make_admissible_stack(rho_hat, 1.0)
    assert 1 <= len(calls) <= 4 and calls[0] == (128, 32, 2)


def test_make_admissible_stack_uses_no_linalg(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg called")

    for name in ("solve", "inv", "lstsq", "det"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    rho_hat = perturbed_shifted_disks(1.0)
    assert np.all(np.isfinite(geometry.make_admissible_stack(rho_hat, 1.0)))


def test_project_area_exact():
    curve = geometry.single_mode_curve(1.0, 2, 0.05, project_area=False)
    proj = geometry.project_area(curve)
    cache = geometry.build_cache(proj)
    assert abs(geometry.enclosed_area(cache) - np.pi) < 1e-14


def test_project_area_impossible():
    rho_hat = np.zeros((32, 2))
    rho_hat[0, 0] = 1.0
    rho_hat[2, 0] = 1.5
    with pytest.raises(NonPositiveRadius):
        geometry.project_area(geometry.RadialCurve(1.0, rho_hat, np.zeros(2)))


def test_single_mode_curve_impossible_area():
    # a0^2 = R^2 - eps^2 / 2 < 0: no zero mode gives area pi R^2
    with pytest.raises(NonPositiveRadius):
        geometry.single_mode_curve(1.0, 2, 1.5)


# ---------------------------------------------------------------------------
# validation and error paths
# ---------------------------------------------------------------------------

def test_curve_validation():
    with pytest.raises(ValueError):
        geometry.RadialCurve(1.0, np.zeros((12, 2)), np.zeros(2))  # N < 16
    with pytest.raises(ValueError):
        geometry.RadialCurve(1.0, np.zeros((24, 2)), np.zeros(2))  # not 2^m
    bad = np.zeros((16, 2))
    bad[0] = [1.0, 0.5]  # sin coefficient at k = 0
    with pytest.raises(ValueError):
        geometry.RadialCurve(1.0, bad, np.zeros(2))
    good = np.zeros((16, 2))
    good[0, 0] = 1.0
    for L in (None, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            geometry.RadialCurve(1.0, good, np.zeros(2), "torus", L)


def test_build_cache_nonpositive_radius():
    rho_hat = np.zeros((32, 2))
    rho_hat[0, 0] = 1.0
    rho_hat[2, 0] = 1.2
    with pytest.raises(NonPositiveRadius):
        geometry.build_cache(geometry.RadialCurve(1.0, rho_hat, np.zeros(2)))


def test_build_cache_rejects_nan_radius():
    rho_hat = np.zeros((32, 2))
    rho_hat[0, 0] = np.nan
    with pytest.raises(NonPositiveRadius):
        geometry.build_cache(geometry.RadialCurve(1.0, rho_hat, np.zeros(2)))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_curve_roundtrip_plane(tmp_path):
    curve = geometry.single_mode_curve(1.0, 4, 0.0123456789012345)
    path = tmp_path / "c.msrc"
    geometry.write_curve(curve, path)
    back = geometry.read_curve(path)
    assert np.array_equal(back.rho_hat, curve.rho_hat)
    assert back.R == curve.R and back.domain == "plane"


def test_curve_roundtrip_torus(tmp_path):
    curve = geometry.single_mode_curve(1.0, 2, 0.01, domain="torus", L=8.0)
    path = tmp_path / "c.msrc"
    geometry.write_curve(curve, path)
    back = geometry.read_curve(path)
    assert back.domain == "torus" and back.L == 8.0
    assert np.array_equal(back.rho_hat, curve.rho_hat)


def test_read_curve_rejects_garbage(tmp_path):
    path = tmp_path / "bad.msrc"
    path.write_text("not a curve\n")
    with pytest.raises(ValueError):
        geometry.read_curve(path)


def test_read_curve_rejects_truncated_torus_header(tmp_path):
    path = tmp_path / "short.msrc"
    path.write_text("msrc v1 16 1.0 torus 8.0 0.0\n" + "0 0\n" * 16)
    with pytest.raises(ValueError):
        geometry.read_curve(path)
