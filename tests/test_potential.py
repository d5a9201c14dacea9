"""Boundary-integral solver, dissipation, trace equality, and H distance."""

import functools
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from msrelax import cli, elliptic, evolution, geometry, potential, sobolev
from msrelax.errors import GridTooCoarse, OutOfRadius, SolverSingular


def circle_cache(R=1.0, N=32):
    return geometry.build_cache(geometry.single_mode_curve(R, 2, 0.0, N=N))


# ---------------------------------------------------------------------------
# log quadrature
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 7, 15])
def test_log_quadrature_fourier_multiplier(m):
    # the circulant with first row log_quadrature_row applies the multiplier
    # -1/(2|m|) to cos(m t) exactly (m below the Nyquist mode)
    M = 64
    row = potential.log_quadrature_row(M)
    t = 2.0 * np.pi * np.arange(M) / M
    f = np.cos(m * t)
    idx = (np.arange(M)[:, None] - np.arange(M)[None, :]) % M
    out = row[idx] @ f
    assert np.max(np.abs(out + f / (2.0 * m))) < 1e-13


# ---------------------------------------------------------------------------
# solver calibration on the disk
# ---------------------------------------------------------------------------

def test_circle_equilibrium():
    cache = circle_cache(2.0)
    solve = potential.solve_ms(cache)
    assert np.max(np.abs(solve.V)) < 1e-12
    assert abs(solve.additive_constant - 0.5) < 1e-12  # c = kappa = 1/R
    assert solve.mean_constraint_residual < 1e-12


@pytest.mark.parametrize("k", [2, 5, 8])
def test_disk_mode_density(k):
    # data A cos(k phi) on the circle of radius R -> V = -(2k/R) A cos(k phi)
    R, A = 1.5, 0.7
    cache = circle_cache(R, N=64)
    data = A * np.cos(k * cache.phi_nodes)
    solve = potential.solve_ms(cache, data=data)
    expected = -(2.0 * k / R) * data
    assert np.max(np.abs(solve.V - expected)) < 1e-10
    assert abs(solve.additive_constant) < 1e-10


def test_disk_mode_density_sin_phase():
    cache = circle_cache(1.0, N=64)
    data = 0.3 * np.sin(3 * cache.phi_nodes)
    solve = potential.solve_ms(cache, data=data)
    assert np.max(np.abs(solve.V + 6.0 * data)) < 1e-10


def test_assemble_with_cond():
    cache = circle_cache()
    cond = np.linalg.cond(potential._bordered(potential.assemble(cache),
                                              cache.ell * cache.dphi))
    assert np.isfinite(cond) and cond < 1e4


def test_torus_matches_plane_at_large_L():
    curve = geometry.single_mode_curve(1.0, 2, 1e-3, domain="torus", L=8.0)
    plane = replace(curve, domain="plane", L=None)
    vp = potential.solve_ms(geometry.build_cache(plane)).V
    vt = potential.solve_ms(geometry.build_cache(curve)).V
    assert np.max(np.abs(vt - vp)) / np.max(np.abs(vp)) < 0.02


def test_torus_plane_convergence_order():
    # the finite-cell correction decays like (R/L)^2
    curve0 = geometry.single_mode_curve(1.0, 2, 1e-3)
    vp = potential.solve_ms(geometry.build_cache(curve0)).V
    errs = []
    for L in (8.0, 16.0, 32.0):
        torus = replace(curve0, domain="torus", L=L)
        vt = potential.solve_ms(geometry.build_cache(torus)).V
        errs.append(np.max(np.abs(vt - vp)) / np.max(np.abs(vp)))
    order = np.polyfit(np.log([8.0, 16.0, 32.0]), np.log(errs), 1)[0]
    assert order < -1.8


def lattice_curve():
    """A mode-2 curve on the torus of half edge 1.5 R, where the lattice
    tail moves V and H each by about 11% from the plane's."""
    return geometry.single_mode_curve(1.0, 2, 0.05, N=32, domain="torus",
                                      L=1.5)


def direct_solve(cache, kernel):
    """V of the bordered system with the explicit assemble(cache, kernel),
    by one dense solve."""
    big = potential._bordered(potential.assemble(cache, kernel) * cache.ell,
                              cache.ell * cache.dphi)
    mean = np.mean(cache.kappa)
    return np.linalg.solve(big, np.append(cache.kappa - mean, 0.0))[:-1]


def test_torus_curve_solves_with_its_lattice_kernel():
    # a torus curve passed alone gets its lattice's Green's function: the
    # V of an explicit assemble(cache, LatticeKernel(L)) solve, not the
    # plane's
    curve = lattice_curve()
    assert curve.kernel is elliptic.lattice_kernel(1.5)
    assert replace(curve, domain="plane", L=None).kernel is None
    cache = geometry.build_cache(curve)
    V = potential.solve_ms(cache).V
    ref = direct_solve(cache, elliptic.LatticeKernel(1.5))
    plane = direct_solve(cache, None)
    assert np.max(np.abs(V - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.max(np.abs(plane - ref)) > 0.05 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# cached assembly and the factorized lattice tail
# ---------------------------------------------------------------------------

def assemble_elementwise(cache, kernel=None):
    """The single-layer matrix with every term formed elementwise over the
    node pairs (the tail by elliptic.lambda_tail): the oracle of assemble."""
    M = cache.M
    offsets = geometry.curve_points(cache.curve, cache.phi_nodes) - \
        cache.curve.pole
    z = offsets[:, 0] + 1j * offsets[:, 1]
    dz = z[:, None] - z[None, :]
    delta = cache.phi_nodes[:, None] - cache.phi_nodes[None, :]
    chord = np.abs(2.0 * np.sin(0.5 * delta))
    np.fill_diagonal(chord, 1.0)
    absdz = np.abs(dz)
    np.fill_diagonal(absdz, 1.0)
    smooth = np.log(absdz / chord)
    np.fill_diagonal(smooth, np.log(cache.ell))
    if kernel is not None:
        smooth = smooth + elliptic.lambda_tail(kernel, dz)
    row = potential.log_quadrature_row(M)
    idx = (np.arange(M)[:, None] - np.arange(M)[None, :]) % M
    return (row[idx] + (1.0 / M) * smooth) * cache.ell[None, :]


def torus_nodes(seed, N, L, shift):
    """Nodes of a random admissible unit curve on the torus of half edge L,
    as offsets from the centre of their bounding box: a mode-1 term of size
    ``shift`` moves the curve off its pole, and the pole sits at a random
    point of the cell."""
    rng = np.random.default_rng(seed)
    curve = geometry.random_admissible(rng, N=N, domain="torus", L=L)
    rho_hat = curve.rho_hat.copy()
    angle = rng.uniform(0.0, 2.0 * np.pi)
    rho_hat[1] = shift * np.array([np.cos(angle), np.sin(angle)])
    pole = rng.uniform(-L, L, 2)
    curve = replace(curve, rho_hat=rho_hat, pole=pole)
    points = geometry.curve_points(curve, geometry.node_trig(curve.M)[0])
    z = points[:, 0] + 1j * points[:, 1]
    return z - complex(0.5 * (z.real.min() + z.real.max()),
                       0.5 * (z.imag.min() + z.imag.max()))


def tail_error(kern, z):
    """max |factorized - elementwise tail| over the node pairs of z, and
    the elementwise tail's max |value|."""
    ref = elliptic.lambda_tail(kern, z[:, None] - z[None, :])
    err = np.max(np.abs(elliptic.lambda_tail_nodes(kern, z) - ref))
    return err, np.max(np.abs(ref))


@given(st.integers(0, 10**6), st.floats(1.1, 8.0),
       st.sampled_from([32, 64, 128]), st.floats(0.0, 0.3))
@settings(max_examples=25, deadline=None)
def test_tail_nodes_matches_elementwise(seed, L, N, shift):
    # unit curves in cells of L/R in [1.1, 8]: reach about 0.13 to 0.93
    z = torus_nodes(seed, N, L, shift)
    err, scale = tail_error(elliptic.LatticeKernel(L), z)
    assert err <= 1e-14 * max(1.0, scale)


def count_elementwise_tails(monkeypatch):
    calls, tail = [], elliptic.lambda_tail

    def counted(*args, **kwargs):
        calls.append(1)
        return tail(*args, **kwargs)

    monkeypatch.setattr(elliptic, "lambda_tail", counted)
    return calls


@pytest.mark.parametrize("N, L, elementwise", [
    (16, 8.0, False),    # M = 32: small node sets take the product too
    (32, 1.1, True),     # K ~ 400 > 3M = 192: the series is cheaper
    (128, 1.1, False),   # the same K below 3M = 768
    (128, 8.0, False),   # the flow-torus-n128 regime, K = 16
])
def test_tail_nodes_cost_fallback(monkeypatch, N, L, elementwise):
    z = torus_nodes(5, N, L, 0.2)
    kern = elliptic.LatticeKernel(L)
    calls = count_elementwise_tails(monkeypatch)
    fast = elliptic.lambda_tail_nodes(kern, z)
    assert bool(calls) == elementwise
    err, scale = tail_error(kern, z)
    assert err <= 1e-14 * max(1.0, scale)
    assert fast.shape == (2 * N, 2 * N)


@pytest.mark.parametrize("margin", [1e-9, -1e-9])
def test_one_reach_rule_for_assemble_and_run(margin):
    # cells a relative 1e-9 either side of the one where 2 max rho =
    # TAIL_RADIUS 2L (exactly at it, rounding picks the side): below the
    # bound assemble succeeds and a run starts, above it assemble raises
    # OutOfRadius and a run refuses the config
    cfg = {"N": 32, "domain": "torus", "modes": "3", "amps": "0.05",
           "phases": "0", "t_end": 0.0, "k_H": 0}
    curve = evolution.initial_curve({**evolution.DEFAULTS, **cfg, "L": 1.0})
    max_rho = float(np.max(geometry.synth_nodes(curve.rho_hat)))
    L = max_rho / elliptic.TAIL_RADIUS * (1.0 + margin)
    cache = geometry.build_cache(replace(curve, L=L))
    if margin > 0.0:
        assert np.all(np.isfinite(potential.assemble(
            cache, elliptic.LatticeKernel(L))))
        traj = evolution.run({**cfg, "L": L})
        assert len(traj.records) == 1 and \
            traj.events[-1]["event"] == "finish"
    else:
        with pytest.raises(OutOfRadius):
            potential.assemble(cache, elliptic.LatticeKernel(L))
        with pytest.raises(ValueError, match="too large for the torus cell"):
            evolution.run({**cfg, "L": L})


def circle_bordered(M, R, kernel=None):
    """The bordered matrix of solve_ms on the circle of radius R, with the
    circulant -beta_bg |z_i - z_j|^2 / M part of the lattice tail on the
    torus, formed directly: the matrix circle_inverse inverts."""
    cache = circle_cache(R, N=M // 2)
    mat = potential.assemble(cache)
    if kernel is not None:
        z = potential._offsets(cache)
        mat -= kernel.beta_bg * np.abs(z[:, None] - z[None, :]) ** 2 / M
    return potential._bordered(mat, cache.dphi)


@pytest.mark.parametrize("M", [64, 128, 256])
@pytest.mark.parametrize("R, L", [(1.0, None), (1.3, None), (1.0, 8.0),
                                  (1.3, 10.4)])
def test_circle_inverse_matches_linalg_inv(M, R, L):
    # at R = 1 kappa_0 = log R = 0, which the closed form never divides by
    kernel = None if L is None else elliptic.LatticeKernel(L)
    big = circle_bordered(M, R, kernel)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        P = potential.circle_inverse(M, R, kernel)
    assert np.max(np.abs(P @ big - np.eye(M + 1))) <= 1e-13
    ref = np.linalg.inv(big)
    assert np.max(np.abs(P - ref)) <= 1e-11 * np.max(np.abs(ref))


@pytest.mark.parametrize("N, L", [(32, 2.0), (64, 1.2), (128, 8.0)])
def test_tail_factors_match_elementwise(N, L):
    # the factors solve_ms refines with give the elementwise tail / M, and
    # the bordered product the dense assembly's
    cache = geometry.build_cache(
        geometry.random_admissible(np.random.default_rng(N), N=N))
    kern = elliptic.LatticeKernel(L)
    z = potential._offsets(cache)
    left, right = potential._tail_factors(cache, kern)
    ref = elliptic.lambda_tail(kern, z[:, None] - z[None, :]) / cache.M
    assert left.shape == right.shape and left.shape[1] == cache.M
    assert np.max(np.abs(left.T @ right - ref)) <= \
        1e-14 * max(1.0, np.max(np.abs(ref)))
    x = np.random.default_rng(1).standard_normal(cache.M + 1)
    dense = potential._bordered(potential.assemble(cache, kern), cache.dphi)
    plane = potential._bordered(potential.assemble(cache), cache.dphi)
    ref = dense @ x
    fast = potential._product(plane, (left, right), x)
    assert np.max(np.abs(fast - ref)) <= 1e-14 * np.max(np.abs(ref))


def stale_curve(amp):
    """A modes 2, 3 and 5 curve of amplitude ``amp`` about the unit circle."""
    rho_hat = np.zeros((32, 2))
    rho_hat[0, 0], rho_hat[2, 0], rho_hat[3, 1] = 1.0, amp, 0.5 * amp
    rho_hat[5, 0] = 0.25 * amp
    return geometry.project_area(
        geometry.RadialCurve(1.0, rho_hat, np.zeros(2)))


def test_solve_ms_singular_matrix_raises(monkeypatch):
    # a zero single-layer block leaves the bordered matrix of rank 2, so
    # refinement misses and the direct solve fails; the data are a
    # deformed curve's curvature, since the circle's, less its mean, is 0
    # and solved exactly by w = 0 whatever the matrix
    monkeypatch.setattr(potential, "assemble",
                        lambda cache, kernel=None: np.zeros((cache.M,) * 2))
    with pytest.raises(SolverSingular, match="Singular matrix"):
        potential.solve_ms(geometry.build_cache(stale_curve(1e-2)))


def test_solve_ms_non_finite_residual_raises():
    cache = circle_cache()
    data = np.full(cache.M, np.nan)
    with pytest.raises(SolverSingular, match="residual nan"):
        potential.solve_ms(cache, data=data)


@pytest.mark.parametrize("amp, direct", [(1e-3, False), (0.2, True)])
def test_solve_ms_matches_direct_solve(amp, direct):
    # the circle's closed-form inverse as the reference for a perturbed
    # curve: a small perturbation refines against it, a strong one would
    # still miss REFINE_TOL after REFINE_SWEEPS sweeps, so refinement stops
    # early and it is solved directly, and either way the solution is the
    # direct solve's of the same bordered system
    cache = geometry.build_cache(stale_curve(amp))
    solve = potential.solve_ms(cache)
    assert solve.direct is direct and solve.sweeps > 2
    if direct:
        assert solve.sweeps < potential.REFINE_SWEEPS
    big = potential._bordered(potential.assemble(cache) * cache.ell,
                              cache.ell * cache.dphi)
    mean = np.mean(cache.kappa)
    ref = np.linalg.solve(big, np.concatenate([cache.kappa - mean, [0.0]]))
    ref[-1] += mean
    x = np.append(solve.V, solve.additive_constant)
    assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)
    assert np.linalg.norm(solve.V - ref[:-1]) <= \
        1e-13 * np.linalg.norm(ref[:-1])
    assert solve.residual_norm <= potential.REFINE_TOL


def test_solve_is_a_function_of_its_curve():
    # no solve leaves anything behind for the next: a small curve solves
    # bit for bit alike before and after a curve that falls back to a
    # direct solve and a torus curve at L = 2 that does too, and the
    # references are shared read-only arrays, one per (M, R, L)
    small = geometry.build_cache(stale_curve(1e-3))
    first = potential.solve_ms(small)
    assert potential.solve_ms(geometry.build_cache(stale_curve(0.2))).direct
    torus = evolution.initial_curve({**evolution.DEFAULTS, **cli.RUNS[
        "mixed23"], "domain": "torus", "L": 2.0, "seed": 7})
    assert potential.solve_ms(geometry.build_cache(torus)).direct
    again = potential.solve_ms(small)
    assert not first.direct and not again.direct
    assert np.array_equal(first.V, again.V)
    assert (first.additive_constant, first.residual_norm, first.sweeps) == \
        (again.additive_constant, again.residual_norm, again.sweeps)
    for M, R, L in [(64, 1.0, None), (64, 1.0, 2.0)]:
        P = potential._reference(M, R, L)
        assert P is potential._reference(M, R, L)
        assert not P.flags.writeable
        kernel = None if L is None else elliptic.LatticeKernel(L)
        assert np.array_equal(P, potential.circle_inverse(M, R, kernel))


@pytest.mark.parametrize("amp", [1e-4, 1e-3, 1e-2, 3e-2])
def test_refinement_stops_at_the_rounding_floor(monkeypatch, amp):
    # refinement against the circle's inverse stops once the relative
    # residual is at most REFINE_FLOOR, one sweep before the halving rule
    # alone, which also needs the sweep that fails to halve it
    cache = geometry.build_cache(stale_curve(amp))
    floor_eps = potential.REFINE_FLOOR
    monkeypatch.setattr(potential, "REFINE_FLOOR", 0.0)
    halving = potential.solve_ms(cache)
    monkeypatch.setattr(potential, "REFINE_FLOOR", floor_eps)
    floored = potential.solve_ms(cache)
    assert not floored.direct and not halving.direct
    assert 0 < floored.sweeps == halving.sweeps - 1
    assert floored.residual_norm <= floor_eps
    assert halving.residual_norm <= potential.REFINE_TOL
    assert np.max(np.abs(floored.V - halving.V)) <= \
        1e-14 * np.max(np.abs(halving.V))


@pytest.mark.parametrize("L", [1.0, 0.999 / elliptic.TAIL_RADIUS])
def test_solve_ms_out_of_radius(L):
    # a unit circle spans 2, so its reach 2 / (2L) is 1 or TAIL_RADIUS / 0.999
    curve = geometry.single_mode_curve(1.0, 2, 0.0, domain="torus", L=L)
    with pytest.raises(OutOfRadius):
        potential.solve_ms(geometry.build_cache(curve))


@pytest.mark.parametrize("N, L", [(32, None), (64, None), (32, 2.0),
                                  (64, 1.2)])
def test_assemble_matches_elementwise(N, L):
    curve = geometry.random_admissible(np.random.default_rng(N), N=N)
    cache = geometry.build_cache(curve)
    kern = None if L is None else elliptic.LatticeKernel(L)
    fast = potential.assemble(cache, kern) * cache.ell
    assert np.max(np.abs(fast - assemble_elementwise(cache, kern))) <= 1e-15


@pytest.mark.parametrize("N, L", [(32, None), (64, None), (32, 2.0),
                                  (64, 1.2)])
def test_assemble_is_symmetric(N, L):
    # K acts on w = ell V, so no column scale breaks the kernel's symmetry
    cache = geometry.build_cache(
        geometry.random_admissible(np.random.default_rng(N + 1), N=N))
    kern = None if L is None else elliptic.LatticeKernel(L)
    K = potential.assemble(cache, kern)
    assert np.max(np.abs(K - K.T)) <= 1e-14 * np.max(np.abs(K))


def broadcast_polar_chord(v, inv_chord2):
    """potential._polar_chord by broadcasting a column against a row."""
    P = v[:, None] - v[None, :]
    P *= P
    P *= inv_chord2
    P += v[:, None] * v[None, :]
    return P


def broadcast_chord_difference(w, s):
    """potential._chord_difference by broadcasting a column against a row."""
    d = np.subtract.outer(w, w)
    d *= np.subtract.outer(s, s)
    return d


@pytest.mark.parametrize("N", [32, 64, 128])
def test_pair_grids_match_broadcast_formulas(monkeypatch, N):
    # the node-pair terms filled row by row give assemble (plane and torus)
    # and disk_distance the broadcast formulas' bits
    torus = mixed_torus_curve(N)
    curves = [torus, replace(torus, domain="plane", L=None),
              off_pole_curve(N)]
    caches = [geometry.build_cache(c) for c in curves]

    def outputs():
        return [potential.assemble(c, c.curve.kernel) for c in caches] + \
            [np.array([potential.disk_distance(c) for c in caches])]

    rows = outputs()
    monkeypatch.setattr(potential, "_polar_chord", broadcast_polar_chord)
    monkeypatch.setattr(potential, "_chord_difference",
                        broadcast_chord_difference)
    for got, want in zip(rows, outputs()):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("seed, L", [(3, None), (4, None), (3, 2.0),
                                     (4, 8.0)])
def test_solve_ms_matches_ell_scaled_system(seed, L):
    # solving for w = ell V with the border dphi gives the V of the system
    # in V itself: A = K diag(ell), bordered by ell dphi
    curve = geometry.random_admissible(np.random.default_rng(seed), N=32)
    if L is not None:
        curve = replace(curve, domain="torus", L=L)
    cache = geometry.build_cache(curve)
    kern = None if L is None else elliptic.LatticeKernel(L)
    solve = potential.solve_ms(cache)
    big = potential._bordered(
        assemble_elementwise(cache, kern), cache.ell * cache.dphi)
    mean = np.mean(cache.kappa)
    ref = np.linalg.solve(big, np.concatenate([cache.kappa - mean, [0.0]]))
    assert np.max(np.abs(solve.V - ref[:-1])) <= \
        1e-13 * np.max(np.abs(ref[:-1]))
    assert abs(solve.additive_constant - ref[-1] - mean) <= 1e-13
    assert solve.mean_constraint_residual <= 1e-15


@pytest.mark.parametrize("cfg", [
    {"modes": "2,3", "amps": "0.01,0.008"},
    {"modes": "2,3", "amps": "0.01,0.008", "domain": "torus", "L": 2.0},
])
def test_runs_match_elementwise_assembly(monkeypatch, cfg):
    cfg = {**cfg, "N": 32, "t_end": 5e-4, "k_out": 5, "k_H": 0}
    fast = evolution.run(cfg)
    monkeypatch.setattr(potential, "assemble", lambda cache, kernel=None:
                        assemble_elementwise(cache, kernel) / cache.ell)
    slow = evolution.run(cfg)
    assert len(fast.records) == len(slow.records) > 3
    for a, b in zip(fast.records, slow.records):
        assert abs(a.E - b.E) <= 1e-12 * abs(b.E)
        assert abs(a.D - b.D) <= 1e-12 * abs(b.D)


# ---------------------------------------------------------------------------
# dissipation and velocity norms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [2, 3])
def test_dissipation_linearized(k):
    # D = 2 pi k (k^2-1)^2 eps^2 / R^4 + O(eps^3)
    eps, R = 1e-4, 1.0
    cache = geometry.build_cache(geometry.single_mode_curve(R, k, eps))
    solve = potential.solve_ms(cache)
    D = potential.dissipation(cache, solve)
    expected = 2.0 * np.pi * k * (k**2 - 1) ** 2 * eps**2 / R**4
    assert abs(D / expected - 1.0) < 1e-3


def test_velocity_norm_ratios():
    # V ~ cos(k phi) on a near-circle: ||V_s|| / ||V|| = k/R and
    # ||V||_{H^-1/2} / ||V|| = sqrt(R/k)
    k, R, eps = 3, 1.0, 1e-5
    cache = geometry.build_cache(geometry.single_mode_curve(R, k, eps))
    V = potential.solve_ms(cache).V
    V_l2 = np.sqrt(cache.quad(V**2 * cache.ell))
    Vs_l2 = sobolev.curve_norm(cache, V, 1.0)
    V_hm_half = sobolev.curve_norm(cache, V, -0.5)
    assert abs(Vs_l2 / V_l2 - k / R) < 1e-3
    assert abs(V_hm_half / V_l2 - np.sqrt(R / k)) < 1e-3


# ---------------------------------------------------------------------------
# trace equality
# ---------------------------------------------------------------------------

def test_trace_equality_disk():
    rep = potential.trace_equality_disk({k: 1.0 for k in (1, 4, 16, 32)})
    for row in rep["rows"]:
        k = row["k"]
        assert abs(row["interior"] - np.pi * k) < 1e-10
        assert abs(row["exterior"] - np.pi * k) < 1e-10
        assert abs(row["h_half_sq"] - np.pi * k) < 1e-10


def test_trace_equality_amplitude_scaling():
    rep = potential.trace_equality_disk({2: 0.5})
    assert abs(rep["total"]["interior"] - np.pi * 2 * 0.25) < 1e-12


# ---------------------------------------------------------------------------
# squared H^-1 distance
# ---------------------------------------------------------------------------

def shifted(R=1.0, a=0.05):
    return geometry.shifted_disk_curve(R, a)


def test_h_zero_for_centered_ball():
    curve = geometry.single_mode_curve(1.0, 2, 0.0)
    H = potential.squared_distance(curve, grid=128)
    assert H < 1e-24


def test_h_dilation_scaling():
    # H scales like length^4 under dilation (embedding follows R), exactly
    # at the rasterization level
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GridTooCoarse)
        H1 = potential.squared_distance(shifted(1.0, 0.05),
                                        center=np.zeros(2), grid=128)
        H2 = potential.squared_distance(shifted(2.0, 0.10),
                                        center=np.zeros(2), grid=128)
    assert abs(H2 / H1 - 16.0) < 1e-10


def test_h_pair_symmetric_and_matches_ball():
    a = geometry.single_mode_curve(1.0, 2, 0.0)   # exact circle as a curve
    b = shifted(1.0, 0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GridTooCoarse)
        Hab = potential.squared_distance(a, grid=128, other=b)
        Hba = potential.squared_distance(b, grid=128, other=a)
        Hb = potential.squared_distance(b, center=np.zeros(2), grid=128)
    assert abs(Hab - Hba) < 1e-12 * Hab
    # circle-curve coverage equals disk coverage: same rasterized field
    assert abs(Hab - Hb) < 1e-12 * Hb


def test_h_quadratic_in_amplitude():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GridTooCoarse)
        Hs = [potential.squared_distance(
            geometry.single_mode_curve(1.0, 2, eps), grid=256)
            for eps in (0.02, 0.04)]
    assert abs(Hs[1] / Hs[0] - 4.0) < 0.05


def test_h_grid_refinement_stable():
    curve = geometry.single_mode_curve(1.0, 2, 0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GridTooCoarse)
        H1 = potential.squared_distance(curve, grid=256)
        H2 = potential.squared_distance(curve, grid=512)
    assert abs(H1 / H2 - 1.0) < 2e-2


def test_h_warns_when_under_resolved():
    curve = geometry.single_mode_curve(1.0, 2, 1e-4)
    with pytest.warns(GridTooCoarse):
        potential.squared_distance(curve, grid=32)


def test_grid_too_coarse_text_is_constant():
    # the once-per-location filter can only de-duplicate a constant text
    texts = set()
    for eps in (1e-4, 2e-4, 3e-4):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            potential.squared_distance(
                geometry.single_mode_curve(1.0, 2, eps), grid=32)
        assert [w.category for w in caught] == [GridTooCoarse]
        texts |= {str(w.message) for w in caught}
    assert len(texts) == 1


# ---------------------------------------------------------------------------
# H by boundary integrals (disk_distance)
# ---------------------------------------------------------------------------

def mixed_torus_curve(N=64, L=2.0):
    """Modes 2 and 3 with a mode-1 term that puts the barycenter 3.7e-3 R
    off the pole, on the torus of half edge L: there the lattice tail
    raises H by 3.6% above the plane value."""
    rho_hat = np.zeros((N, 2))
    rho_hat[0, 0], rho_hat[1, 0], rho_hat[2, 0], rho_hat[3, 1] = \
        1.0, 3.6e-3, 0.04, 0.01
    return geometry.project_area(geometry.RadialCurve(
        1.0, rho_hat, np.zeros(2), "torus", L))


def off_pole_curve(N=64):
    """A mode-3 curve whose barycenter, the disk's centre, sits 3.6e-3 R
    off the pole, further than the gate's flows drift from their fixed
    pole (at most 8.0e-5 R)."""
    rho_hat = geometry.single_mode_curve(1.0, 3, 0.01, N=N).rho_hat.copy()
    rho_hat[1, 0] = 3.6e-3
    return geometry.project_area(geometry.RadialCurve(1.0, rho_hat,
                                                      np.zeros(2)))


def regime_curve(N=64):
    return evolution.initial_curve({**evolution.DEFAULTS,
                                    **cli.RUNS["regime32"], "N": N,
                                    "seed": 11})


def readme_curve(N=64):
    return evolution.initial_curve({**evolution.DEFAULTS, "N": N,
                                    "modes": "2,3", "amps": "0.01,0.008"})


def disk_distance(curve):
    return potential.disk_distance(geometry.build_cache(curve))


H_CURVES = {
    **{f"mode{k}-{eps:g}": functools.partial(geometry.single_mode_curve,
                                             1.0, k, eps)
       for k in (2, 3) for eps in (5e-2, 1e-3, 1e-7)},
    "regime32-shaped": regime_curve,
    "off-pole": off_pole_curve,
    "torus-L2": mixed_torus_curve,
}


@pytest.mark.parametrize("name", sorted(H_CURVES))
def test_disk_distance_converges_under_n_doubling(name):
    # at 1e-7 the brackets' first-order parts cancel to rounding, which
    # leaves a few 1e-9 of H
    H64, H128 = (disk_distance(H_CURVES[name](N=N)) for N in (64, 128))
    assert H64 > 0.0 and abs(H128 / H64 - 1.0) <= 1e-8, (H64, H128)


def test_disk_distance_small_amplitude_limit():
    # rho = R + eps cos(k phi): H -> pi R^2 eps^2 / (2k), the H^-1 norm of a
    # single layer of density eps cos(k phi) on the circle
    k, eps = 3, 1e-7
    H = disk_distance(geometry.single_mode_curve(1.0, k, eps))
    assert abs(H / (np.pi * eps**2 / (2 * k)) - 1.0) <= 1e-5


@pytest.mark.parametrize("R", [0.5, 2.0, 3.7])
def test_disk_distance_dilation_scaling(R):
    # H scales like length^4; the log R of the kernel meets a zero-mean f
    curve = readme_curve()
    big = geometry.RadialCurve(R, R * curve.rho_hat, np.zeros(2))
    assert abs(disk_distance(big) / (R**4 * disk_distance(curve)) - 1.0) \
        < 1e-12


def test_disk_distance_zero_for_centered_disk():
    assert abs(disk_distance(geometry.single_mode_curve(1.0, 2, 0.0))) < 1e-30


@pytest.mark.parametrize("L", [1.04, 1.08])
def test_disk_distance_torus_reach(L):
    # the tail series' reach max(max rho, |d| + R) / L must stay below
    # TAIL_RADIUS, the rule the run's assembly and start check use: 1.0096
    # at L = 1.04.  At L = 1.08 it is 0.972, whose degree 1360 the scaled
    # coefficients take without leaving the float range
    curves = [geometry.single_mode_curve(1.0, 2, 0.05, N=N, domain="torus",
                                         L=L) for N in (32, 64)]
    if L < 1.05:
        with pytest.raises(OutOfRadius):
            disk_distance(curves[0])
    else:
        H32, H64 = map(disk_distance, curves)
        assert H32 > 0.0 and abs(H64 / H32 - 1.0) <= 1e-9, (H32, H64)


def test_torus_curve_distance_uses_its_lattice_kernel():
    # a torus curve's H comes with its lattice tail: the torus raster, an
    # independent oracle, approaches it from below, while the plane's H
    # of the same nodes is about 11% lower
    curve = lattice_curve()
    cache = geometry.build_cache(curve)
    H = potential.disk_distance(cache)
    plane = disk_distance(replace(curve, domain="plane", L=None))
    centre = geometry.barycenter_bulk(cache)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GridTooCoarse)
        gaps = [1.0 - potential.squared_distance(curve, center=centre,
                                                 grid=G) / H
                for G in (256, 512)]
    assert 0.0 < gaps[1] < gaps[0] < 2e-3, gaps
    assert H - plane > 0.05 * H


@pytest.mark.parametrize("name, grids, sub", [
    ("mode2", (512, 1024, 2048), 4),
    ("readme", (512, 1024, 2048), 4),
    # the box spans half the L = 2 cell, so the subcells are coarser here
    ("torus-L2", (256, 512, 1024), 2)])
def test_raster_approaches_disk_distance_from_below(name, grids, sub):
    # the raster smooths the indicator at its cell size, so it converges to
    # H from below.  A plane raster is the H of the torus of half edge 8R,
    # whose lattice tail moves H by about 1e-4 relative: compare with that.
    # Every disk here sits at the barycenter, where the -beta |z|^2 term
    # of the embedding vanishes.
    curve = {"mode2": geometry.single_mode_curve(1.0, 2, 0.05),
             "readme": readme_curve(), "torus-L2": mixed_torus_curve()}[name]
    embedded = curve if curve.domain == "torus" else replace(
        curve, domain="torus", L=potential.EMBED_FACTOR * curve.R)
    cache = geometry.build_cache(embedded)
    H = potential.disk_distance(cache)
    centre = geometry.barycenter_bulk(cache)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GridTooCoarse)
        gaps = [1.0 - potential.squared_distance(curve, center=centre,
                                                 grid=G, sub=sub) / H
                for G in grids]
    assert 0.0 < gaps[2] < gaps[1] < gaps[0], gaps
    assert gaps[2] < 2e-3, gaps


def test_oracle_agrees_small_grid():
    # full-size oracle comparisons live in the acceptance suite; this is the
    # cheap smoke version at grid 32
    curve = shifted(1.0, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GridTooCoarse)
        H = potential.squared_distance(curve, center=np.zeros(2), grid=32)
        Ho = potential.squared_distance_oracle(curve, center=np.zeros(2),
                                               grid=32)
    assert abs(H / Ho - 1.0) < 0.02


# ---------------------------------------------------------------------------
# the box raster against the full-grid raster
# ---------------------------------------------------------------------------

def rasterize_difference_full(curve, center, grid=512, sub=4, other=None):
    """rasterize_difference with every coverage evaluated on the whole
    (grid * sub)^2 subcell meshgrid: the oracle of the box raster."""
    curves = [curve] if other is None else [curve, other]
    L = curve.L if curve.domain == "torus" else \
        potential.EMBED_FACTOR * max(c.R for c in curves)
    n = grid * sub
    hs = 2.0 * L / n
    x1 = -L + hs * (np.arange(n) + 0.5)
    X, Y = np.meshgrid(x1, x1, indexing="ij")

    def polar(centre):
        dx = (X - centre[0] + L) % (2.0 * L) - L
        dy = (Y - centre[1] + L) % (2.0 * L) - L
        return dx, dy, np.hypot(dx, dy)

    def coverage_curve(c):
        # rho from the production table and lookup, which have their own
        # checks (test_rho_table_*, test_uniform_lookup_*): the subject here
        # is the box restriction
        dx, dy, r = polar(c.pole)
        th = np.arctan2(dy, dx) % (2.0 * np.pi)
        rho = potential._uniform_lookup(potential._curve_region(c)[1], th)
        return np.clip(0.5 + (rho - r) / hs, 0.0, 1.0)

    f = coverage_curve(curve)
    if other is None:
        if center is None:
            center = geometry.barycenter_bulk(geometry.build_cache(curve))
        f = f - np.clip(0.5 + (curve.R - polar(center)[2]) / hs, 0.0, 1.0)
    else:
        f = f - coverage_curve(other)
    f = f.reshape(grid, sub, grid, sub).mean(axis=(1, 3))
    f -= f.mean()
    return f, L, 2.0 * L / grid


def placed_curve(seed, domain, L, R, pole):
    """A random admissible curve of equal-area radius R with its pole at
    ``pole``."""
    curve = geometry.random_admissible(np.random.default_rng(seed), N=16,
                                       domain=domain, L=L)
    return replace(curve, R=R, rho_hat=R * curve.rho_hat,
                   pole=np.asarray(pole, dtype=float))


unit = st.floats(-1.0, 1.0)


@given(st.integers(0, 10**6), st.sampled_from(["plane", "torus"]),
       st.floats(1.1, 8.0), st.sampled_from([16, 32, 64, 128]),
       st.sampled_from([1, 2, 4]), st.sampled_from(["bulk", "center",
                                                    "other"]),
       st.tuples(unit, unit), st.tuples(unit, unit), st.floats(0.5, 2.0))
@settings(max_examples=60, deadline=None)
def test_rasterize_matches_full_grid(seed, domain, ratio, grid, sub, ref,
                                     pole, offset, R_other):
    # unit curves in a torus cell of half edge L = ratio; on the plane the
    # second curve's R differs, and the embedding follows the larger one.
    # Poles and centres are fractions of the half edge, so regions wrap
    # across the cell edges.
    torus = domain == "torus"
    L = ratio if torus else None
    R_b = 1.0 if torus else R_other
    edge = L if torus else potential.EMBED_FACTOR * (
        max(1.0, R_b) if ref == "other" else 1.0)
    curve = placed_curve(seed, domain, L, 1.0, np.multiply(pole, edge))
    other = center = None
    if ref == "other":
        other = placed_curve(seed + 1, domain, L, R_b,
                             np.multiply(offset, edge))
    elif ref == "center":
        center = np.multiply(offset, edge)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GridTooCoarse)
        f, L_f, h = potential.rasterize_difference(curve, center, grid, sub,
                                                   other)
    f_full, L_full, h_full = rasterize_difference_full(curve, center, grid,
                                                       sub, other)
    assert (L_f, h) == (L_full, h_full)
    assert np.array_equal(f, f_full)


@pytest.mark.parametrize("grid", [1, 2, 4])
def test_rasterize_one_cell_box_matches_full_grid(grid):
    # a mode-2 curve against a nearby disk inside the cell [0, 4]^2 of a
    # grid 4 raster: its box is one cell per axis and is widened to two, so
    # the block average sums the 8 x 8 subcells in the full grid's order
    curve = replace(geometry.single_mode_curve(1.0, 2, 0.2),
                    pole=np.array([2.0, 2.0]))
    center = np.array([2.2, 1.9])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GridTooCoarse)
        f, _, _ = potential.rasterize_difference(curve, center, grid, 8)
    ref, _, _ = rasterize_difference_full(curve, center, grid, 8)
    assert np.array_equal(f, ref)


def test_h_pair_symmetric_for_unequal_radii():
    # both orders embed at 8 max(R); f only changes sign, so H is exact
    a = geometry.single_mode_curve(1.0, 2, 0.05)
    b = geometry.single_mode_curve(2.0, 3, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GridTooCoarse)
        Hab = potential.squared_distance(a, grid=128, other=b)
        Hba = potential.squared_distance(b, grid=128, other=a)
    assert Hab == Hba > 0


@pytest.mark.parametrize("swap", [False, True])
def test_h_pair_warns_in_either_order(swap):
    a = geometry.single_mode_curve(1.0, 2, 0.0)    # exact circle: no band
    b = geometry.single_mode_curve(1.0, 2, 1e-4)
    if swap:
        a, b = b, a
    with pytest.warns(GridTooCoarse):
        potential.squared_distance(a, grid=32, other=b)


def squared_distance_fft2(curve, center=None, grid=512, sub=4, other=None):
    """squared_distance as it was before the real FFT: fft2 of the whole
    grid and a fresh K^2 on every call."""
    f, L, _ = potential.rasterize_difference(curve, center, grid, sub, other)
    G = f.shape[0]
    F = np.fft.fft2(f) / G**2
    m = np.fft.fftfreq(G, d=1.0 / G)
    K2 = (np.pi / L) ** 2 * (m[:, None] ** 2 + m[None, :] ** 2)
    K2[0, 0] = 1.0
    terms = np.abs(F) ** 2 / K2
    terms[0, 0] = 0.0
    return float((2.0 * L) ** 2 * np.sum(terms))


@pytest.mark.parametrize("grid", [63, 64, 256])
@pytest.mark.parametrize("ref", ["center", "bulk", "other"])
@pytest.mark.parametrize("domain", ["plane", "torus"])
def test_h_matches_fft2_formula(domain, ref, grid):
    # an odd grid has no Nyquist column; the pair has unequal R
    L = 3.0 if domain == "torus" else None
    curve = placed_curve(grid, domain, L, 1.0, (0.4, -0.3))
    kwargs = {"center": np.array([0.1, 0.2])} if ref == "center" else {}
    if ref == "other":
        kwargs = {"other": placed_curve(grid + 1, domain, L, 1.3,
                                        (-0.2, 0.1))}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GridTooCoarse)
        H = potential.squared_distance(curve, grid=grid, **kwargs)
        ref_H = squared_distance_fft2(curve, grid=grid, **kwargs)
    assert ref_H > 0
    assert abs(H - ref_H) <= 1e-13 * ref_H


def test_uniform_lookup_matches_interp():
    curve = placed_curve(2, "plane", None, 1.0, (0.0, 0.0))
    table = potential._curve_region(curve)[1]
    T = table.size - 1
    nodes = 2.0 * np.pi * np.arange(T + 1) / T
    theta = np.concatenate([
        [0.0, 2.0 * np.pi - 1e-15, 2.0 * np.pi], nodes,
        np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, 20000)])
    got = potential._uniform_lookup(table, theta)
    want = np.interp(theta, nodes, table)
    assert np.max(np.abs(got - want)) <= 4 * np.spacing(table.max())


@pytest.mark.parametrize("N, size", [(16, 8192), (4096, 8192),
                                     (8192, 16384)])
def test_rho_table_size(N, size):
    curve = geometry.single_mode_curve(1.0, 3, 0.01, N=N)
    _, table, reach = potential._curve_region(curve)
    assert table.size == size + 1 and table[-1] == table[0]
    assert reach == table.max()
    if size == 2 * N:
        assert np.array_equal(table[:-1], geometry.synth_nodes(curve.rho_hat))


def test_h_memory_follows_the_box():
    # one full-grid subcell array at grid 512 is 2048^2 doubles = 32 MB
    curve = geometry.single_mode_curve(1.0, 2, 0.05, N=64)
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridTooCoarse)
            potential.squared_distance(curve, grid=512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
