"""Time stepping: ETDRK4 split and order, conservation, recentering, the
record grid and error control, runs."""

import decimal
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from msrelax import analysis, cli, elliptic, evolution, geometry, potential
from msrelax.errors import (NonPositiveRadius, RecenterFail, StepRejected,
                            Unresolved)


def state_for(k, eps, N=32, R=1.0):
    return geometry.single_mode_curve(R, k, eps, N=N)


# ---------------------------------------------------------------------------
# step mechanics
# ---------------------------------------------------------------------------

def test_dt_max_formula():
    assert abs(evolution.dt_max(64, 1.0)
               - 1.3925 / (2 * 64 * (64**2 - 1))) < 1e-18
    assert evolution.dt_max(64, 2.0) == 8.0 * evolution.dt_max(64, 1.0)


def test_rhs_zero_on_circle():
    coeffs, cache, solve = evolution.rhs(geometry.single_mode_curve(1.0, 2, 0.0))
    assert np.max(np.abs(coeffs)) < 1e-12


def test_rhs_mean_free_flux():
    # area conservation at the continuous level: int V ell dphi =
    # quad(rho * drho/dt) = 0 by the density mean constraint
    coeffs, cache, solve = evolution.rhs(geometry.single_mode_curve(1.0, 3, 0.02))
    drho = geometry.synth_nodes(coeffs)
    assert abs(cache.quad(cache.rho * drho)) < 1e-10


def test_rhs_raises_unresolved_above_top_mode_abort():
    rho_hat = np.zeros((32, 2))
    rho_hat[0, 0] = 1.0
    rho_hat[31, 0] = 1e-4
    curve = geometry.RadialCurve(1.0, rho_hat, np.zeros(2))
    with pytest.raises(Unresolved):
        evolution.rhs(curve)


def test_step_conserves_area_exactly():
    st = state_for(2, 0.02)
    dt = evolution.dt_max(32, 1.0)
    for _ in range(5):
        st, drift = evolution.step(st, dt)
        assert drift < 1e-9   # pre-projection drift at default dt
        cache = geometry.build_cache(st)
        assert abs(geometry.enclosed_area(cache) / np.pi - 1.0) < 1e-13


def test_rk4_fourth_order():
    st0 = state_for(10, 0.005)
    base = evolution.dt_max(32, 1.0)

    def integrate(dt, nsteps):
        st = st0
        for _ in range(nsteps):
            st, _ = evolution.step(st, dt)
        return st.rho_hat

    ref = integrate(base / 8, 64)
    e1 = np.max(np.abs(integrate(base, 8) - ref))
    e2 = np.max(np.abs(integrate(base / 2, 16) - ref))
    assert 12.0 < e1 / e2 < 24.0   # ~16 for a 4th-order scheme


def test_linear_symbol_is_rhs_jacobian_on_circle():
    eps = 1e-6
    for R in (1.0, 1.5):
        lam = evolution.linear_symbol(32, R)
        for k in range(2, 9):
            plus = evolution.rhs(geometry.single_mode_curve(R, k, eps, N=32))
            minus = evolution.rhs(geometry.single_mode_curve(R, k, -eps, N=32))
            jac = (plus[0][k, 0] - minus[0][k, 0]) / (2.0 * eps)
            assert abs(jac / lam[k, 0] - 1.0) < 1e-6, (R, k, jac)
    assert np.all(evolution.linear_symbol(32, 1.0)[:2] == 0.0)


def test_step_is_classical_rk4_without_linear_part(monkeypatch):
    # ETDRK4 reduces to classical RK4 at Lambda = 0
    monkeypatch.setattr(evolution, "linear_symbol",
                        lambda N, R: np.zeros((N, 1)))
    curve = state_for(5, 0.01)
    dt = 2.0 * evolution.dt_max(32, 1.0)

    def f(y):
        return evolution.rhs(replace(curve, rho_hat=y))[0]

    y0 = curve.rho_hat
    k1 = f(y0)
    k2 = f(y0 + 0.5 * dt * k1)
    k3 = f(y0 + 0.5 * dt * k2)
    k4 = f(y0 + dt * k3)
    y1 = y0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    ref = geometry.project_area(replace(curve, rho_hat=y1)).rho_hat
    new, _ = evolution.step(curve, dt)
    assert np.max(np.abs(new.rho_hat - ref)) < 1e-12


def test_step_rejects_large_dt():
    st = state_for(10, 0.02)
    with pytest.raises(StepRejected):
        evolution.step(st, 0.05)


def lattice_curve():
    """A mode-2 curve on the torus of half edge 1.5 R."""
    return geometry.single_mode_curve(1.0, 2, 0.05, N=32, domain="torus",
                                      L=1.5)


def test_step_on_a_torus_curve_uses_its_lattice_kernel(monkeypatch):
    # a torus curve's step, given no kernel, is its plane twin's step with
    # every solve a dense solve of the explicit assemble(cache, kernel)
    curve = lattice_curve()
    plane = replace(curve, domain="plane", L=None)
    dt = 4.0 * evolution.dt_max(32, 1.0)
    new, _ = evolution.step(curve, dt)
    plain, _ = evolution.step(plane, dt)
    kernel = elliptic.LatticeKernel(curve.L)

    def lattice_solve(cache, data=None):
        big = potential._bordered(potential.assemble(cache, kernel)
                                  * cache.ell, cache.ell * cache.dphi)
        mean = np.mean(cache.kappa)
        x = np.linalg.solve(big, np.append(cache.kappa - mean, 0.0))
        return potential.BieSolve(x[:-1], float(x[-1]) + mean, 0.0, 0.0)

    monkeypatch.setattr(potential, "solve_ms", lattice_solve)
    ref, _ = evolution.step(plane, dt)
    move = np.max(np.abs(ref.rho_hat - curve.rho_hat))
    assert np.max(np.abs(new.rho_hat - ref.rho_hat)) <= 1e-12 * move
    assert np.max(np.abs(plain.rho_hat - ref.rho_hat)) > 0.05 * move


def test_rhs_checks_a_given_kernel():
    # rhs takes a kernel only to check it: the curve's own lattice, even a
    # fresh LatticeKernel of it, gives the same derivative; another L, or
    # any kernel for a plane curve, is a ValueError
    curve = lattice_curve()
    own = evolution.rhs(curve)[0]
    assert np.array_equal(
        evolution.rhs(curve, elliptic.LatticeKernel(curve.L))[0], own)
    with pytest.raises(ValueError, match="kernel of L = 2.0"):
        evolution.rhs(curve, elliptic.lattice_kernel(2.0))
    with pytest.raises(ValueError, match="plane curve"):
        evolution.rhs(replace(curve, domain="plane", L=None),
                      elliptic.lattice_kernel(curve.L))


def test_phi_evaluated_once_per_step_size(monkeypatch):
    # each attempted step of h evaluates phi once, at h, h/2 and h/4
    # together (two half steps and the Simpson estimate); an accepted step
    # with records strictly inside it once more, at h/2 and every record
    # offset together; and the start probe once at its h0
    taus, calls = [], []
    phi = evolution._phi

    def counted(lam, tau):
        taus.append(np.ravel(tau).tolist())
        return phi(lam, tau)

    def tracked(name):
        fn = getattr(evolution, name)

        def wrapped(*args):
            before = len(taus)
            try:
                return fn(*args)
            finally:
                calls.append((name, args[1], args[-1], taus[before:]))
        monkeypatch.setattr(evolution, name, wrapped)

    monkeypatch.setattr(evolution, "_phi", counted)
    tracked("_two_half_steps")
    tracked("dense_output")
    base = {"N": 32, "t_end": 1e-3, "k_out": 2, "k_H": 0}
    for cfg in ({"modes": "2,3", "amps": "0.01,0.005", "seed": 7},
                {"modes": "3", "amps": "1e-3", "phases": "0"}):
        taus.clear()
        calls.clear()
        fin = evolution.run({**base, **cfg}).events[-1]
        assert fin["event"] == "finish"
        steps = [(h, inner) for name, h, _, inner in calls
                 if name == "_two_half_steps"]
        assert len(steps) == fin["steps"] + fin["rejects"] > 1
        for h, inner in steps:
            assert inner == [[h, 0.5 * h, 0.25 * h]]
        dense = [(h, s, inner) for name, h, s, inner in calls
                 if name == "dense_output"]
        for h, s, inner in dense:
            assert inner == [[0.5 * h] + [x - 0.5 * h if x > 0.5 * h else x
                                          for x in s]]
        records = sum(len(s) for _, s, _ in dense)
        assert 0 < len(dense) < records == fin["record_rhs_calls"]
        assert len(taus) == len(calls) + 1


def phi_reference(z):
    """phi_0 .. phi_4 at the float z to 60 digits (decimal): the series
    sum_n z^n / (n + k)! where |z| <= 1, else e^z and the recurrence
    phi_{k+1} = (phi_k - 1/k!) / z, which loses at most a few digits."""
    with decimal.localcontext(decimal.Context(prec=60)):
        z = decimal.Decimal(float(z))
        if abs(z) > 1:
            out = [z.exp()]
            for k in range(4):
                out.append((out[-1] - decimal.Decimal(1) / math.factorial(k))
                           / z)
            return out
        out = []
        for k in range(5):
            total, term, n = 0, decimal.Decimal(1) / math.factorial(k), 0
            while abs(term) > decimal.Decimal("1e-70"):
                total += term
                n += 1
                term = term * z / (n + k)
            out.append(total)
        return out


@pytest.mark.parametrize("cfg, hs, stiff", [
    ({**cli.RUNS["mixed23"], "seed": 7}, [4e-4, 2e-4, 1e-4, 5e-5], False),
    ({**cli.RUNS["regime64"], "seed": 11},
     [f * evolution.dt_max(64, 1.0) for f in (64, 32, 16, 8, 4)], True),
    ({"N": 64, "domain": "torus", "L": 2.0, "modes": "2,3",
      "amps": "0.01,0.008", "seed": 7}, [4e-4, 2e-4, 1e-4, 5e-5], False)])
def test_simpson_estimate_tracks_step_doubling(cfg, hs, stiff):
    # the exponential Simpson rule through the step's own n0, N(y_mid) and
    # N(y1) against one full step of h (the step-doubling estimate), on
    # the mixed23 shape, the regime64 shape and the mixed23 shape in the
    # cell of half edge L = 2R: within a small factor of it (measured
    # 0.96-2.6) at every h, and falling like h^5 where the modes are not
    # stiff (22, 26 and 29 per halving, toward 32)
    curve = evolution.initial_curve({**evolution.DEFAULTS, **cfg})
    stats = evolution.StepStats()
    n0 = evolution._nonlinear(curve, stats)[0]
    errs = []
    for h in hs:
        half, _, err, _, _ = evolution._two_half_steps(curve, h, n0, stats)
        full, _ = evolution.step(curve, h, n0, stats)
        doubling = np.max(np.abs(half.rho_hat[1:] - full.rho_hat[1:])) / \
            evolution._error_scale(half.rho_hat, curve.R)
        assert 1e-15 < doubling and 0.5 <= err / doubling <= 4.0, (h, err,
                                                                   doubling)
        errs.append(err)
    if not stiff:
        falls = [a / b for a, b in zip(errs, errs[1:])]
        assert all(f >= 16.0 for f in falls), falls
        assert 0.8 * 32 <= falls[-1] <= 1.25 * 32, falls


def test_positivity_lost_at_a_steps_end_rejects_the_step(monkeypatch):
    # rho <= 0 at y1, found by the step's own N(y1), is a positivity
    # reject that halves dt and costs the step's 8 solves; the run goes on
    calls, rhs = [], evolution.rhs

    def end_fails(curve, *args, **kwargs):
        calls.append(1)
        if len(calls) == 2 + 8:   # the first step's end
            raise NonPositiveRadius("min rho = -1")
        return rhs(curve, *args, **kwargs)

    monkeypatch.setattr(evolution, "rhs", end_fails)
    traj = evolution.run({"N": 32, "modes": "2,3", "amps": "0.01,0.005",
                          "seed": 7, "t_end": 2e-4, "k_out": 2, "k_H": 0})
    start, fin = traj.events[0], traj.events[-1]
    rejects = [e for e in traj.events if e["event"] == "reject"]
    assert fin["event"] == "finish" and fin["steps"] > 0
    assert [(e["reason"], e["err"], e["dt"]) for e in rejects] == [
        ("positivity", None, 0.5 * start["dt"])]
    assert fin["rejects_by_reason"] == {"error": 0, "positivity": 1,
                                        "area": 0}
    assert fin["rhs_calls"] == len(calls) == 2 + 8 * fin["steps"] + 8 + \
        fin["record_rhs_calls"]


def test_phi_matches_60_digit_reference():
    # the ETDRK4 arguments z = lambda tau are real and non-positive; the
    # 32-point contour mean lost up to 2e-11 of phi_4 near |z| = 1
    z = -np.concatenate([[0.0], np.logspace(-12, 4, 161),
                         np.linspace(0.95, 1.05, 41),
                         np.linspace(1.9, 2.1, 21)])
    got = evolution._phi(z[:, None], 1.0)
    for i, zi in enumerate(z):
        for k, ref in enumerate(phi_reference(zi)):
            if k == 0 and zi < -700.0:
                continue   # e^z underflows
            err = abs(decimal.Decimal(float(got[k][i, 0])) - ref) / ref
            assert err <= 2e-15, (zi, k, float(err))


def test_dense_output_passes_through_step_points():
    # the step's own N(y1), solved once on its end state, ends the path
    curve = state_for(5, 0.02)
    h = 8.0 * evolution.dt_max(32, 1.0)
    stats = evolution.StepStats()
    n0 = evolution._nonlinear(curve, stats)[0]
    new, _, _, (y_mid, n_mid), (n1, cache, solve) = \
        evolution._two_half_steps(curve, h, n0, stats)
    assert stats.rhs_calls == 1 + 8 and cache.curve is new
    assert solve.residual_norm <= potential.REFINE_TOL
    y1 = new.rho_hat
    y_0, y_h2, y_h = evolution.dense_output(curve, h, n0, y_mid, n_mid, y1,
                                            n1, [0.0, 0.5 * h, h])
    assert np.array_equal(y_0, curve.rho_hat)
    assert np.max(np.abs(y_h2 - y_mid)) < 1e-15
    assert np.max(np.abs(y_h - y1)) < 1e-15


@pytest.mark.parametrize("degree", [0, 3])
def test_dense_output_exact_for_polynomial_n(degree):
    # y' = Lambda y + N(t) with N constant or cubic in t: the interpolant
    # is the exact solution, here by Gauss-Legendre quadrature of the
    # variation-of-constants integral (and directly for constant N)
    rng = np.random.default_rng(degree)
    N = 16
    lam = evolution.linear_symbol(N, 1.0)
    h = 2e-3    # |lambda h| up to 13.6
    coef = rng.normal(size=(degree + 1, N, 2))

    def n_at(t):
        return sum(c * t**k for k, c in enumerate(coef))

    def exact(y0, s):
        if degree == 0:
            grow = np.where(lam == 0.0, s, np.expm1(lam * s)
                            / np.where(lam == 0.0, 1.0, lam))
            return np.exp(lam * s) * y0 + grow * coef[0]
        x, w = np.polynomial.legendre.leggauss(64)
        sig = 0.5 * s * (x + 1.0)
        integral = sum(0.5 * s * wi * np.exp(lam * (s - si)) * n_at(si)
                       for wi, si in zip(w, sig))
        return np.exp(lam * s) * y0 + integral

    y0 = rng.normal(size=(N, 2))
    y0[0, 1] = 0.0   # a curve's unused k = 0 sine entry
    curve = geometry.RadialCurve(1.0, y0, np.zeros(2))
    offsets = np.linspace(0.0, h, 9)
    path = evolution.dense_output(curve, h, n_at(0.0),
                                  exact(y0, 0.5 * h), n_at(0.5 * h),
                                  exact(y0, h), n_at(h), offsets)
    for s, y in zip(offsets, path):
        ref = exact(y0, s)
        assert np.max(np.abs(y - ref)) < 1e-13 * np.max(np.abs(ref))


def test_run_records_match_tight_tolerance(monkeypatch):
    # records interpolated inside large steps stay as accurate as the
    # steps: a regime64 slice against a run at ERR_TOL = 1e-11
    cfg = {**cli.RUNS["regime64"], "seed": 11, "t_end": 1e-3}
    run = evolution.run(cfg)
    monkeypatch.setattr(evolution, "ERR_TOL", 1e-11)
    ref = evolution.run(cfg)
    assert run.events[-1]["steps"] < ref.events[-1]["steps"]
    assert [r.t for r in run.records] == [r.t for r in ref.records]
    for a, b in zip(run.records, ref.records):
        assert abs(a.E / b.E - 1.0) < 5e-10, (a.t, a.E, b.E)
        assert abs(a.D / b.D - 1.0) < 5e-10, (a.t, a.D, b.D)


def test_torus_rate_records_match_fixed_steps(monkeypatch):
    # a single mode's error estimate sits at rounding level, so dt grows
    # 4x a step and ERR_TOL = 1e-11 changes no step; the reference is
    # instead two fixed ETDRK4 steps per record interval
    monkeypatch.setattr(evolution, "ERR_TOL", 1e-11)
    cfg = {"N": 128, "domain": "torus", "modes": "3", "amps": "1e-3",
           "phases": "0", "t_end": 2e-5, "k_out": 6, "k_H": 0}
    run = evolution.run(cfg)
    assert run.events[-1]["steps"] < len(run.records) // 2
    curve = evolution.initial_curve({**evolution.DEFAULTS, **cfg})
    t = 0.0
    for rec in run.records:
        for _ in range(2 if rec.t > t else 0):
            curve, _ = evolution.step(curve, 0.5 * (rec.t - t))
        t = rec.t
        cache = geometry.build_cache(curve)
        ref = analysis.record(cache, potential.solve_ms(cache), t)
        assert abs(rec.E / ref.E - 1.0) < 1e-11, (t, rec.E, ref.E)
        assert abs(rec.D / ref.D - 1.0) < 1e-11, (t, rec.D, ref.D)


def rk4_records(cfg, s):
    """The records of ``cfg`` by an independent integrator: classical RK4
    on d rho_hat / dt = evolution.rhs with the fixed step dt_max / s, the
    area projection (geometry.project_area) after each step, and a record
    every k_out * s steps; the stretch after the last grid record is cut
    into equal steps of at most dt_max / s that land on t_end.  No
    phi-functions, dense output or error control: it shares only rhs and
    the projection with the ETDRK4 run (and its initial curve)."""
    curve = evolution.initial_curve({**evolution.DEFAULTS, **cfg})
    N, R, t_end = curve.N, curve.R, cfg["t_end"]
    unit = 1.3925 * R**3 / (2.0 * N * (N**2 - 1.0))   # dt_max
    h, interval = unit / s, cfg["k_out"] * unit

    def f(y):
        return evolution.rhs(replace(curve, rho_hat=y))[0]

    def advance(curve, dt):
        y = curve.rho_hat
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return geometry.project_area(replace(curve, rho_hat=y))

    def record(curve, t):
        cache = geometry.build_cache(curve)
        return analysis.record(cache, potential.solve_ms(cache), t)

    records, j = [record(curve, 0.0)], 1
    # the run's grid: t_j = j k_out dt_max, those within 1e-9 of an
    # interval of t_end merged into the end record
    while t_end - j * interval > 1e-9 * interval:
        for _ in range(cfg["k_out"] * s):
            curve = advance(curve, h)
        records.append(record(curve, j * interval))
        j += 1
    rest = t_end - records[-1].t
    if rest > 0.0:
        n = math.ceil(rest / h - 1e-9)
        for _ in range(n):
            curve = advance(curve, rest / n)
        records.append(record(curve, t_end))
    return records


@pytest.mark.parametrize("cfg, bound_E, bound_D", [
    ({**cli.RUNS["mixed23"], "seed": 7}, 6.0e-11, 1.0e-10),
    ({**cli.RUNS["mixed235"], "seed": 0}, 2.0e-10, 5.7e-10),
    ({**cli.RUNS["regime32"], "seed": 11, "t_end": 0.005}, 1.95e-7, 4.1e-7),
    ({"N": 32, "domain": "torus", "L": 2.0, "modes": "2,3",
      "amps": "0.01,0.008", "seed": 7, "t_end": 0.002, "k_out": 5,
      "k_H": 0}, 1.6e-11, 3.1e-11)],
    ids=["mixed23", "mixed235", "regime32-slice", "torus-L2"])
def test_records_match_an_independent_rk4_integrator(cfg, bound_E, bound_D):
    # RK4 at dt_max / 2, whose own error sits below the ETDRK4 records'
    # (regime32 at dt_max: 5.4e-6), against the run's records; each bound
    # is at most 1.5x the measured worst relative difference (4.06e-11 /
    # 6.84e-11, 1.35e-10 / 3.83e-10, 1.30e-7 / 2.76e-7, 1.09e-11 /
    # 2.10e-11), the size of the record errors the evolution docstring
    # documents against ETDRK4 at ERR_TOL = 1e-12
    run = evolution.run(cfg)
    ref = rk4_records(cfg, 2)
    assert [r.t for r in run.records] == [r.t for r in ref]
    err_E = max(abs(a.E / b.E - 1.0) for a, b in zip(run.records, ref))
    err_D = max(abs(a.D / b.D - 1.0) for a, b in zip(run.records, ref))
    assert err_E <= bound_E and err_D <= bound_D, (err_E, err_D)


# ---------------------------------------------------------------------------
# recentering
# ---------------------------------------------------------------------------

def test_recenter_shifted_disk():
    out = evolution.recenter(geometry.shifted_disk_curve(1.0, 0.1))
    assert np.allclose(out.pole, [0.1, 0.0], atol=1e-10)
    target = np.zeros((64, 2))
    target[0, 0] = 1.0
    assert np.max(np.abs(out.rho_hat - target)) < 1e-10


def test_recenter_noop_when_centered():
    st = state_for(2, 0.02)
    out = evolution.recenter(st)
    assert np.max(np.abs(out.rho_hat - st.rho_hat)) < 1e-12


def test_recenter_large_offset_fails():
    rho_hat = geometry.shifted_disk_curve(1.0, 0.3).rho_hat
    with pytest.raises(RecenterFail):
        evolution.recenter(geometry.RadialCurve(1.0, rho_hat, np.zeros(2)))


def test_recenter_preserves_invariants():
    # recentering is a pure reparametrization: E and area unchanged
    rng = np.random.default_rng(3)
    curve = geometry.random_admissible(rng, delta=0.05)
    shifted = geometry.RadialCurve(curve.R, curve.rho_hat,
                                   np.array([0.01, -0.02]))
    E0 = geometry.isoperimetric_gap(geometry.build_cache(shifted))
    out = evolution.recenter(shifted)
    E1 = geometry.isoperimetric_gap(geometry.build_cache(out))
    assert abs(E1 - E0) < 1e-10 * max(E0, 1e-30)


# ---------------------------------------------------------------------------
# configuration and runs
# ---------------------------------------------------------------------------

def test_initial_curve_parsing():
    cfg = dict(evolution.DEFAULTS)
    cfg.update({"modes": "2,3", "amps": "0.01", "phases": "0,0"})
    curve = evolution.initial_curve(cfg)
    assert abs(curve.rho_hat[2, 0] - 0.01) < 1e-15
    assert abs(curve.rho_hat[3, 0] - 0.01) < 1e-15  # single amp broadcast
    cache = geometry.build_cache(curve)
    assert abs(geometry.enclosed_area(cache) - np.pi) < 1e-13


def test_initial_curve_seeded_phases_deterministic():
    cfg = dict(evolution.DEFAULTS)
    cfg.update({"modes": "2,3", "amps": "0.01", "seed": 42})
    a = evolution.initial_curve(cfg)
    b = evolution.initial_curve(cfg)
    assert np.array_equal(a.rho_hat, b.rho_hat)
    cfg["seed"] = 43
    c = evolution.initial_curve(cfg)
    assert not np.array_equal(a.rho_hat, c.rho_hat)


@pytest.mark.parametrize("modes, amps, phases", [
    ("2,3,5", "0.01,0.02", ""),     # amps neither one nor one per mode
    ("2,3", "0.01", "0"),           # phases given but not one per mode
    ("2,3", "", ""),                # no amplitude at all
    ("40", "0.01", ""),             # beyond the top mode N - 1 = 31
    ("0", "0.01", ""),              # the area mode is not a perturbation
])
def test_initial_curve_rejects_malformed_modes(modes, amps, phases):
    cfg = {**evolution.DEFAULTS, "N": 32, "modes": modes, "amps": amps,
           "phases": phases}
    with pytest.raises(ValueError):
        evolution.initial_curve(cfg)


def test_run_rejects_repeated_mode():
    # each mode takes one amplitude and phase, so a repeat is refused, not
    # merged into one coefficient
    cfg = {"N": 32, "modes": "2,2", "amps": "0.01,0.02", "phases": "0,0",
           "t_end": 1e-5, "k_H": 0}
    with pytest.raises(ValueError, match="repeat"):
        evolution.run(cfg)


def test_run_rejects_curve_too_large_for_torus_cell():
    with pytest.raises(ValueError, match="L = 1"):
        evolution.run({"N": 32, "domain": "torus", "L": 1.0, "t_end": 1e-5})
    # well inside the cell the same curve runs
    traj = evolution.run({"N": 32, "domain": "torus", "L": 1.5,
                          "t_end": 1e-5, "k_H": 0})
    assert traj.events[-1]["event"] == "finish"


def test_readme_config_table_matches_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Config keys", 1)[1].split("\n## ", 1)[0]
    rows = [ln for ln in section.splitlines() if ln.startswith("| `")]
    keys = {ln.split("`")[1] for ln in rows}
    assert len(rows) == len(keys) == len(evolution.DEFAULTS)
    assert keys == set(evolution.DEFAULTS)


def test_run_rejects_unknown_key():
    # includes keys that existed once and were removed
    for key in ("not_a_key", "filter", "dt0", "E_stop", "c_cfl",
                "embed_factor", "k_rec", "max_steps"):
        with pytest.raises(KeyError):
            evolution.run({key: 1})


def test_run_deterministic():
    # a run shares no state with the runs before it in the process: A, then
    # another config, then A again writes A's rows byte for byte
    cfg = {"N": 32, "modes": "2,3", "amps": "0.01,0.005", "seed": 7,
           "t_end": 3e-4, "k_out": 5, "k_H": 0}
    a = evolution.run(cfg)
    evolution.run({**cfg, "domain": "torus", "modes": "3", "amps": "0.02"})
    b = evolution.run(cfg)
    rows_a = [r.csv_row() for r in a.records]
    rows_b = [r.csv_row() for r in b.records]
    assert rows_a == rows_b


@pytest.mark.parametrize("domain", ["plane", "torus"])
def test_run_records_disk_distance_on_the_k_h_cadence(domain):
    # H is disk_distance of the record's own cache, in the curve's domain,
    # on every k_H-th record; the grid key is not read
    cfg = {"N": 32, "domain": domain, "modes": "2,3", "amps": "0.01,0.008",
           "t_end": 3e-4, "k_out": 5, "k_H": 2}
    traj = evolution.run(cfg)
    curve = evolution.initial_curve({**evolution.DEFAULTS, **cfg})
    assert traj.records[0].H == potential.disk_distance(
        geometry.build_cache(curve))
    Hs = [r.H for r in traj.records]
    assert all(H > 0 for H in Hs[::2]) and all(map(math.isnan, Hs[1::2]))
    other = evolution.run({**cfg, "grid": 3})
    assert [r.csv_row() for r in other.records] == \
        [r.csv_row() for r in traj.records]


def test_run_linear_decay_rate():
    traj = evolution.run({"N": 32, "modes": "2", "amps": "1e-3",
                          "phases": "0", "t_end": 2e-3, "k_out": 5, "k_H": 0})
    fit = analysis.fit_mode_rate(traj, 2)
    assert abs(fit["rate"] - 12.0) < 0.01
    assert fit["r2"] > 1.0 - 1e-10


def test_run_energy_monotone():
    traj = evolution.run({"N": 32, "modes": "2,3,5", "amps": "0.01",
                          "seed": 1, "t_end": 2e-3, "k_out": 5, "k_H": 0})
    E = np.array([r.E for r in traj.records])
    assert np.all(np.diff(E) < 0)
    assert traj.events[-1]["event"] == "finish"
    assert traj.events[-1]["max_area_drift"] < 1e-9


@given(st.sampled_from(["plane", "torus"]), st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_run_properties_random_small_curves(domain, seed):
    # a short run from random modes 2..6: exact area, E >= 0, monotone E^2 D
    rng = np.random.default_rng([53, seed])
    modes = rng.choice(np.arange(2, 7), size=int(rng.integers(1, 4)),
                       replace=False)
    cfg = {"N": 32, "domain": domain,
           "modes": ",".join(str(k) for k in modes),
           "amps": ",".join(f"{a:.17g}"
                            for a in rng.uniform(1e-3, 1e-2, modes.size)),
           "phases": ",".join(f"{p:.17g}"
                              for p in rng.uniform(0, 2 * np.pi, modes.size)),
           "t_end": 12 * evolution.dt_max(32, 1.0), "k_out": 4, "k_H": 0}
    traj = evolution.run(cfg)
    assert len(traj.records) == 4
    assert traj.events[-1]["max_area_drift"] < 1e-9
    assert min(r.E for r in traj.records) >= 0.0
    assert analysis.check_eed(traj)["eed_monotone"]


def test_run_stop_conditions(monkeypatch):
    with monkeypatch.context() as mp:
        mp.setattr(evolution, "MAX_STEPS", 12)
        traj = evolution.run({"N": 32, "modes": "2", "amps": "0.01",
                              "t_end": 1.0, "k_out": 4, "k_H": 0})
    fin = traj.events[-1]
    assert fin["steps"] == 12 and fin["stop"] == "max_steps"
    assert traj.records[-1].t == fin["t"] < 1.0   # the last state recorded
    traj = evolution.run({"N": 32, "modes": "2", "amps": "0.01",
                          "t_end": 1e-4, "k_out": 4, "k_H": 0})
    assert traj.events[-1]["stop"] == "t_end"


def test_run_final_partial_step_lands_on_t_end():
    traj = evolution.run({"N": 32, "modes": "2", "amps": "0.01",
                          "t_end": 1e-4, "k_out": 3, "k_H": 0})
    assert abs(traj.records[-1].t - 1e-4) < 1e-15


def test_run_circle_stream_all_zero():
    traj = evolution.run({"N": 32, "modes": "2", "amps": "0",
                          "t_end": 5e-5, "k_out": 2, "k_H": 0})
    for r in traj.records:
        assert abs(r.E) < 1e-13
        assert r.D < 1e-13


def test_torus_run_smoke():
    traj = evolution.run({"N": 32, "domain": "torus", "modes": "3",
                          "amps": "1e-3", "phases": "0", "t_end": 5e-5,
                          "k_out": 2, "k_H": 0})
    fit = analysis.fit_mode_rate(traj, 3)
    assert abs(fit["rate"] / 48.0 - 1.0) < 0.05


def test_run_records_on_time_grid():
    # a first trial step that is no multiple of the record interval must
    # not move the records off the grid
    cfg = {"N": 32, "modes": "2,3", "amps": "0.01,0.005", "seed": 7,
           "t_end": 4e-4, "k_out": 5, "k_H": 0}
    traj = evolution.run(cfg)
    interval = 5 * evolution.dt_max(32, 1.0)
    times = [r.t for r in traj.records]
    assert len(times) == int(4e-4 / interval) + 2
    for j, t in enumerate(times[:-1]):
        assert abs(t - j * interval) <= 1e-12 * j * interval
    assert times[-1] == 4e-4


def test_run_start_step_from_initial_state():
    # an N = 128 torus mode-3 rate run: the first step, estimated from the
    # initial state, is far above dt_max, so the run needs at most two
    # steps; its records stay on the grid and its solves on the circle's
    # inverse
    cfg = {"N": 128, "domain": "torus", "modes": "3", "amps": "1e-3",
           "phases": "0", "t_end": 1.5e-4, "k_out": 6, "k_H": 0}
    traj = evolution.run(cfg)
    start, fin = traj.events[0], traj.events[-1]
    unit = evolution.dt_max(128, 1.0)
    assert start["event"] == "start" and not start["fallback"]
    assert start["dt"] > 100 * unit
    assert 0.0 < start["h0"] <= 1.5e-4 and start["d1"] > 0 and start["d2"] > 0
    assert fin["event"] == "finish" and fin["steps"] <= 2
    assert fin["rejects"] == 0 and fin["direct_solves"] == 0
    interval = 6 * unit
    times = [r.t for r in traj.records]
    assert len(times) == int(1.5e-4 / interval) + 2
    for j, t in enumerate(times[:-1]):
        assert abs(t - j * interval) <= 1e-12 * j * interval
    assert times[-1] == 1.5e-4


def test_run_start_falls_back_to_dt_max(monkeypatch):
    # an unperturbed circle has N(y0) = 0 and no estimate: it starts at
    # dt_max without a probe and without a RuntimeWarning
    cfg = {"N": 32, "modes": "2", "amps": "0", "t_end": 5e-5, "k_out": 2,
           "k_H": 0}
    unit = evolution.dt_max(32, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traj = evolution.run(cfg)
    start, fin = traj.events[0], traj.events[-1]
    assert start["dt"] == unit and start["fallback"]
    assert start["d1"] == 0.0 and start["h0"] is None and start["d2"] is None
    assert fin["event"] == "finish" and fin["rejects"] == 0
    assert fin["rhs_calls"] == 1 + 8 * fin["steps"] + fin["record_rhs_calls"]
    # a probe that raises starts at dt_max too; its rhs call still counts
    calls, rhs = [], evolution.rhs

    def probe_fails(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise Unresolved("probe")
        return rhs(*args, **kwargs)

    monkeypatch.setattr(evolution, "rhs", probe_fails)
    traj = evolution.run({**cfg, "amps": "0.01"})
    start, fin = traj.events[0], traj.events[-1]
    assert start["dt"] == unit and start["fallback"]
    assert start["h0"] > 0.0 and start["d1"] > 0.0 and start["d2"] is None
    assert fin["event"] == "finish" and fin["rejects"] == 0
    assert fin["rhs_calls"] == len(calls) == 2 + 8 * fin["steps"] + \
        fin["record_rhs_calls"]
    assert fin["direct_solves"] == 0


def test_torus_runs_share_one_lattice_kernel(monkeypatch):
    # the lattice shells and Eisenstein sums are built once per L and
    # process, and a shared kernel changes no record
    built, kernel = [], elliptic.LatticeKernel

    def counted(L):
        built.append(L)
        return kernel(L)

    monkeypatch.setattr(elliptic, "LatticeKernel", counted)
    elliptic.lattice_kernel.cache_clear()
    cfg = {"N": 32, "domain": "torus", "modes": "3", "amps": "1e-3",
           "phases": "0", "t_end": 5e-5, "k_out": 2, "k_H": 0}
    a = evolution.run(cfg)
    b = evolution.run(cfg)
    assert built == [8.0]
    assert elliptic.lattice_kernel(8.0) is elliptic.lattice_kernel(8.0)
    assert [r.csv_row() for r in a.records] == [r.csv_row() for r in b.records]


def test_run_large_cadence_matches_small_steps():
    base = {**cli.RUNS["regime64"], "seed": 11, "t_end": 6e-3}
    big = evolution.run({**base, "k_out": 400})
    ref = evolution.run({**base, "k_out": 16})   # 25 records per big one
    fin = big.events[-1]
    assert fin["steps"] > 2 * len(big.records)   # intervals are split
    assert fin["dt_accepted_max"] < 400 * evolution.dt_max(64, 1.0)
    ref_E = [r.E for r in ref.records[::25]] + [ref.records[-1].E]
    for rec, E in zip(big.records, ref_E):
        assert abs(rec.E / E - 1.0) < 1e-6, (rec.t, rec.E, E)


def test_run_dt_collapse_raises_with_partial_trajectory(monkeypatch):
    monkeypatch.setattr(evolution, "ERR_TOL", 1e-300)   # never met
    with pytest.raises(StepRejected) as info:
        evolution.run({"N": 32, "modes": "2", "amps": "0.01",
                       "t_end": 1e-4, "k_out": 2, "k_H": 0})
    traj = info.value.trajectory
    assert len(traj.records) == 1
    fail = traj.events[-1]
    assert fail["event"] == "fail" and fail["error"] == "StepRejected"
    assert "collapsed" in fail["message"]
    rejects = [e for e in traj.events if e["event"] == "reject"]
    assert len(rejects) == fail["rejects_by_reason"]["error"] > 10
    assert all(e["reason"] == "error" and e["err"] > 0 for e in rejects)
    # the initial state's one evaluation serves every retry, and the
    # circle's inverse every solve; the start probe adds one call
    assert traj.events[0]["dt"] == evolution.dt_max(32, 1.0)
    assert fail["rhs_calls"] == 2 + 8 * len(rejects)
    assert fail["direct_solves"] == 0 and fail["refine_sweeps"] > 0


def test_run_solves_each_state_once(monkeypatch):
    # every BIE solve is an rhs call: each accepted state is solved once,
    # a record between steps once more, and the start probe once
    solves, solve_ms = [], potential.solve_ms

    def counted(*args, **kwargs):
        solves.append(1)
        return solve_ms(*args, **kwargs)

    monkeypatch.setattr(potential, "solve_ms", counted)
    traj = evolution.run({"N": 32, "modes": "2,3", "amps": "0.01,0.005",
                          "seed": 7, "t_end": 1e-3, "k_out": 2, "k_H": 0})
    fin = traj.events[-1]
    assert fin["event"] == "finish" and fin["rejects"] == 0
    assert len(traj.records) > 5 and fin["record_rhs_calls"] > 0
    assert len(solves) == fin["rhs_calls"] == 2 + 8 * fin["steps"] + \
        fin["record_rhs_calls"]


def count_dense_solves(monkeypatch):
    """The shapes of the matrices passed to np.linalg.inv and
    np.linalg.solve from now on, by function name."""
    calls = {"inv": [], "solve": []}

    def counter(name):
        fn = getattr(np.linalg, name)

        def counted(a, *args):
            calls[name].append(a.shape)
            return fn(a, *args)
        return counted

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counter(name))
    return calls


@pytest.mark.parametrize("cfg, steps_calls", [
    ({**cli.RUNS["regime64"], "t_end": 6e-4}, (21, 184)),
    ({"N": 128, "domain": "torus", "modes": "3", "amps": "1e-3",
      "t_end": 1e-5, "k_out": 6, "k_H": 0}, None),
    ({"N": 64, "modes": "2,3", "amps": "0.01,0.008", "t_end": 1.2e-4,
      "k_H": 1}, None)], ids=["cfg0", "cfg1", "cfg2"])
def test_run_refines_against_the_circle_inverse(monkeypatch, cfg,
                                                steps_calls):
    # the bench's flow-plane-n64, flow-torus-n128 and simulate-h-n64
    # shapes: every solve of the run refines against the circle's
    # closed-form inverse, and no matrix is inverted or solved directly;
    # solving for w = ell V and stopping at the rounding floor, the
    # regime64 slice takes about 3.7 sweeps a solve, the others 3 to 4.
    # The pole stays put: the rhs_calls identity has no re-centring term
    calls = count_dense_solves(monkeypatch)
    traj = evolution.run(cfg)
    fin = traj.events[-1]
    assert fin["event"] == "finish"
    assert all(e["event"] != "recenter" for e in traj.events)
    assert fin["rhs_calls"] == 2 + 8 * fin["steps"] + \
        8 * fin["rejects_by_reason"]["error"] + fin["record_rhs_calls"]
    if steps_calls is not None:
        assert (fin["steps"], fin["rhs_calls"]) == steps_calls
    assert fin["direct_solves"] == 0 and calls == {"inv": [], "solve": []}
    assert fin["refine_sweeps"] >= 2 * fin["rhs_calls"]
    if cfg.get("domain") != "torus":
        assert fin["refine_sweeps"] <= 6 * fin["rhs_calls"]
    assert 0.0 < fin["max_bie_residual"] <= potential.REFINE_TOL


def test_run_falls_back_to_direct_solves_where_refinement_stagnates(
        monkeypatch):
    # a mixed23-shaped run in the cell of half edge L = 2R: the lattice
    # tail moves the matrix far from the circle's, so every solve's
    # refinement stagnates and falls back to a direct solve of its own
    # system; nothing is inverted and nothing carries over between solves
    calls = count_dense_solves(monkeypatch)
    cfg = {**cli.RUNS["mixed23"], "domain": "torus", "L": 2.0, "seed": 7,
           "t_end": 1e-3}
    fin = evolution.run(cfg).events[-1]
    assert fin["event"] == "finish" and fin["steps"] > 1
    assert fin["rhs_calls"] == 2 + 8 * fin["steps"] + \
        8 * fin["rejects_by_reason"]["error"] + fin["record_rhs_calls"]
    assert fin["direct_solves"] == fin["rhs_calls"] == 35
    assert calls == {"inv": [], "solve": [(65, 65)] * 35}
    assert 0.0 < fin["max_bie_residual"] <= potential.REFINE_TOL


@pytest.mark.parametrize("L, amps", [(1.08, "0.05"), (1.06, "0.04")])
def test_run_records_h_near_the_tail_reach(tmp_path, L, amps):
    # reach 2 max rho / 2L = 0.9716 and 0.98065.  The first, of degree
    # 1360, is admitted: every record has a finite H, and N = 32 and
    # N = 64 agree on the initial curve to the H's own accuracy and at
    # t_end to the flow's.  The second lies past TAIL_RADIUS = 0.98, where
    # the series degree would pass 1938: the run and simulate refuse it
    cfgs = [{"N": N, "domain": "torus", "L": L, "modes": "2", "amps": amps,
             "phases": "0", "t_end": 1e-4, "k_H": 1} for N in (32, 64)]
    if L < 1.07:
        for cfg in cfgs:
            with pytest.raises(ValueError, match="too large for the torus"):
                evolution.run(cfg)
        path = tmp_path / "near.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in cfgs[0].items()))
        assert cli.main(["simulate", "--config", str(path), "--out",
                         str(tmp_path / "out")]) == 2
        return
    runs = [evolution.run(cfg) for cfg in cfgs]
    for traj in runs:
        assert traj.events[-1]["event"] == "finish"
        assert all(np.isfinite(r.H) and r.H > 0.0 for r in traj.records)
    first, last = ([traj.records[i] for traj in runs] for i in (0, -1))
    assert abs(first[1].H / first[0].H - 1.0) <= 1e-9
    assert last[0].t == last[1].t == 1e-4
    assert abs(last[1].H / last[0].H - 1.0) <= 1e-5


def test_run_reports_worst_solve_residuals(monkeypatch):
    # the step summary keeps the worst residuals of every BIE solve, which
    # solve_ms bounds at 1e-8, in the finish and the fail event alike
    solves, solve_ms = [], potential.solve_ms

    def kept(*args, **kwargs):
        solves.append(solve_ms(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(potential, "solve_ms", kept)
    cfg = {"N": 32, "modes": "2,3", "amps": "0.01,0.005", "seed": 7,
           "t_end": 2e-4, "k_out": 2, "k_H": 0}
    fin = evolution.run(cfg).events[-1]
    assert fin["event"] == "finish" and len(solves) == fin["rhs_calls"]
    assert fin["max_bie_residual"] == max(s.residual_norm for s in solves)
    assert fin["max_mean_constraint_residual"] == max(
        s.mean_constraint_residual for s in solves)
    assert 0.0 < fin["max_bie_residual"] <= 1e-8
    assert 0.0 <= fin["max_mean_constraint_residual"] <= 1e-8
    solves.clear()
    monkeypatch.setattr(evolution, "TOP_MODE_ABORT", 1e-30)
    with pytest.raises(Unresolved) as info:
        evolution.run(cfg)
    fail = info.value.trajectory.events[-1]
    assert fail["event"] == "fail" and solves
    assert fail["max_bie_residual"] == max(s.residual_norm for s in solves)
    assert fail["max_mean_constraint_residual"] == max(
        s.mean_constraint_residual for s in solves)
