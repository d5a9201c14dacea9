"""Acceptance gate: one test per acceptance criterion, at stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` for one pass/fail line per
criterion (and, not criteria, for the regime runs' solver counts and the
gate runs' records against a tight-tolerance reference).  Each criterion's
test also prints a ``criterion N PASS`` summary with the observed numbers
(visible with ``-rA`` or ``-s``).

The long trajectories (notably the N = 64 regime-refinement run) make this
module take several minutes end to end; every stated runtime budget is
asserted, not just hoped for.
"""

import time
import warnings

import numpy as np
import pytest

from msrelax import analysis, cli, elliptic, evolution, geometry, potential
from msrelax.errors import GridTooCoarse


def timed_run(cfg):
    t0 = time.perf_counter()
    traj = evolution.run(cfg)
    return traj, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# shared trajectories (module scope: several criteria run over "all produced
# trajectories")
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mixed23():
    traj, _ = timed_run({**cli.RUNS["mixed23"], "seed": 7, "k_H": 5})
    return traj


@pytest.fixture(scope="module")
def regime32():
    traj, elapsed = timed_run({**cli.RUNS["regime32"], "seed": 11})
    traj.elapsed = elapsed
    return traj


@pytest.fixture(scope="module")
def regime64():
    traj, elapsed = timed_run({**cli.RUNS["regime64"], "seed": 11})
    traj.elapsed = elapsed
    return traj


@pytest.fixture(scope="module")
def refine_pair():
    a, _ = timed_run({**cli.RUNS["refine32"], "seed": 9})
    b, _ = timed_run({**cli.RUNS["refine64"], "seed": 9})
    return a, b


@pytest.fixture(scope="module")
def rate_runs():
    out = {}
    for domain in ("plane", "torus"):
        for k in (2, 3, 4):
            cfg = {**cli.RUNS["rate128"], "domain": domain, "modes": str(k)}
            out[(domain, k)] = timed_run(cfg)
    return out


def all_trajectories(mixed23, regime32, refine_pair, rate_runs):
    trajs = [mixed23, regime32, *refine_pair]
    trajs += [t for t, _ in rate_runs.values()]
    return trajs


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_linearized_decay_rates(rate_runs):
    lines = []
    for (domain, k), (traj, elapsed) in sorted(rate_runs.items()):
        expected = 2.0 * k * (k**2 - 1)
        fit = analysis.fit_mode_rate(traj, k)
        tol = 0.02 if domain == "plane" else 0.05
        err = abs(fit["rate"] / expected - 1.0)
        assert err < tol, (domain, k, fit["rate"], expected)
        assert elapsed < 60.0, (domain, k, elapsed)
        lines.append(f"{domain} k={k}: rate {fit['rate']:.6f} "
                     f"(exact {expected:g}, err {err:.2e}, {elapsed:.1f}s)")
    print("criterion 1 PASS: " + "; ".join(lines))


def test_criterion_01_rate_regression(rate_runs):
    # tighter than the criterion itself: the achieved errors are ~6e-6
    # (plane) and ~1.4e-4 (torus, k = 2), so a numerical regression shows
    # here long before it reaches the 2% / 5% gate
    for (domain, k), (traj, _) in sorted(rate_runs.items()):
        expected = 2.0 * k * (k**2 - 1)
        err = abs(analysis.fit_mode_rate(traj, k)["rate"] / expected - 1.0)
        assert err < (1e-4 if domain == "plane" else 1e-3), (domain, k, err)


def test_criterion_02_energy_balance(mixed23, regime32, refine_pair,
                                     rate_runs):
    worst = raw = 0.0
    for traj in all_trajectories(mixed23, regime32, refine_pair, rate_runs):
        rep = analysis.check_differential(traj, tol=1e-3)  # raises on failure
        worst = max(worst, rep.get("max_energy_balance_err", 0.0))
        raw = max(raw, rep.get("max_energy_balance_err_raw", 0.0))
    print(f"criterion 2 PASS: max |dE/dt + D|/D = {worst:.3e} <= 1e-3 "
          f"beyond the stencil truncation allowance (raw {raw:.3e}) "
          f"over all produced trajectories")


def test_criterion_03_area_conservation(mixed23, regime32, refine_pair,
                                        rate_runs):
    # step-level: pre-projection drift and exact post-projection area
    curve = geometry.single_mode_curve(1.0, 2, 0.02, N=32)
    dt = evolution.dt_max(32, 1.0)
    worst_drift = 0.0
    for _ in range(50):
        curve, drift = evolution.step(curve, dt)
        worst_drift = max(worst_drift, drift)
        cache = geometry.build_cache(curve)
        area_rel = abs(geometry.enclosed_area(cache) / np.pi - 1.0)
        assert area_rel < 1e-12
    assert worst_drift < 1e-9
    # run-level: every produced trajectory reports its worst drift
    for traj in all_trajectories(mixed23, regime32, refine_pair, rate_runs):
        assert traj.events[-1]["max_area_drift"] < 1e-9
    print(f"criterion 3 PASS: post-projection area exact to 1e-12; "
          f"worst pre-projection drift {worst_drift:.3e} <= 1e-9")


def test_criterion_04_eed_monotone(mixed23, regime32, refine_pair, rate_runs):
    for traj in all_trajectories(mixed23, regime32, refine_pair, rate_runs):
        rep = analysis.check_eed(traj)  # raises MonotoneViolation on failure
        assert rep["eed_monotone"]
    print("criterion 4 PASS: E^2 D non-increasing (slack 1e-9 E(0)^2 D(0)) "
          "on all produced trajectories")


def test_criterion_05_fuglede_1000_random_curves():
    t0 = time.perf_counter()
    rep = cli._suite_fuglede(1000, seed=0)
    elapsed = time.perf_counter() - t0
    assert rep["failures"] == 0
    assert elapsed < 30.0, elapsed
    print(f"criterion 5 PASS: 1000/1000 random admissible curves satisfy "
          f"the 1/10, 3/5 sandwich in {elapsed:.1f}s (min lower margin "
          f"{rep['min_lower_margin']:.3e})")


def test_criterion_06_trace_equality():
    rep = potential.trace_equality_disk({k: 1.0 for k in range(1, 33)})
    worst = max(max(abs(r["interior"] - np.pi * r["k"]),
                    abs(r["exterior"] - np.pi * r["k"]),
                    abs(r["h_half_sq"] - np.pi * r["k"]))
                for r in rep["rows"])
    assert worst < 1e-10
    print(f"criterion 6 PASS: both sides equal pi k for k <= 32, "
          f"max abs err {worst:.3e} <= 1e-10")


def test_criterion_07_elliptic_kernel():
    kern = elliptic.LatticeKernel(1.0)
    rng = np.random.default_rng(2)
    z = rng.uniform(-0.9, 0.9, 100) + 1j * rng.uniform(-0.9, 0.9, 100)
    per = max(
        float(np.max(np.abs(elliptic.lam(kern, z + 2.0)
                            - elliptic.lam(kern, z)))),
        float(np.max(np.abs(elliptic.lam(kern, z + 2.0j)
                            - elliptic.lam(kern, z)))))
    leg = float(elliptic.legendre_residual(kern))
    assert per < 1e-10
    assert leg < 1e-12

    # cell integral of the discrete Laplacian: the smooth background carries
    # exactly -2 pi per cell, cancelling the unit point charge
    zz = rng.uniform(0.3, 0.7, 20) + 1j * rng.uniform(0.3, 0.7, 20)

    def lap(h):
        return (elliptic.lam(kern, zz + h) + elliptic.lam(kern, zz - h)
                + elliptic.lam(kern, zz + 1j * h)
                + elliptic.lam(kern, zz - 1j * h)
                - 4.0 * elliptic.lam(kern, zz)) / h**2

    cell = (4.0 * lap(5e-4) - lap(1e-3)) / 3.0 * (2.0 * kern.L) ** 2
    charge_resid = float(np.max(np.abs(cell / (2.0 * np.pi) + 1.0)))
    assert charge_resid < 1e-6
    print(f"criterion 7 PASS: periodicity {per:.3e} <= 1e-10, Legendre "
          f"{leg:.3e} <= 1e-12, zero-total-charge residual "
          f"{charge_resid:.3e} <= 1e-6")


def test_criterion_08_bie_spectral_convergence():
    curve_err = []
    for N in (32, 64, 128, 256):
        cache = geometry.build_cache(geometry.single_mode_curve(1.0, 2, 0.0,
                                                                N=N))
        worst = 0.0
        for k in range(1, 9):
            data = np.cos(k * geometry.node_trig(cache.M)[0])
            solve = potential.solve_ms(cache, data=data)
            worst = max(worst, float(np.max(np.abs(solve.V + 2.0 * k * data))))
        curve_err.append((N, worst))
    # spectral decay curve emitted:
    decay = ", ".join(f"N={N}: {e:.3e}" for N, e in curve_err)
    assert curve_err[-1][1] < 1e-8
    print(f"criterion 8 PASS: disk mode-density error {curve_err[-1][1]:.3e} "
          f"< 1e-8 at N=256 for k <= 8; decay curve [{decay}]")


def test_criterion_09_h_oracle_equivalence():
    disk = geometry.single_mode_curve(1.0, 2, 0.0)   # the unit disk at 0
    pairs = {
        "shifted-disk": geometry.shifted_disk_curve(1.0, 0.05),
        "mode-2": geometry.single_mode_curve(1.0, 2, 0.05),
    }
    lines = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GridTooCoarse)
        for name, curve in pairs.items():
            H = potential.squared_distance(curve, disk, grid=64)
            Ho = potential.squared_distance_oracle(curve, disk, grid=64)
            rel = abs(H / Ho - 1.0)
            assert rel < 0.01, (name, H, Ho)
            lines.append(f"{name}: H={H:.6e} oracle={Ho:.6e} delta={rel:.2%}")
    print("criterion 9 PASS: " + "; ".join(lines))


def test_criterion_10_static_inequality_monitors(refine_pair):
    # E/(R^3 D) -> 1/(4k(k^2-1)) on the single-mode family
    worst = 0.0
    for k in (2, 3, 4):
        for eps in (1e-3, 1e-4):
            cache = geometry.build_cache(geometry.single_mode_curve(1.0, k,
                                                                    eps))
            solve = potential.solve_ms(cache)
            ratio = geometry.isoperimetric_gap(cache) / \
                potential.dissipation(cache, solve)
            err = abs(ratio * 4.0 * k * (k**2 - 1) - 1.0)
            if eps <= 1e-4:
                assert err < 0.05, (k, eps, ratio)
            worst = max(worst, err if eps <= 1e-4 else 0.0)
    # E/sqrt(HD) finite and refinement-stable under N-doubling
    a, b = refine_pair
    ra = analysis.check_eed(a)["max_E_over_sqrtHD"]
    rb = analysis.check_eed(b)["max_E_over_sqrtHD"]
    assert np.isfinite(ra) and ra > 0
    change = abs(ra / rb - 1.0)
    assert change < 0.01, (ra, rb)
    print(f"criterion 10 PASS: E/(R^3 D) limit err {worst:.2e} <= 5%; "
          f"max E/sqrt(HD) = {ra:.4f} (N=32) vs {rb:.4f} (N=64), "
          f"change {change:.2%} <= 1%")


def test_criterion_11_regime_structure(regime32, regime64):
    fits = {}
    for name, traj in (("N=32", regime32), ("N=64", regime64)):
        fits[name] = analysis.regime_fit(traj, slope_band=(-1.15, -0.85))
    f32, f64 = fits["N=32"], fits["N=64"]
    assert abs(f32.alg_slope + 1.0) <= 0.15
    assert abs(f32.exp_rate - 12.0) <= 1.2          # within 10% of 12/R^3
    # T1 <= C R^3 with C reported and refinement-stable (<= 1% change)
    for attr in ("T1", "alg_slope", "exp_rate"):
        va, vb = getattr(f32, attr), getattr(f64, attr)
        assert abs(va / vb - 1.0) < 0.01, (attr, va, vb)
    assert regime32.elapsed + regime64.elapsed < 600.0
    print(f"criterion 11 PASS: alg slope {f32.alg_slope:.4f} in -1+-0.15; "
          f"exp rate {f32.exp_rate:.4f} within 10% of 12; "
          f"T1 = C R^3 with C = {f32.T1:.6f} (N=64: {f64.T1:.6f}); "
          f"runtimes {regime32.elapsed:.0f}s + {regime64.elapsed:.0f}s "
          f"<= 10 min")


def test_regime_runs_refine_against_the_circle_inverse(regime32, regime64):
    # not a criterion: every solve of the gate's slowest runs refines
    # against the circle's closed-form inverse, and none falls back to a
    # direct solve
    for traj in (regime32, regime64):
        fin = traj.events[-1]
        assert fin["direct_solves"] == 0
        assert fin["refine_sweeps"] <= 3 * fin["rhs_calls"]
        assert 0.0 < fin["max_bie_residual"] <= potential.REFINE_TOL


def test_gate_runs_keep_their_barycenter_near_the_fixed_pole(
        mixed23, regime32, regime64):
    # not a criterion: a run never moves its pole, and the barycenter stays
    # close to it (measured at most 1.29e-6 R on the regime runs and
    # 8.0e-5 R on mixed23)
    for traj, bound in ((regime32, 1e-5), (regime64, 1e-5), (mixed23, 1e-3)):
        assert all(e["event"] != "recenter" for e in traj.events)
        assert max(r.bary for r in traj.records) <= bound * traj.R


@pytest.mark.parametrize("name, bound_E, bound_D", [
    ("mixed23", 1.2e-10, 1.95e-10),
    ("mixed235", 1.8e-10, 4.8e-10),
    ("regime32", 2.9e-7, 3.03e-7)])
def test_gate_records_match_a_tight_tolerance_reference(
        request, monkeypatch, name, bound_E, bound_D):
    # not a criterion: the records of the gate's runs against the same run
    # at ERR_TOL = 1e-12, at most 1.5x the worst relative errors in E and
    # D of the step-doubling estimate that the Simpson estimate replaced
    # (8.0e-11 / 1.3e-10, 1.2e-10 / 3.2e-10 and 1.93e-7 / 2.02e-7)
    seeds = {"mixed23": 7, "mixed235": 0, "regime32": 11}
    cfg = {**cli.RUNS[name], "seed": seeds[name]}
    if name == "mixed235":
        run = evolution.run(cfg)
    else:
        run = request.getfixturevalue(name)
    monkeypatch.setattr(evolution, "ERR_TOL", 1e-12)
    ref = evolution.run(cfg)
    assert [r.t for r in run.records] == [r.t for r in ref.records]
    err_E = max(abs(a.E / b.E - 1.0) for a, b in zip(run.records, ref.records))
    err_D = max(abs(a.D / b.D - 1.0) for a, b in zip(run.records, ref.records))
    assert err_E <= bound_E and err_D <= bound_D, (err_E, err_D)


def test_criterion_12_barycenter_confinement(mixed23):
    rep = analysis.barycenter_monitor(mixed23)
    assert rep["pass"] and rep["confinement_ratio"] <= 5.0
    assert np.isfinite(rep["max_velocity_ratio"])
    print(f"criterion 12 PASS: max|c|/sqrt(E(0)R) = "
          f"{rep['confinement_ratio']:.4f} <= 5; |c'|^2 |Omega|/D <= "
          f"{rep['max_velocity_ratio']:.3e} (reported)")
