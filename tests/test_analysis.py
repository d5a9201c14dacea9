"""Diagnostics records, Fuglede sandwich, trajectory checks, regime fits."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from msrelax import analysis, evolution, geometry, potential
from msrelax.errors import (EnergyBalanceFail, HypothesisFail,
                            MonotoneViolation, NoExponentialWindow)


def make_row(t, E, D, H=float("nan"), bary=0.0, Vs2=0.0):
    return analysis.DiagnosticsRecord(
        t=t, E=E, H=H, D=D, bary=bary, Vs2=Vs2, EED=E**2 * D,
        sup_rho_dev=0.0, sup_slope=0.0)


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

def test_record_single_mode_values():
    k, eps = 2, 1e-4
    cache = geometry.build_cache(geometry.single_mode_curve(1.0, k, eps))
    solve = potential.solve_ms(cache)
    row = analysis.record(cache, solve, t=0.5)
    assert abs(row.E / (np.pi * eps**2 * (k**2 - 1) / 2.0) - 1.0) < 1e-3
    assert abs(row.D / (36.0 * np.pi * eps**2) - 1.0) < 1e-3
    assert abs(row.EED - row.E**2 * row.D) < 1e-30
    assert abs(row.mode_amps[k - 1] - eps) < 1e-12
    assert row.t == 0.5 and np.isnan(row.H)
    # Vs2 = ||V_s||^2 with V ~ -12 eps cos(2 phi): pi * (12 eps)^2 * k^2
    assert abs(row.Vs2 / (np.pi * (12 * eps) ** 2 * k**2) - 1.0) < 1e-2


def test_csv_row_roundtrip_precision():
    row = make_row(0.1, 1.0 / 3.0, 2.0 / 7.0)
    vals = row.csv_row().split(",")
    header = analysis.DiagnosticsRecord.csv_header().split(",")
    assert len(vals) == len(header) == 9 + analysis.N_MODE_AMPS
    assert float(vals[1]) == 1.0 / 3.0  # 17 significant digits: exact


# ---------------------------------------------------------------------------
# Fuglede sandwich
# ---------------------------------------------------------------------------

def test_fuglede_circle():
    rep = analysis.check_fuglede(geometry.single_mode_curve(1.0, 2, 0.0))
    assert rep["pass"]
    assert abs(rep["deficit"]) < 1e-13


def test_fuglede_single_mode_values():
    eps, k = 0.01, 2
    rep = analysis.check_fuglede(geometry.single_mode_curve(1.0, k, eps,
                                                            project_area=False))
    # circle-averaged norms: ||u||^2 = eps^2/2, ||u_phi||^2 = k^2 eps^2 / 2
    assert abs(rep["lower"] - 0.1 * (1 + k**2) * eps**2 / 2) < 1e-7
    assert abs(rep["upper"] - 0.6 * k**2 * eps**2 / 2) < 1e-7
    assert abs(rep["deficit"] - (k**2 - 1) * eps**2 / 4) < 1e-6
    assert rep["pass"]


def test_fuglede_hypothesis_guard():
    with pytest.raises(HypothesisFail):
        analysis.check_fuglede(geometry.single_mode_curve(1.0, 2, 0.09))


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_fuglede_random_admissible(seed):
    rng = np.random.default_rng([41, seed])
    curve = geometry.random_admissible(rng, delta=0.05)
    assert analysis.check_fuglede(curve)["pass"]


def fuglede_rows(rho_hat, R=1.0):
    """The sandwich of stacked (B, N, 2) rows by one polar synthesis and
    the node forms, as check_fuglede forms it for one curve."""
    rho, rho_phi = geometry.polar_nodes(rho_hat)
    report = geometry.admissibility_report_nodes(rho, rho_phi, R)
    return analysis.check_fuglede_nodes(rho, rho_phi, report, R)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fuglede_stack_rows_match_single_curves(seed):
    # one stream: row i is the i-th of successive single draws
    stack = geometry.random_admissible_stack(np.random.default_rng(seed), 200,
                                             delta=0.05).rho_hat
    rep = fuglede_rows(stack)
    rng = np.random.default_rng(seed)
    for i, row in enumerate(stack):
        curve = geometry.random_admissible(rng, delta=0.05)
        assert np.array_equal(row, curve.rho_hat), i
        assert np.array_equal(curve.pole, np.zeros(2))
        assert (curve.domain, curve.L) == ("plane", None)
        one = analysis.check_fuglede(curve)
        assert one == {k: v[i].item() for k, v in rep.items()}, i
    assert rep["pass"].all()


def test_fuglede_stack_hypothesis_guard():
    good = geometry.random_admissible(np.random.default_rng(1)).rho_hat
    bad = geometry.single_mode_curve(1.0, 2, 0.09)
    with pytest.raises(HypothesisFail) as single:
        analysis.check_fuglede(bad)
    with pytest.raises(HypothesisFail) as stacked:
        fuglede_rows(np.stack([good, bad.rho_hat, good]))
    assert str(stacked.value) == str(single.value)


# ---------------------------------------------------------------------------
# EED and differential checks on synthetic exact trajectories
# ---------------------------------------------------------------------------

def exact_exp_rows(rate=24.0, n=60, t_end=0.12, E0=1e-3):
    # E = E0 exp(-rate t), D = -dE/dt = rate E; the last interval is shortened
    # to mimic the integrator's final partial step
    t = np.linspace(0.0, t_end, n)
    t[-1] = t[-2] + 0.37 * (t[-1] - t[-2])
    E = E0 * np.exp(-rate * t)
    return [make_row(ti, Ei, rate * Ei, H=Ei) for ti, Ei in zip(t, E)]


def test_check_eed_exact_ratio():
    rate = 24.0
    rows = exact_exp_rows(rate)
    rep = analysis.check_eed(rows, R=1.0)
    assert abs(rep["max_E_over_R3D"] - 1.0 / rate) < 1e-12
    assert rep["eed_monotone"]


def test_check_eed_violation():
    rows = exact_exp_rows()
    rows[30] = make_row(rows[30].t, rows[30].E * 3.0, rows[30].D * 3.0)
    with pytest.raises(MonotoneViolation):
        analysis.check_eed(rows, R=1.0)


def test_check_differential_exact():
    rep = analysis.check_differential(exact_exp_rows())
    # three-point differencing of a smooth exponential on this grid
    assert rep["max_energy_balance_err"] < 1e-3
    assert rep["n"] > 0
    assert "max_dH_over_sqrtHD" in rep


def test_check_differential_fails_on_wrong_D():
    rows = exact_exp_rows()
    rows = [make_row(r.t, r.E, 0.5 * r.D) for r in rows]
    with pytest.raises(EnergyBalanceFail):
        analysis.check_differential(rows)


def test_check_differential_skips_noise_floor():
    # circle stream: D at rounding level must not trip the hard check
    rows = [make_row(t, 1e-16 * (1 + 0.1 * np.sin(9 * t)), 1e-32)
            for t in np.linspace(0, 1, 30)]
    rep = analysis.check_differential(rows)
    assert rep["n"] == 0


def test_interp_H_fills_cadence_gaps():
    rows = exact_exp_rows()
    for i, r in enumerate(rows):
        if i % 5 and i != len(rows) - 1:   # keep the endpoints anchored
            rows[i] = make_row(r.t, r.E, r.D, H=float("nan"))
    filled = analysis._interp_H(rows)
    exact = np.array([r.E for r in rows])  # H set equal to E above
    assert np.max(np.abs(filled / exact - 1.0)) < 1e-3


# ---------------------------------------------------------------------------
# regime fits on synthetic data
# ---------------------------------------------------------------------------

def synthetic_crossover(T1=1.0, rate_E=24.0, A=1e-3):
    # E = A/t for t < T1, then continuous exponential tail
    t_alg = np.geomspace(1e-3, T1, 80, endpoint=False)
    t_exp = np.linspace(T1, T1 + 1.0, 80)
    t = np.concatenate([t_alg, t_exp])
    E = np.where(t < T1, A / np.maximum(t, 1e-300),
                 (A / T1) * np.exp(-rate_E * (t - T1)))
    return [make_row(ti, Ei, rate_E * Ei) for ti, Ei in zip(t, E)]


def test_regime_fit_recovers_crossover():
    fit = analysis.regime_fit(synthetic_crossover())
    # the latest in-band window may straddle the kink by a sample or two
    assert abs(fit.alg_slope + 1.0) < 0.15
    assert abs(fit.exp_rate - 12.0) < 0.5       # amplitude convention: 24/2
    assert 0.9 <= fit.T1 <= 1.1
    assert fit.alg_window is not None and fit.exp_window is not None


def test_regime_fit_pure_exponential_has_no_algebraic_window():
    # sampling dense relative to the rate, as along a real run
    rows = exact_exp_rows(rate=24.0, n=200, t_end=0.3)
    fit = analysis.regime_fit(rows)
    assert np.isnan(fit.alg_slope)
    assert fit.alg_window is None
    assert abs(fit.exp_rate - 12.0) < 0.01


def test_regime_fit_too_short_raises():
    with pytest.raises(NoExponentialWindow):
        analysis.regime_fit(exact_exp_rows(n=10))


# ---------------------------------------------------------------------------
# barycenter and embedding
# ---------------------------------------------------------------------------

def test_barycenter_monitor_confinement():
    rows = [make_row(t, 1e-3 * np.exp(-t), 1e-3, bary=5e-4 * t)
            for t in np.linspace(0, 1, 20)]
    rep = analysis.barycenter_monitor(rows, R=1.0)
    assert rep["pass"] and rep["confinement_ratio"] <= 5.0
    assert "max_velocity_ratio" in rep


def test_barycenter_monitor_symmetric_run():
    # even-mode initial data: the barycenter never moves
    traj = evolution.run({"N": 32, "modes": "2,4", "amps": "0.01,0.005",
                          "phases": "0,0", "t_end": 5e-4, "k_out": 5,
                          "k_H": 0})
    assert max(r.bary for r in traj.records) < 1e-10
    rep = analysis.barycenter_monitor(traj)
    assert rep["confinement_ratio"] < 1e-7


def fake_solve(values):
    return potential.BieSolve(values, 0.0, 0.0, 0.0)


def test_improved_embedding_equality_case():
    cache = geometry.build_cache(geometry.single_mode_curve(1.0, 2, 0.0))
    rep = analysis.check_improved_embedding(
        cache, fake_solve(np.cos(2 * cache.phi_nodes)))
    assert abs(rep["observed"] - 1.0) < 1e-10   # k = 2 saturates 1/(4 kbar^2)
    assert rep["pass"]


def test_improved_embedding_higher_mode():
    cache = geometry.build_cache(geometry.single_mode_curve(1.0, 2, 0.0))
    rep = analysis.check_improved_embedding(
        cache, fake_solve(np.cos(5 * cache.phi_nodes)))
    assert abs(rep["observed"] - 4.0 / 25.0) < 1e-10


def test_improved_embedding_hypothesis_guard():
    cache = geometry.build_cache(geometry.single_mode_curve(1.0, 6, 0.04))
    with pytest.raises(HypothesisFail):
        analysis.check_improved_embedding(cache, fake_solve(cache.kappa))


@pytest.mark.parametrize("k", [2, 3])
def test_curvature_oscillation_ratio(k):
    cache = geometry.build_cache(geometry.single_mode_curve(1.0, k, 1e-4))
    rep = analysis.curvature_oscillation_monitor(cache)
    assert abs(rep["ratio"] - k**2 / (k**2 - 1) ** 2) < 1e-4
