"""Diagnostics assembly and the inequality/regime verification harness.

Hard assertions (explicit constants or exact identities): the Fuglede
sandwich, dE/dt = -D, E^2 D monotonicity, E >= 0, area conservation.
Everything whose universal constant the theory leaves unspecified is a
monitor: it reports the observed constant and never raises.

DiagnosticsRecord is the schema of trajectory.csv; the trajectory checks
read its fields as arrays over a run's records (_columns).
"""

from dataclasses import dataclass, field, fields

import numpy as np

from . import geometry, potential, sobolev
from .errors import (EnergyBalanceFail, HypothesisFail, MonotoneViolation,
                     NoExponentialWindow)

N_MODE_AMPS = 16

# Fuglede constants for nearly spherical curves (circle-averaged L2 norms)
FUGLEDE_LOWER = 0.1
FUGLEDE_UPPER = 0.6
FUGLEDE_SUP_U = 3.0 / 40.0
FUGLEDE_SUP_DU = 0.5

FIT_WINDOW = 12
FIT_MIN_SPAN = 0.7
FIT_MAX_CURVATURE = 0.5
FIT_R2_MIN = 0.999
FIT_SLOPE_STABLE = 0.05

CONFINEMENT_CAP = 5.0   # calibrated cap on max |c(t)| / sqrt(E(0) R)
EMBEDDING_C = 2.0       # calibrated constant C of check_improved_embedding


@dataclass
class DiagnosticsRecord:
    """One record of a run and one row of its trajectory.csv: each scalar
    field is a column of that name, in field order, then ``mode_amps`` as
    amp01 .. amp16."""
    t: float
    E: float
    H: float            # nan when not computed at this cadence
    D: float
    bary: float         # |c(t)| in the fixed frame
    Vs2: float          # ||V_s||^2_{L2(Gamma)}
    EED: float          # E^2 D
    sup_rho_dev: float
    sup_slope: float
    mode_amps: np.ndarray = field(default_factory=lambda: np.zeros(N_MODE_AMPS))

    @classmethod
    def scalar_fields(cls):
        return [f.name for f in fields(cls) if f.name != "mode_amps"]

    def csv_row(self):
        vals = [getattr(self, f) for f in self.scalar_fields()]
        vals += list(self.mode_amps)
        return ",".join(f"{v:.17g}" for v in vals)

    @classmethod
    def csv_header(cls):
        amps = [f"amp{k:02d}" for k in range(1, N_MODE_AMPS + 1)]
        return ",".join(cls.scalar_fields() + amps)


def mode_amplitudes(curve):
    amp = np.hypot(curve.rho_hat[:, 0], curve.rho_hat[:, 1])
    out = np.zeros(N_MODE_AMPS)
    upto = min(N_MODE_AMPS + 1, amp.size)
    out[: upto - 1] = amp[1:upto]
    return out


def record(cache, solve, t=0.0, H=float("nan")):
    """One diagnostics row from a geometry cache and a BIE solve."""
    curve = cache.curve
    R = curve.R
    E = geometry.isoperimetric_gap(cache)
    D = potential.dissipation(cache, solve)
    bary = float(np.hypot(*geometry.barycenter_bulk(cache)))
    vs = sobolev.curve_norm(cache, solve.V, 1.0)
    return DiagnosticsRecord(
        t=float(t), E=float(E), H=float(H), D=float(D), bary=bary,
        Vs2=float(vs**2), EED=float(E**2 * D),
        sup_rho_dev=float(np.max(np.abs(cache.rho - R))),
        sup_slope=float(np.max(np.abs(cache.rho_phi))),
        mode_amps=mode_amplitudes(curve),
    )


# ---------------------------------------------------------------------------
# Fuglede sandwich
# ---------------------------------------------------------------------------

def check_fuglede(curve):
    """Two-sided control of the isoperimetric deficit by the radial
    perturbation, at unit scale:

        (1/10)(||u||^2 + ||u_phi||^2) <= Delta <= (3/5) ||u_phi||^2,

    with u = rho/R - 1 after rescaling to unit enclosed-disk radius,
    Delta = L(Gamma)/(2 pi) - 1 the nondimensional deficit, and L2 norms
    averaged over the circle (measure dphi/2pi).  Hypotheses sup|u| <= 3/40
    and sup|u_phi| <= 1/2 are verified first.  One polar synthesis feeds
    the admissibility report that supplies sup|u| and sup|u_phi| and the
    sandwich (check_fuglede_nodes), which forms Delta without cancellation.
    """
    rho, rho_phi = geometry.polar_nodes(curve.rho_hat[None])
    report = geometry.admissibility_report_nodes(rho, rho_phi, curve.R)
    rep = check_fuglede_nodes(rho, rho_phi, report, curve.R)
    return {k: v[0].item() for k, v in rep.items()}


def check_fuglede_nodes(rho, rho_phi, report, R=1.0):
    """check_fuglede of B rows sharing R, from their node values (B, M) of
    rho and rho_phi and their geometry.admissibility_report_nodes report,
    whose annulus and slope residuals are sup|u| and sup|u_phi|: the same
    keys, each an array over the rows.  Raises HypothesisFail (naming the
    first offending row's sup norms) if any row violates the hypotheses.

    Delta is formed without cancellation, as geometry.isoperimetric_gap
    forms E: with w = rho - R and s = w (2R + w) = rho^2 - R^2,

        L - 2 pi R = quad((s + rho_phi^2) / (ell + R)),
        r_eq - 1 = x / (1 + sqrt(1 + x)),   x = quad(s) / (2 pi R^2),
        Delta = ((L - 2 pi R) / (2 pi R) - (r_eq - 1)) / r_eq,

    with ell = sqrt(rho^2 + rho_phi^2) the length element, and
    u = (w - R (r_eq - 1)) / (R r_eq).
    """
    sup_u, sup_up = report["annulus_residual"], report["slope_residual"]
    bad = (sup_u > FUGLEDE_SUP_U) | (sup_up > FUGLEDE_SUP_DU)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise HypothesisFail(
            f"sup|u| = {sup_u[i]:.3e}, sup|u_phi| = "
            f"{sup_up[i]:.3e} outside (3/40, 1/2)")
    w = rho - R
    s = w * (2.0 * R + w)
    up_sq = rho_phi * rho_phi
    # ell enters only through the denominator, so hypot's care is not needed
    excess = geometry.quad((s + up_sq) / (np.sqrt(rho * rho + up_sq) + R))
    x = geometry.quad(s) / (2.0 * np.pi * R**2)
    r_eq1 = x / (1.0 + np.sqrt(1.0 + x))
    r_eq = 1.0 + r_eq1
    deficit = (excess / (2.0 * np.pi * R) - r_eq1) / r_eq
    # circle averages: node sums over M (R r_eq)^2
    scale = rho.shape[-1] * (R * r_eq) ** 2
    u2 = np.sum((w - (R * r_eq1)[:, None]) ** 2, axis=-1) / scale
    up2 = np.sum(up_sq, axis=-1) / scale
    lower = FUGLEDE_LOWER * (u2 + up2)
    upper = FUGLEDE_UPPER * up2
    tol = 1e-13  # absolute slack: the circle sits at 0 <= 0 <= 0 in rounding
    return {
        "deficit": deficit,
        "lower": lower,
        "upper": upper,
        "pass": (lower - tol <= deficit) & (deficit <= upper + tol),
    }


# ---------------------------------------------------------------------------
# trajectory checks
# ---------------------------------------------------------------------------

def _columns(traj, *names):
    """Each named DiagnosticsRecord field as an array over the records of
    ``traj``, a TrajectoryLog or a sequence of records."""
    rows = traj.records if hasattr(traj, "records") else traj
    return [np.array([getattr(r, name) for r in rows]) for name in names]


def check_eed(traj, R=None):
    """E/(R^3 D) and E/sqrt(HD) per row; E^2 D non-increasing (hard)."""
    if R is None:
        R = getattr(traj, "R", 1.0)
    E, D, eed = _columns(traj, "E", "D", "EED")
    H = _interp_H(traj)
    pos = (D > 0) & (E > 0)
    ratios = E[pos] / (R**3 * D[pos])
    interp = pos & (H > 0)
    interp_ratios = E[interp] / np.sqrt(H[interp] * D[interp])
    # floor: E^2 D carries ~ eps_mach^3 / R of pure rounding noise (E ~ eps R,
    # D ~ eps / R^3 on an exact circle), far below any real violation
    slack = 1e-9 * eed[0] + 1e-40 / R
    worst = float(np.max(np.diff(eed))) if eed.size > 1 else 0.0
    if worst > slack:
        raise MonotoneViolation(f"E^2 D increased by {worst:.3e} > {slack:.3e}")
    return {
        "max_E_over_R3D": float(max(ratios, default=0.0)),
        "max_E_over_sqrtHD": float(max(interp_ratios, default=0.0)),
        "eed_monotone": True,
        "worst_increment": worst,
    }


def _interp_H(traj):
    """H was computed on a cadence; fill gaps by log-linear interpolation."""
    t, H = _columns(traj, "t", "H")
    good = np.isfinite(H) & (H > 0)
    if good.sum() < 2:
        return H
    out = H.copy()
    fill = ~good
    out[fill] = np.exp(np.interp(t[fill], t[good], np.log(H[good])))
    return out


def _deriv3(t, f):
    """Second-order three-point derivative at interior nodes, valid on
    nonuniform spacing (the final output interval may be shorter)."""
    h1 = t[1:-1] - t[:-2]
    h2 = t[2:] - t[1:-1]
    return (-h2 / (h1 * (h1 + h2)) * f[:-2]
            + (h2 - h1) / (h1 * h2) * f[1:-1]
            + h1 / (h2 * (h1 + h2)) * f[2:])


def check_differential(traj, tol=1e-3):
    """Midpoint finite differences of E, H, D against the recorded rates.

    Hard: dE/dt = -D within ``tol`` relative (interior points).  Monitors:
    the observed constants in dH/dt <= C sqrt(HD) and the sign/size of
    dD/dt + 2 ||V_s||^2 against the E D^3 + D^{5/2} scale.

    The three-point derivative of E carries a known truncation error
    h1 h2 E''' / 6, which on stiff early transients (high-mode data, decay
    rates of order 1e3 against the record cadence) exceeds the tolerance by
    itself.  Since E''' = -D'' along the flow, that error is estimated from
    the recorded D and subtracted before comparing against ``tol``: the
    assertion tests the continuum identity, not the stencil.  Both the raw
    and the truncation-corrected errors are reported.
    """
    t, E, D, Vs2 = _columns(traj, "t", "E", "D", "Vs2")
    H = _interp_H(traj)
    if t.size < 3:
        return {"n": 0}
    dEdt = _deriv3(t, E)
    Dmid = D[1:-1]
    h1 = t[1:-1] - t[:-2]
    h2 = t[2:] - t[1:-1]
    # skip rows where D is below rounding noise (exact-circle streams)
    active = (Dmid > 1e-12 * np.max(D)) & (Dmid > 1e-28)
    # truncation error of the stencil: h1 h2 |E'''| / 6 with E''' = -D''
    D2 = 2.0 * (D[:-2] / (h1 * (h1 + h2)) - D[1:-1] / (h1 * h2)
                + D[2:] / (h2 * (h1 + h2)))
    allowance = h1 * h2 * np.abs(D2) / (6.0 * Dmid)
    rel = np.abs(dEdt + Dmid) / Dmid
    adj = np.maximum(rel - allowance, 0.0)[active]
    worst = float(np.max(adj)) if adj.size else 0.0
    if worst > tol:
        raise EnergyBalanceFail(f"max |dE/dt + D| / D = {worst:.3e} "
                                f"beyond the stencil truncation allowance")
    out = {"n": int(active.sum()), "max_energy_balance_err": worst,
           "max_energy_balance_err_raw":
               float(np.max(rel[active])) if active.any() else 0.0}

    good = np.isfinite(H[1:-1]) & (H[1:-1] > 0) & active
    if good.any():
        dHdt = _deriv3(t, H)[good]
        cH = dHdt / np.sqrt(H[1:-1][good] * Dmid[good])
        out["max_dH_over_sqrtHD"] = float(np.max(cH))
    dDdt = _deriv3(t, D)
    lhs = dDdt + 2.0 * Vs2[1:-1]
    scale = E[1:-1] * Dmid**3 + Dmid**2.5
    ok = (scale > 1e-300) & active
    if ok.any():
        out["max_dD_identity_ratio"] = float(np.max(lhs[ok] / scale[ok]))
    return out


# ---------------------------------------------------------------------------
# regime fit
# ---------------------------------------------------------------------------

@dataclass
class RegimeFit:
    T1: float
    alg_slope: float
    exp_rate: float     # decay rate of the mode amplitude, = rate(E)/2
    alg_window: tuple
    exp_window: tuple


def _fit_line(x, y):
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    yhat = A @ coef
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), float(coef[1]), r2


def _fit_quad_coeff(x, y):
    A = np.vstack([x**2, x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(coef[0])


def regime_fit(traj, slope_band=(-1.3, -0.7)):
    """Detect the algebraic (log E vs log t slope near -1) and exponential
    (log E vs t linear) windows and the crossover time T1 between them.

    Two traps make naive window detection misfire.  Any pure exponential
    transits log-log slope -1 (its slope there is -rate * t), so the
    algebraic window of FIT_WINDOW samples must span at least FIT_MIN_SPAN
    in log t, have its log-log slope in ``slope_band`` and be straight in
    log-log coordinates (quadratic coefficient at most FIT_MAX_CURVATURE;
    for an exponential the local log-log curvature equals its slope, order
    one).  And a cascade of fast modes dying in sequence produces
    locally-linear stretches of log E vs t long before the terminal rate is
    established, so the exponential window is taken as the earliest start
    whose entire tail fits one rate: R^2 at least FIT_R2_MIN and
    first-half / second-half slopes within FIT_SLOPE_STABLE relative.

    A missing algebraic window is legitimate (pure low-mode data never has
    one) and is reported as alg_slope = nan; a missing exponential window
    raises NoExponentialWindow.  exp_rate is reported in amplitude
    convention: E decays like the squared mode amplitude, so exp_rate =
    (fitted decay rate of E) / 2.
    """
    t, E = _columns(traj, "t", "E")
    usable = (E > 0) & (t > 0)
    t, E = t[usable], E[usable]
    n = t.size
    if n < 2 * FIT_WINDOW:
        raise NoExponentialWindow(f"only {n} usable samples")
    logt, logE = np.log(t), np.log(E)

    alg_win, alg_slope = None, float("nan")
    for i in range(n - FIT_WINDOW, -1, -1):
        xs, ys = logt[i:i + FIT_WINDOW], logE[i:i + FIT_WINDOW]
        if xs[-1] - xs[0] < FIT_MIN_SPAN:
            continue  # too narrow in log t to distinguish a power law
        sl, _, _ = _fit_line(xs, ys)
        if slope_band[0] <= sl <= slope_band[1] and \
                abs(_fit_quad_coeff(xs, ys)) <= FIT_MAX_CURVATURE:
            alg_slope = sl
            alg_win = (i, i + FIT_WINDOW)
            break

    exp_win = None
    start = alg_win[1] if alg_win else 0
    for i in range(start, n - 2 * FIT_WINDOW + 1):
        sl, _, r2 = _fit_line(t[i:], logE[i:])
        if not (r2 >= FIT_R2_MIN and sl < 0):
            continue
        mid = i + (n - i) // 2
        sl2, _, _ = _fit_line(t[mid:], logE[mid:])
        if abs(sl2 - sl) <= FIT_SLOPE_STABLE * abs(sl):
            exp_win = (i, n)
            break
    if exp_win is None:
        raise NoExponentialWindow("no tail with a single stable decay rate")
    sl, _, _ = _fit_line(t[exp_win[0]:], logE[exp_win[0]:])
    return RegimeFit(T1=float(t[exp_win[0]]), alg_slope=alg_slope,
                     exp_rate=-sl / 2.0, alg_window=alg_win, exp_window=exp_win)


def fit_mode_rate(traj, k):
    """Least-squares decay rate of mode-k amplitude along a trajectory."""
    t, amps = _columns(traj, "t", "mode_amps")
    a = amps[:, k - 1]
    good = a > 0
    sl, _, r2 = _fit_line(t[good], np.log(a[good]))
    return {"rate": -sl, "r2": r2}


# ---------------------------------------------------------------------------
# barycenter and embedding monitors
# ---------------------------------------------------------------------------

def barycenter_monitor(traj, R=None):
    """max |c(t)| / sqrt(E(0) R) against CONFINEMENT_CAP, and the
    observed constant in |c'|^2 |Omega_in| <= C D (both monitors)."""
    if R is None:
        R = getattr(traj, "R", 1.0)
    t, c, D, E = _columns(traj, "t", "bary", "D", "E")
    conf = float(np.max(c)) / np.sqrt(E[0] * R) if E[0] > 0 else 0.0
    out = {"confinement_ratio": conf, "cap": CONFINEMENT_CAP,
           "pass": conf <= CONFINEMENT_CAP}
    if t.size >= 3:
        cdot = _deriv3(t, c)
        Dmid = D[1:-1]
        ok = Dmid > 1e-300
        if ok.any():
            ratio = cdot[ok] ** 2 * (np.pi * R**2) / Dmid[ok]
            out["max_velocity_ratio"] = float(np.max(ratio))
    return out


def check_improved_embedding(cache, solve):
    """||V||^2 <= ||V_s||^2 / (4 kbar^2 (1 - C(||kappa - kbar||_L1 + (R/L)^2))).

    Requires the curvature-oscillation hypothesis ||kappa - kbar||_L1 <= 1/5.
    C is not given by the theory; EMBEDDING_C is a calibrated monitor constant.
    """
    length = geometry.perimeter(cache)
    kbar = 2.0 * np.pi / length
    l1 = cache.quad(np.abs(cache.kappa - kbar) * cache.ell)
    if l1 > 0.2:
        raise HypothesisFail(f"||kappa - kbar||_L1 = {l1:.3f} > 1/5")
    curve = cache.curve
    rl2 = (curve.R / curve.L) ** 2 if curve.domain == "torus" else 0.0
    v2 = cache.quad(solve.V**2 * cache.ell)
    vs2 = sobolev.curve_norm(cache, solve.V, 1.0) ** 2
    observed = 4.0 * kbar**2 * v2 / vs2 if vs2 > 0 else 0.0
    margin = EMBEDDING_C * (l1 + rl2)
    bound = 1.0 / (1.0 - margin) if margin < 1 else float("inf")
    return {
        "observed": float(observed),
        "bound": float(bound),
        "l1_curvature_dev": float(l1),
        "pass": bool(observed <= bound * (1.0 + 1e-12)),
    }


def curvature_oscillation_monitor(cache):
    """Observed constant in ||rho_phi||^2 <= C R^4 ||kappa - kbar||^2 (the
    boundary-control bound; C unknown, reported only)."""
    length = geometry.perimeter(cache)
    kbar = 2.0 * np.pi / length
    lhs = cache.quad(cache.rho_phi**2)
    rhs = cache.curve.R**4 * cache.quad((cache.kappa - kbar) ** 2 * cache.ell)
    return {"ratio": float(lhs / rhs) if rhs > 0 else 0.0}
