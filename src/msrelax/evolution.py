"""Time integration of the interface flow in polar-graph gauge.

With a frozen pole, the radial function obeys

    d rho / d t = V * ell / rho

(the graph moves along the normal with speed V; projecting the normal motion
onto the ray through the pole costs the factor ell / rho = 1 / cos omega,
tan omega = rho_phi / rho).

Stepping is exponential time differencing, ETDRK4 (Cox & Matthews, J. Comput.
Phys. 176, 2002), on the Fourier coefficients y = rho_hat.  The right-hand
side is split as

    dy/dt = Lambda y + N(y),   Lambda = diag(lambda_k),
    lambda_k = -2 k (k^2 - 1) / R^3,

the linearization about the circle of radius R (modes 0 and 1 have
lambda = 0).  The plane symbol serves both domains: on the torus it differs
from the true one by O((R/L)^4), and the remainder N absorbs the difference.
The curve fixes both operators of a step: Lambda by its N and R
(linear_symbol, cached per (N, R)), and the Green's function of N's BIE
solve by its domain (geometry.RadialCurve.kernel).
Lambda is integrated exactly, so the step is limited by accuracy rather than
by the stiffest mode.  The phi-functions of the real z = lambda h are
evaluated in real arithmetic: the closed forms where |z| >= 2, and where
|z| < 2, where they cancel, a Taylor series for phi_4 and the upward
recurrence phi_k = z phi_{k+1} + 1/k!; either way to a few ulps.  ETDRK4
reduces to classical RK4 where lambda = 0.

Records lie on a fixed time grid t_j = j * k_out * dt_max, where

    dt_max = 1.3925 / |lambda_N| = 1.3925 R^3 / (2 N (N^2 - 1))

is a fixed unit that shrinks like R^3 / N^3.  Record times therefore do not
depend on the step-size history, and the three-point stencil of
check_differential stays well posed.  The record grid does not constrain
the steps: only the last one is cut to land on t_end, and each t_j inside
an accepted step is reached by dense output (see dense_output), a
per-half-step exponential Hermite interpolant through the step's start,
midpoint and end.  The interpolated state is projected to the exact area
and evaluated once; that rhs call gives the record.

The first trial step is estimated from the initial state (Hairer, Norsett &
Wanner, Solving ODEs I, section II.4), on the nonlinear part N alone, the
part ETDRK4 does not integrate exactly.  With s the error estimate's scale
(below), d1 = max |N(y0)| / s; one exponential-Euler probe
y_p = e^{Lambda h0} y0 + h0 phi_1(Lambda h0) N(y0) at h0 = 0.01 / d1 (at
most t_end), projected to the exact area, gives
d2 = max |N(y_p) - N(y0)| / (h0 s), both over coefficients 1..N-1.  The
first trial step is then

    max(dt_max, min(100 h0, START_SAFETY (0.01 ERR_TOL / max(d1, d2))^(1/5),
                    t_end)),

and dt_max itself when d1 = 0 (an unperturbed circle), when t_end = 0 or
when the probe raises a MsrelaxError.  The probe costs one rhs call; the
start event records the step, h0, d1, d2 and whether the start fell back
to dt_max.

run() evaluates each state -- the initial one and each step's end --
once: that rhs call checks it (a top-mode ratio above TOP_MODE_ABORT, at
any state or stage, ends the run; rho <= 0 at a step's end, as at a stage,
rejects the step) and gives the N(y0) of every step tried from it, the end
point of the step's dense output and any record that falls on it.  A step
of h is two ETDRK4 steps of h/2, through y_mid to y1.  Its
error is estimated against the exponential Simpson rule through the
step's own N values: with dn_mid = N(y_mid) - N(y0),
dn1 = N(y1) - N(y0), q2 = 2 dn1 - 4 dn_mid and q1 = dn1 - q2, the quadratic
N(y0) + q1 u + q2 u^2 (u = t / h) through all three, integrated exactly
(Cox & Matthews; Hochbruck & Ostermann, Acta Numerica 19, 2010), gives

    y_S = e^{Lambda h} y0 + h (phi_1 N(y0) + phi_2 q1 + 2 phi_3 q2)

(phis at Lambda h; Simpson's rule y0 + h (n0 + 4 n_mid + n1) / 6 where
Lambda = 0), and

    err = max |y1 - y_S| / max(max |y1|, 1e-9 R)

over coefficients 1..N-1; the floor keeps rounding noise on an unperturbed
circle from rejecting forever.  y_S and y1 are both fourth order, so err
falls like h^5; like a step-doubling estimate (one full step of h against
the two halves, three more rhs calls) it measures the cruder of two
results rather than y1, and the two estimates agree within a factor of
about 1 to 3.  A step is accepted when err <= ERR_TOL, and then continues
from y1; either way the next trial is
dt * clip(0.9 (ERR_TOL / err)^(1/5), 0.2, 4).  A step costs 8 rhs calls,
accepted or rejected on error (a reject on positivity or area only the
calls made up to it), a record between steps one more; the phi-functions
are evaluated once each at Lambda h, h/2 and h/4, once per such record and
once for the start probe.

ERR_TOL thus bounds each step's local error, relative to max |y[1:]| at
that step.  It does not bound the records of a long run, which carry the
error accumulated over every step before them.  Against the same configs
run at ERR_TOL = 1e-12, the records of cli.RUNS regime32 (seed 11) are off
by up to about 2e-7 relative in E and D, near t = 0.013 where E has
decayed from 1e-3 to about 3e-12; those of mixed235 (seed 0) by about
4e-10 and of mixed23 (seed 7) by about 7e-11.

Each rhs call is one bordered BIE solve (potential.solve_ms), refined
against the closed-form inverse of the circle of radius R
(potential.circle_inverse), so a call costs the O(M^2) assembly and a few
matrix-vector products; on the torus the lattice tail enters those
products by its two thin factors.  A solve whose refinement misses (a
large deficit, or a small torus cell) is solved directly instead.  A solve
depends on its curve alone, not on the run's history; StepStats counts the
sweeps and the direct solves.

The flow conserves enclosed area exactly; the integrator's drift per step is
removed after each accepted step by an exact adjustment of the zero mode
(area is a quadratic polynomial in the coefficients).  Steps are rejected
(StepRejected) when rho turns non-positive at a stage or at the step's
end, or the pre-projection area drift exceeds a hard bound; such
rejections halve dt.

A run keeps the pole of its initial curve.  The polar gauge would degrade
if the barycenter drifted far off the pole, but the flow confines the
barycenter in terms of the initial data (acceptance criterion 12 checks
max |c(t)| <= 5 sqrt(E(0) R)): that of cli.RUNS regime32 and regime64
stays within 1.3e-6 R of the pole, that of mixed23 to t = 0.01 within
8e-5 R.  A pole offset d adds a Fourier tail of about (d/R)^k, which the
top-mode check would catch.
"""

import functools
import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import analysis, elliptic, geometry, potential
from .errors import (MsrelaxError, NonPositiveRadius, RecenterFail,
                     StepRejected, Unresolved)

AREA_DRIFT_REJECT = 1e-5
TOP_MODE_ABORT = 1.0e-6   # top-mode ratio above which rhs raises Unresolved
ERR_TOL = 1e-8
# c of the first-step estimate, measured: at 0.02 the first step of 2 of 20
# seeded N = 64 runs of modes 8..16 missed ERR_TOL (by at most 5%)
START_SAFETY = 0.018
MAX_STEPS = 2_000_000

DEFAULTS = {
    "R": 1.0,
    "N": 64,
    "domain": "plane",
    "L": 0.0,               # 0 means: plane, or torus default 8R
    "modes": "2",
    "amps": "0.02",
    "phases": "",
    "seed": 0,
    "t_end": 0.01,
    "k_out": 10,
    "k_H": 5,               # H every k_H-th record; 0 disables H
    "grid": 256,            # validated, not read: the flow's H needs no raster
}


@dataclass
class StepStats:
    """What one run's stepping did, its ``rhs`` calls, the worst residuals
    of their BIE solves, their refinement sweeps and their direct solves
    included: the step summary of the finish and fail events, each field a
    key of its name."""
    rhs_calls: int = 0
    record_rhs_calls: int = 0
    dt_accepted_min: float = 0.0    # 0 until a step is accepted
    dt_accepted_max: float = 0.0
    max_err_estimate: float = 0.0
    max_area_drift: float = 0.0
    max_top_mode_ratio: float = 0.0
    max_bie_residual: float = 0.0
    max_mean_constraint_residual: float = 0.0
    refine_sweeps: int = 0
    direct_solves: int = 0
    rejects_by_reason: dict = field(default_factory=lambda: dict.fromkeys(
        ("error", "positivity", "area"), 0))

    def accept(self, dt, err, drift, rho_hat):
        self.dt_accepted_min = (min(self.dt_accepted_min, dt)
                                if self.dt_accepted_max > 0 else dt)
        self.dt_accepted_max = max(self.dt_accepted_max, dt)
        self.max_err_estimate = max(self.max_err_estimate, err)
        self.max_area_drift = max(self.max_area_drift, drift)
        self.max_top_mode_ratio = max(self.max_top_mode_ratio,
                                      geometry.top_mode_ratio(rho_hat))


@dataclass
class TrajectoryLog:
    R: float
    records: list = field(default_factory=list)
    events: list = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def write_csv(self, path, meta=None):
        with open(path, "w") as fh:
            if meta:
                fh.write(meta.rstrip("\n") + "\n")
            fh.write(analysis.DiagnosticsRecord.csv_header() + "\n")
            for r in self.records:
                fh.write(r.csv_row() + "\n")

    def write_events(self, path):
        with open(path, "w") as fh:
            for ev in self.events:
                fh.write(json.dumps(ev, sort_keys=True) + "\n")


def dt_max(N, R):
    """The unit of the record grid and the floor of the first trial step,
    1.3925 / |lambda_N| (lambda_k of ``linear_symbol`` continued one past
    the top mode k = N - 1)."""
    return 1.3925 * R**3 / (2.0 * N * (N**2 - 1.0))


@functools.lru_cache(maxsize=8)
def linear_symbol(N, R):
    """Diagonal of Lambda, the linearization of ``rhs`` about the circle of
    radius R, as an (N, 1) column: lambda_k = -2 k (k^2 - 1) / R^3;
    read-only."""
    k = np.arange(N, dtype=float)[:, None]
    lam = -2.0 * k * (k**2 - 1.0) / R**3
    lam.setflags(write=False)
    return lam


# 1/(n + 4)!, n = 0..23: the coefficients of the Taylor series of phi_4
_PHI4_TAYLOR = tuple(1 / math.factorial(n + 4) for n in range(24))


def _phi(lam, tau):
    """phi_0 .. phi_4 of z = lambda tau (real), each an (N, 1) column.

    phi_0(z) = e^z and phi_{k+1}(z) = (phi_k(z) - 1/k!) / z.  Where
    |z| >= 2 these closed forms lose at most a few bits; where |z| < 2,
    phi_4 is its Taylor series sum_n z^n / (n + 4)! (24 terms; the first
    one left out is below 6e-23) and phi_3 .. phi_1 follow from the upward
    recurrence phi_k = z phi_{k+1} + 1/k!, which loses little there.
    """
    z = tau * lam
    near = np.abs(z) < 2.0
    e = np.exp(z)
    zn = np.where(near, z, 0.0)
    p4 = np.full_like(z, _PHI4_TAYLOR[-1])
    for a in reversed(_PHI4_TAYLOR[:-1]):
        p4 *= zn
        p4 += a
    p3 = zn * p4 + 1.0 / 6.0
    p2 = zn * p3 + 0.5
    p1 = zn * p2 + 1.0
    if not near.all():
        far = ~near
        zf = z[far]
        q1 = (e[far] - 1.0) / zf
        q2 = (q1 - 1.0) / zf
        q3 = (q2 - 0.5) / zf
        p1[far], p2[far], p3[far] = q1, q2, q3
        p4[far] = (q3 - 1.0 / 6.0) / zf
    return e, p1, p2, p3, p4


def _phis_at(curve, taus):
    """``_phi`` of the curve's linear_symbol at each step size in ``taus``,
    from one call: phi_0 .. phi_4, each a (len(taus), N, 1) stack.  The
    operations are elementwise, so each row equals its own scalar call bit
    for bit."""
    return _phi(linear_symbol(curve.N, curve.R),
                np.asarray(taus, dtype=float)[:, None, None])


def _etd_coeffs(phis, h):
    """e^{Lambda h}, e^{Lambda h/2} and the ETDRK4 weights Q, f1, f2, f3,
    from ``phis``, the _phis_at of h and h/2 (rows 0 and 1).

    In phi-functions of Lambda h (Cox & Matthews): Q = h/2 phi_1(Lambda h/2),
    f1 = h (phi_1 - 3 phi_2 + 4 phi_3), f2 = h (phi_2 - 2 phi_3) and
    f3 = h (4 phi_3 - phi_2).
    """
    e, p1, p2, p3 = (p[0] for p in phis[:4])
    e2, q = phis[0][1], phis[1][1]
    return (e, e2, 0.5 * h * q, h * (p1 - 3.0 * p2 + 4.0 * p3),
            h * (p2 - 2.0 * p3), h * (4.0 * p3 - p2))


def dense_output(curve, h, n0, y_mid, n_mid, y1, n1, s):
    """y at the offsets ``s`` (a sequence, 0 <= s <= h) inside an accepted
    step of size h from ``curve`` (y0 = curve.rho_hat, Lambda = its
    linear_symbol), as a (len(s), N, 2) stack; one _phi call evaluates the
    phis at h/2 and at every offset.

    On each half step of size hh = h/2, from (ya, na), with u = tau / hh,

        y(tau) = e^{Lambda tau} ya + tau (phi_1 na + u phi_2 d1
                 + 2 u^2 phi_3 d2 + 6 u^3 phi_4 d3)     (phis at Lambda tau)

    is the exact solution of y' = Lambda y + N(t) for the cubic
    N = na + d1 u + d2 u^2 + d3 u^3 (Hochbruck & Ostermann, Acta Numerica
    19, 2010, section 2).  Per coefficient, that cubic passes through n0,
    n_mid and n1 at s = 0, hh and h, and d3 makes y end the half at y_mid or
    y1, so the path passes through both.
    """
    hh = 0.5 * h
    s = np.asarray(s, dtype=float)
    later = s > hh
    tau = np.where(later, s - hh, s)
    phis = _phis_at(curve, np.concatenate([[hh], tau]))
    e, p1, p2, p3, p4 = (p[0] for p in phis)
    dn_mid, dn1 = n_mid - n0, n1 - n0

    def half(ya, na, yb, a1, b1, a2, b2):
        # d1 = a1 + b1 d3 and d2 = a2 + b2 d3 fit the three N values
        r = (yb - e * ya - hh * p1 * na) / hh
        d3 = (r - p2 * a1 - 2.0 * p3 * a2) / (b1 * p2 + 2.0 * b2 * p3
                                               + 6.0 * p4)
        return ya, na, a1 + b1 * d3, a2 + b2 * d3, d3

    a2 = 0.5 * dn1 - dn_mid
    first = half(curve.rho_hat, n0, y_mid, 2.0 * dn_mid - 0.5 * dn1, 2.0,
                 a2, -3.0)
    second = half(y_mid, n_mid, y1, 0.5 * dn1, -1.0, a2, 0.0)
    ya, na, d1, d2, d3 = (np.where(later[:, None, None], b, a)
                          for a, b in zip(first, second))
    e, p1, p2, p3, p4 = (p[1:] for p in phis)
    tau = tau[:, None, None]
    u = tau / hh
    return e * ya + tau * (p1 * na + u * (p2 * d1 + u * (
        2.0 * p3 * d2 + 6.0 * u * p4 * d3)))


def rhs(curve, kernel=None):
    """Coefficient-space time derivative, plus the cache and solve used; the
    BIE solve takes the curve's own kernel (see potential.solve_ms), and
    ``kernel`` is only checked: any kernel but curve.kernel (a plane curve
    has none) is a ValueError.  Raises NonPositiveRadius unless rho > 0,
    then Unresolved if the curve's top_mode_ratio exceeds TOP_MODE_ABORT."""
    if kernel is not None and kernel != curve.kernel:
        raise ValueError(f"a kernel of L = {kernel.L} for a {curve.domain} "
                         f"curve (L = {curve.L})")
    cache = geometry.build_cache(curve)
    top = geometry.top_mode_ratio(curve.rho_hat)
    if top > TOP_MODE_ABORT:
        raise Unresolved(f"top-mode relative amplitude {top:.3e}")
    solve = potential.solve_ms(cache)
    drho = solve.V * cache.ell / cache.rho
    return geometry.coeffs_from_nodes(drho), cache, solve


def _nonlinear(curve, stats):
    """N(y) = rhs(y) - Lambda y at y = ``curve``'s coefficients, the cache
    and the solve; ``stats``, if given, counts the call and its solve."""
    if stats is not None:
        stats.rhs_calls += 1
    k, cache, solve = rhs(curve)
    if stats is not None:
        stats.max_bie_residual = max(stats.max_bie_residual,
                                     solve.residual_norm)
        stats.max_mean_constraint_residual = max(
            stats.max_mean_constraint_residual,
            solve.mean_constraint_residual)
        stats.refine_sweeps += solve.sweeps
        stats.direct_solves += solve.direct
    return k - linear_symbol(curve.N, curve.R) * curve.rho_hat, cache, solve


def _stage(curve, stats):
    """``_nonlinear`` at a stage curve or a step's end; a non-positive rho
    rejects the step."""
    try:
        return _nonlinear(curve, stats)
    except NonPositiveRadius as exc:
        raise StepRejected("rho <= 0 at a stage", "positivity") from exc


def step(curve, dt, n0=None, stats=None, coeffs=None):
    """One ETDRK4 step: the new curve and the pre-projection area drift.

    ``n0`` is N(y0) when the caller already has it; ``stats`` (a StepStats)
    counts the ``rhs`` calls; ``coeffs`` are the step's _etd_coeffs when
    the caller already has them.  Raises StepRejected if any stage curve
    loses positivity of rho, the area drift before re-projection exceeds
    AREA_DRIFT_REJECT relative, or the area projection fails.
    """
    y0 = curve.rho_hat
    if coeffs is None:
        coeffs = _etd_coeffs(_phis_at(curve, [dt, 0.5 * dt]), dt)
    E, E2, Q, f1, f2, f3 = coeffs

    def nl(y):
        return _stage(replace(curve, rho_hat=y), stats)[0]

    nv = nl(y0) if n0 is None else n0
    a = E2 * y0 + Q * nv
    na = nl(a)
    b = E2 * y0 + Q * na
    nb = nl(b)
    c = E2 * a + Q * (2.0 * nb - nv)
    nc = nl(c)
    y1 = E * y0 + f1 * nv + 2.0 * f2 * (na + nb) + f3 * nc

    area_target = np.pi * curve.R**2
    area_raw = np.pi * (y1[0, 0] ** 2 + 0.5 * np.sum(y1[1:] ** 2))
    drift = abs(area_raw - area_target) / area_target
    if drift > AREA_DRIFT_REJECT:
        raise StepRejected(f"area drift {drift:.3e} at dt = {dt:.3e}", "area")
    try:
        new = geometry.project_area(replace(curve, rho_hat=y1))
    except NonPositiveRadius as exc:
        raise StepRejected(f"area projection failed at dt = {dt:.3e}",
                           "area") from exc
    return new, drift


def recenter(curve):
    """Move the pole to the bulk barycenter, keeping the curve fixed.

    For each node direction e(phi_i) from the new pole c, the intersection
    radius r_i solves  gamma(psi) = c + r_i e(phi_i)  for the old parameter
    psi by Newton on the cross-product equation; the new coefficients are the
    FFT of r.  Pure reparametrization: raises RecenterFail if the Newton
    solve stalls, an intersection radius is non-positive, or |c - pole| is
    not small compared to R.  Returns ``curve`` itself when the pole is
    already at the barycenter.  ``run`` does not call it: a run keeps its
    initial pole (see the module docstring).
    """
    c = geometry.barycenter_bulk(geometry.build_cache(curve))
    shift = c - curve.pole
    if np.hypot(*shift) < 1e-15 * curve.R:
        return curve
    if np.hypot(*shift) > 0.2 * curve.R:
        raise RecenterFail(f"barycenter offset {np.hypot(*shift):.3e} > 0.2 R")

    phi, cphi, sphi = geometry.node_trig(curve.M)
    psi = phi.copy()
    for _ in range(60):
        rho = geometry.eval_rho(curve, psi)
        rho_p = geometry.eval_rho(curve, psi, 1)
        gx = rho * np.cos(psi) - shift[0]
        gy = rho * np.sin(psi) - shift[1]
        # cross((gamma - c), e(phi)) = 0 aligns gamma(psi) with ray phi
        g = gx * sphi - gy * cphi
        dgx = rho_p * np.cos(psi) - rho * np.sin(psi)
        dgy = rho_p * np.sin(psi) + rho * np.cos(psi)
        dg = dgx * sphi - dgy * cphi
        delta = g / dg
        psi -= delta
        if np.max(np.abs(delta)) < 1e-13:
            break
    else:
        raise RecenterFail("ray Newton did not converge")
    rho = geometry.eval_rho(curve, psi)
    r = (rho * np.cos(psi) - shift[0]) * cphi + \
        (rho * np.sin(psi) - shift[1]) * sphi
    if np.any(r <= 0.0):
        raise RecenterFail("non-positive radius about the new pole")
    new = replace(curve, rho_hat=geometry.coeffs_from_nodes(r), pole=c)
    return geometry.project_area(new)


def initial_curve(cfg):
    """Build the initial interface from a flat config dict."""
    R, N = cfg["R"], int(cfg["N"])
    if not (0.0 < R < math.inf and 0.0 <= cfg["L"] < math.inf):
        raise ValueError(f"need finite R > 0 and L >= 0, got {R}, {cfg['L']}")
    domain = cfg["domain"]
    L = cfg["L"] if cfg["L"] > 0 else (8.0 * R if domain == "torus" else None)
    rho_hat = np.zeros((N, 2))
    rho_hat[0, 0] = R
    modes = [int(s) for s in str(cfg["modes"]).split(",") if s.strip()]
    amps = [float(s) for s in str(cfg["amps"]).split(",") if s.strip()]
    phs = [float(s) for s in str(cfg["phases"]).split(",") if s.strip()]
    if not all(map(math.isfinite, amps + phs)):
        raise ValueError(f"amps {amps} and phases {phs} must be finite")
    bad = [k for k in modes if not 1 <= k <= N - 1]
    if bad:
        raise ValueError(f"modes {bad} outside 1..{N - 1} at N = {N}")
    if len(set(modes)) != len(modes):
        raise ValueError(f"modes {modes} repeat a mode (give each once)")
    if len(amps) == 1:
        amps = amps * len(modes)
    if len(amps) != len(modes):
        raise ValueError(f"{len(amps)} amps for {len(modes)} modes "
                         "(give one, or one per mode)")
    if phs and len(phs) != len(modes):
        raise ValueError(f"{len(phs)} phases for {len(modes)} modes "
                         "(give none, or one per mode)")
    if not phs:
        rng = np.random.default_rng(int(cfg["seed"]))
        phs = list(rng.uniform(0.0, 2.0 * np.pi, len(modes)))
    for k, a, p in zip(modes, amps, phs):
        rho_hat[k, 0] = a * np.cos(p)
        rho_hat[k, 1] = a * np.sin(p)
    curve = geometry.RadialCurve(R, rho_hat, np.zeros(2), domain, L)
    return geometry.project_area(curve)


def _step_factor(err):
    """dt multiplier after a step with relative error estimate ``err``."""
    if not err < math.inf:
        return 0.2
    return min(4.0, max(0.2, 0.9 * (ERR_TOL / max(err, 1e-300)) ** 0.2))


def _error_scale(y, R):
    """The local error estimate's scale: max |y| over coefficients 1..N-1,
    floored at 1e-9 R."""
    return max(np.max(np.abs(y[1:])), 1e-9 * R)


def _start_step(curve, n0, t_end, stats):
    """The first trial step from the initial ``curve`` and its N(y0) = ``n0``
    (see the module docstring), with the start event's h0, d1, d2 and
    fallback; the probe's rhs call is counted in ``stats``."""
    unit = dt_max(curve.N, curve.R)
    y0 = curve.rho_hat
    scale = _error_scale(y0, curve.R)
    d1 = float(np.max(np.abs(n0[1:])) / scale)
    info = {"h0": None, "d1": d1, "d2": None, "fallback": True}
    if not (d1 > 0.0 and t_end > 0.0):
        return unit, info
    h0 = info["h0"] = min(0.01 / d1, t_end)
    e, p1 = _phi(linear_symbol(curve.N, curve.R), h0)[:2]
    try:
        probe = geometry.project_area(
            replace(curve, rho_hat=e * y0 + h0 * p1 * n0))
        n_p = _nonlinear(probe, stats)[0]
    except MsrelaxError:
        return unit, info
    d2 = info["d2"] = float(np.max(np.abs(n_p - n0)[1:]) / (h0 * scale))
    h1 = START_SAFETY * (0.01 * ERR_TOL / max(d1, d2)) ** 0.2
    info["fallback"] = False
    return max(unit, min(100.0 * h0, h1, t_end)), info


def _two_half_steps(curve, h, n0, stats):
    """Two ETDRK4 steps of h/2 from ``curve``, sharing N(y0) = ``n0``, and
    their error estimate against the exponential Simpson rule.

    Returns the two-half-step curve, its worst pre-projection area drift,
    the relative local error estimate of the module docstring, the
    midpoint coefficients with their N (the second half step's first
    stage), and the end's (N, cache, solve), which a run reuses for the
    next step, the step's end record and its dense output.  A non-positive
    rho at the end is a positivity reject, as at a stage.
    """
    # one _phi call: the estimate's phis at h, the half steps' at h/2, h/4
    phis = _phis_at(curve, [h, 0.5 * h, 0.25 * h])
    coeffs = _etd_coeffs([p[1:] for p in phis], 0.5 * h)
    mid, d1 = step(curve, 0.5 * h, n0, stats, coeffs)
    n_mid = _stage(mid, stats)[0]
    half, d2 = step(mid, 0.5 * h, n_mid, stats, coeffs)
    end = _stage(half, stats)
    # the quadratic through n0, n_mid and n1, integrated exactly
    e, p1, p2, p3 = (p[0] for p in phis[:4])
    dn_mid, dn1 = n_mid - n0, end[0] - n0
    q2 = 2.0 * dn1 - 4.0 * dn_mid
    simpson = e * curve.rho_hat + h * (p1 * n0 + p2 * (dn1 - q2)
                                       + 2.0 * p3 * q2)
    err = np.max(np.abs(half.rho_hat[1:] - simpson[1:])) / \
        _error_scale(half.rho_hat, curve.R)
    return half, max(d1, d2), float(err), (mid.rho_hat, n_mid), end


def run(config=None):
    """Drive the flow from a config dict (unknown keys rejected).

    Records diagnostics at t_j = j * k_out * dt_max and at the end, with H
    (potential.disk_distance, by boundary integrals on the record's nodes,
    in the curve's domain) on every ``k_H``-th record and NaN
    on the others; keeps the initial curve's pole throughout and controls
    dt by each step's exponential Simpson error estimate from a first trial
    step estimated on the initial state (see the module docstring).  Stops
    at t_end or
    after MAX_STEPS steps.  A MsrelaxError raised on the way carries the
    partial TrajectoryLog, ending in a ``fail`` event, as its ``trajectory``
    attribute.  A negative or non-finite t_end, a k_out or grid below 1 or
    a negative k_H is a ValueError, raised before any step; ``grid`` is
    validated but not read.  On the torus, 2 max rho (a bound on the
    curve's diameter) must stay below elliptic.TAIL_RADIUS * 2L, the reach
    of the lattice-tail series, else ValueError.
    """
    cfg = dict(DEFAULTS)
    for key, val in (config or {}).items():
        if key not in DEFAULTS:
            raise KeyError(f"unknown config key {key!r}")
        cfg[key] = type(DEFAULTS[key])(val)
    if int(cfg["k_out"]) < 1 or int(cfg["grid"]) < 1 or cfg["k_H"] < 0:
        raise ValueError("k_out and grid must be at least 1, k_H at least 0")
    if not 0.0 <= cfg["t_end"] < math.inf:
        raise ValueError(f"t_end must be finite and non-negative, got "
                         f"{cfg['t_end']}")
    curve = initial_curve(cfg)
    if curve.domain == "torus":
        reach = 2.0 * float(np.max(geometry.synth_nodes(curve.rho_hat)))
        bound = elliptic.TAIL_RADIUS * 2.0 * curve.L
        if reach >= bound:
            raise ValueError(
                f"curve too large for the torus cell: 2 max rho = {reach:.4g}"
                f" reaches {elliptic.TAIL_RADIUS} * 2L = {bound:.4g} at "
                f"L = {curve.L:g}")
    R = curve.R
    t_end = cfg["t_end"]

    traj = TrajectoryLog(R=R, config=dict(cfg))
    dt = unit = dt_max(curve.N, R)
    interval = int(cfg["k_out"]) * unit
    start = {"event": "start", "t": 0.0, "dt": dt, "N": curve.N,
             "domain": curve.domain}
    traj.events.append(start)
    stats = StepStats()
    t, steps, j = 0.0, 0, 1

    def end_event(event, **fields):
        return {"event": event, "t": t, "steps": steps,
                "rejects": sum(stats.rejects_by_reason.values()), **fields,
                **asdict(stats)}

    def emit(cache, solve, t_rec):
        H = float("nan")
        if cfg["k_H"] > 0 and len(traj.records) % int(cfg["k_H"]) == 0:
            H = potential.disk_distance(cache)
        traj.records.append(analysis.record(cache, solve, t_rec, H))

    stats.max_top_mode_ratio = geometry.top_mode_ratio(curve.rho_hat)
    try:
        n0, cache, solve = _nonlinear(curve, stats)
        emit(cache, solve, 0.0)
        dt, info = _start_step(curve, n0, t_end, stats)
        start.update(dt=dt, **info)
        while t < t_end and steps < MAX_STEPS:
            last = t_end - t <= dt * (1.0 + 1e-9)
            h = t_end - t if last else dt
            err = None
            try:
                new, drift, err, mid, (n1, cache, solve) = _two_half_steps(
                    curve, h, n0, stats)
                if not err <= ERR_TOL:
                    raise StepRejected(f"local error estimate {err:.3e} at "
                                       f"dt = {h:.3e}", "error")
            except StepRejected as exc:
                dt = 0.5 * h if err is None else h * _step_factor(err)
                stats.rejects_by_reason[exc.reason] += 1
                traj.events.append({"event": "reject", "t": t,
                                    "dt": dt, "reason": exc.reason,
                                    "err": err, "detail": str(exc)})
                if dt < 1e-12 * unit:
                    raise StepRejected(f"step size collapsed to {dt:.3e} "
                                       f"({exc})", exc.reason) from exc
                continue
            dt = h * _step_factor(err)
            stats.accept(h, err, drift, new.rho_hat)
            t1 = t_end if last else t + h
            times = []
            while (t_rec := j * interval) <= t1 and \
                    t_end - t_rec > 1e-9 * interval:
                times.append(t_rec)
                j += 1
            # the records strictly inside the step, from one dense output
            inside = [t_rec - t for t_rec in times if t_rec != t1]
            path = iter(dense_output(curve, h, n0, *mid, new.rho_hat, n1,
                                     inside) if inside else ())
            for t_rec in times:
                if t_rec == t1:
                    emit(cache, solve, t_rec)
                    continue
                at = geometry.project_area(replace(curve, rho_hat=next(path)))
                stats.record_rhs_calls += 1
                _, at_cache, at_solve = _nonlinear(at, stats)
                emit(at_cache, at_solve, t_rec)
            curve, n0, t, steps = new, n1, t1, steps + 1
        if traj.records[-1].t != t:   # t_end, or MAX_STEPS between records
            emit(cache, solve, t)
    except MsrelaxError as exc:
        traj.events.append(end_event(
            "fail", dt=dt, error=type(exc).__name__, message=str(exc),
            pole=curve.pole.tolist(), rho_hat=curve.rho_hat.tolist()))
        exc.trajectory = traj
        raise
    traj.events.append(end_event(
        "finish", stop="t_end" if t >= t_end else "max_steps",
        E_final=traj.records[-1].E))
    return traj
