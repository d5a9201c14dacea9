"""Command-line entry point.

Subcommands: simulate, checks, hminus, potential-table, norms, report.
Exit codes: 0 success, 1 hard-assertion failure, 2 usage error.

Configs are flat ``key = value`` text (unknown keys rejected); every output
carries the sha256 hash of the canonicalized config so runs are traceable.
Every suite runs in the calling thread, so its output is a function of
its arguments alone: the Fuglede suite checks its random curves as stacked
arrays, and the Sobolev suite checks its draws one after another.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import analysis, elliptic, evolution, geometry, potential, sobolev
from .errors import GridTooCoarse, HypothesisFail, MsrelaxError, OptimFail


def parse_config(path):
    cfg = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key = value")
            key, val = (s.strip() for s in line.split("=", 1))
            cfg[key] = val
    return cfg


def config_hash(cfg):
    blob = "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _parallel(tasks):
    """Run no-argument callables across a thread pool, merged in order.  No
    command calls it: it stays, with the ThreadPoolExecutor import, because
    perfbench/worker.py traces cli._parallel and swaps
    cli.ThreadPoolExecutor by name."""
    with ThreadPoolExecutor() as pool:
        futures = [pool.submit(t) for t in tasks]
        return [f.result() for f in futures]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args):
    cfg = parse_config(args.config)
    for item in args.set or []:
        key, sep, val = item.partition("=")
        if not sep:
            raise ValueError(f"--set {item!r}: expected KEY=VALUE")
        cfg[key.strip()] = val.strip()
    chash = config_hash(cfg)
    out = args.out
    try:
        traj = evolution.run(cfg)
    except MsrelaxError as exc:
        # a run that fails mid-way leaves its partial trajectory, ending in
        # a fail event
        if getattr(exc, "trajectory", None) is not None:
            _write_run(exc.trajectory, out, chash)
        raise
    _write_run(traj, out, chash)
    last, finish = traj.records[-1], traj.events[-1]
    print(json.dumps({
        "config_hash": chash,
        "records": len(traj.records),
        "t_final": last.t,
        "E_final": last.E,
        "steps": finish["steps"],
        "rejects": finish["rejects"],
        "out": out,
    }, sort_keys=True))
    return 0


def _write_run(traj, out, chash):
    os.makedirs(out, exist_ok=True)
    meta = f"# msrelax trajectory v1 config_hash={chash} R={traj.R:.17g}"
    traj.write_csv(os.path.join(out, "trajectory.csv"), meta=meta)
    traj.events.insert(0, {"event": "config", "hash": chash, **traj.config})
    traj.write_events(os.path.join(out, "run.jsonl"))


# ---------------------------------------------------------------------------
# checks suites
# ---------------------------------------------------------------------------

# Named flow configs shared by the suites below and the tests, the gate's
# refine pair and N = 128 rate runs included (these set domain and mode);
# each caller adds a seed.
RUNS = {
    "mixed23": {"N": 32, "modes": "2,3", "amps": "0.01,0.008",
                "t_end": 0.004, "k_out": 5, "k_H": 0},
    "mixed235": {"N": 32, "modes": "2,3,5", "amps": "0.01,0.008,0.005",
                 "t_end": 0.003, "k_out": 4, "k_H": 5},
    "regime32": {"N": 32, "modes": ",".join(str(k) for k in range(8, 17)),
                 "amps": "6.9e-4", "t_end": 0.15, "k_out": 2, "k_H": 0},
    "refine32": {"N": 32, "modes": "2,3", "amps": "0.02,0.01",
                 "t_end": 0.002, "k_out": 5, "k_H": 1},
    "rate128": {"N": 128, "modes": "2", "amps": "1e-3", "phases": "0",
                "t_end": 1.5e-4, "k_out": 6, "k_H": 0},
}
RUNS["regime64"] = {**RUNS["regime32"], "N": 64, "k_out": 16}
RUNS["refine64"] = {**RUNS["refine32"], "N": 64, "k_out": 40}


# curves per stacked block of the Fuglede suite: enough to amortize numpy's
# per-call cost, few enough to keep the block's arrays small
FUGLEDE_BLOCK = 128


def _suite_fuglede(n, seed):
    """Fuglede sandwich on n random admissible curves, all drawn from the one
    generator default_rng([seed, 1]) and checked in stacked blocks of
    FUGLEDE_BLOCK curves.  A block takes its curves from the stream as
    successive random_admissible calls would, so the result does not depend
    on the block size, and the first k curves of the n-curve suite are the
    k-curve suite's.  Each block synthesizes its projected curves once: the
    sandwich reads the nodes and the admissibility report that admitted
    them."""
    rng = np.random.default_rng([seed, 1])
    failures, margin = 0, []
    for start in range(0, n, FUGLEDE_BLOCK):
        draw = geometry.random_admissible_stack(
            rng, min(FUGLEDE_BLOCK, n - start), delta=0.05)
        rep = analysis.check_fuglede_nodes(draw.rho, draw.rho_phi,
                                           draw.report)
        failures += int(np.count_nonzero(~rep["pass"]))
        margin.append(np.min(rep["deficit"] - rep["lower"]))
    return {"n": n, "failures": failures,
            "min_lower_margin": float(min(margin, default=0.0)),
            "pass": failures == 0}


def _suite_eed(n, seed):
    rows = []
    for k in (2, 3, 5):
        for eps in (1e-2, 1e-3, 1e-4):
            curve = geometry.single_mode_curve(1.0, k, eps)
            cache = geometry.build_cache(curve)
            solve = potential.solve_ms(cache)
            E = geometry.isoperimetric_gap(cache)
            D = potential.dissipation(cache, solve)
            rows.append({"k": k, "eps": eps, "ratio": E / D,
                         "limit": 1.0 / (4.0 * k * (k**2 - 1))})
    worst = max(abs(r["ratio"] / r["limit"] - 1.0)
                for r in rows if r["eps"] <= 1e-3)
    traj = evolution.run({**RUNS["mixed23"], "seed": seed})
    mono = analysis.check_eed(traj, R=1.0)
    return {"family": rows, "worst_small_eps_err": worst,
            "eed_monotone": mono["eed_monotone"],
            "max_E_over_R3D": mono["max_E_over_R3D"],
            "pass": worst < 0.05 and mono["eed_monotone"]}


def _suite_diff(n, seed):
    traj = evolution.run({**RUNS["mixed235"], "seed": seed})
    rep = analysis.check_differential(traj)
    return {**rep, "pass": rep["max_energy_balance_err"] <= 1e-3}


def _suite_regime(n, seed):
    traj = evolution.run({**RUNS["regime32"], "seed": seed})
    fit = analysis.regime_fit(traj, slope_band=(-1.15, -0.85))
    ok = (abs(fit.alg_slope + 1.0) <= 0.15
          and abs(fit.exp_rate - 12.0) <= 1.2)
    return {"T1": fit.T1, "alg_slope": fit.alg_slope,
            "exp_rate": fit.exp_rate, "pass": ok}


def _suite_bary(n, seed):
    traj = evolution.run({**RUNS["mixed23"], "seed": seed, "t_end": 0.01})
    return analysis.barycenter_monitor(traj, R=1.0)


def _suite_embed(n, seed):
    out, worst = [], 0.0
    for i in range(max(n // 50, 5)):
        rng = np.random.default_rng([seed, 7, i])
        # gentle curves: the L1 curvature-oscillation hypothesis is strict
        curve = geometry.random_admissible(rng, delta=0.01, k_max=5)
        cache = geometry.build_cache(curve)
        solve = potential.solve_ms(cache)
        try:
            rep = analysis.check_improved_embedding(cache, solve)
        except HypothesisFail:
            continue
        out.append(rep)
        worst = max(worst, rep["observed"] / rep["bound"])
    return {"n": len(out), "worst_ratio_to_bound": worst,
            "pass": all(r["pass"] for r in out)}


def _suite_sobolev(n, seed):
    def one(i):
        rng = np.random.default_rng([seed, 3, i])
        K = int(rng.integers(2, 24))
        # real and imaginary parts of 2K + 1 draws, of which the last K
        # (the positive half of a conjugate-symmetric spectrum) give modes
        # 1..K; zero mean, so negative orders stay in range
        draws = rng.normal(size=(2, 2 * K + 1))
        coef = np.zeros((K + 1, 2))
        coef[1:] = draws[:, K + 1:].T
        alpha, beta = sorted(rng.uniform(-1.0, 1.5, 2))
        if beta - alpha < 0.1:
            beta = alpha + 0.1
        sigma = rng.uniform(alpha + 0.01, beta - 0.01)
        return sobolev.interpolation_check(coef, np.pi, alpha, sigma,
                                           beta)["ratio"]

    worst = max(one(i) for i in range(n))
    return {"n": n, "max_interpolation_ratio": worst,
            "pass": bool(worst <= 1.0 + 1e-10)}


def _suite_elliptic(n, seed):
    kern = elliptic.LatticeKernel(1.0)
    rng = np.random.default_rng([seed, 5])
    z = (rng.uniform(-0.9, 0.9, n // 10 + 20)
         + 1j * rng.uniform(-0.9, 0.9, n // 10 + 20))
    per = max(
        float(np.max(np.abs(elliptic.lam(kern, z + 2.0)
                            - elliptic.lam(kern, z)))),
        float(np.max(np.abs(elliptic.lam(kern, z + 2.0j)
                            - elliptic.lam(kern, z)))))
    leg = elliptic.legendre_residual(kern)
    series = np.log(np.abs(z)) + elliptic.lambda_tail(kern, z)
    ser = float(np.max(np.abs(series - elliptic.lam(kern, z))))
    # factorized node-pair tail against the elementwise series, on the
    # offsets rho e(phi) of random admissible curves from their poles,
    # scaled to reach 2 max|z| / 2L = 0.1..0.9
    tail, scale, tail_ok = 0.0, 0.0, True
    for N in (64, 128, 64, 128):
        curve = geometry.random_admissible(rng, N=N)
        rho = geometry.synth_nodes(curve.rho_hat)
        _, cphi, sphi = geometry.node_trig(curve.M)
        nodes = rho * (cphi + 1j * sphi)
        nodes *= rng.uniform(0.1, 0.9) * kern.L / np.max(np.abs(nodes))
        ref = elliptic.lambda_tail(kern, nodes[:, None] - nodes[None, :])
        err = float(np.max(np.abs(elliptic.lambda_tail_nodes(kern, nodes)
                                  - ref)))
        top = float(np.max(np.abs(ref)))
        tail, scale = max(tail, err), max(scale, top)
        tail_ok &= err <= 1e-14 * max(1.0, top)
    return {"periodicity": per, "legendre": float(leg), "series": ser,
            "tail_nodes": tail, "tail_scale": scale,
            "pass": (per <= 1e-10 and leg <= 1e-12 and ser <= 1e-11
                     and tail_ok)}


def _suite_trace(n, seed):
    rep = potential.trace_equality_disk({k: 1.0 for k in range(1, 33)})
    worst = max(max(abs(r["interior"] - np.pi * r["k"]),
                    abs(r["h_half_sq"] - np.pi * r["k"]))
                for r in rep["rows"])
    return {"max_abs_err": worst, "pass": worst <= 1e-10}


SUITES = {
    "fuglede": _suite_fuglede,
    "eed": _suite_eed,
    "diff": _suite_diff,
    "regime": _suite_regime,
    "bary": _suite_bary,
    "embed": _suite_embed,
    "sobolev": _suite_sobolev,
    "elliptic": _suite_elliptic,
    "trace": _suite_trace,
}


def cmd_checks(args):
    names = args.suite or list(SUITES)
    summary, ok = {}, True
    for name in names:
        try:
            rep = SUITES[name](args.n, args.seed)
        except MsrelaxError as exc:
            rep = {"pass": False, "error": f"{type(exc).__name__}: {exc}"}
        summary[name] = rep
        ok = ok and bool(rep["pass"])
    print(json.dumps({"suites": summary, "pass": ok}, sort_keys=True,
                     default=float))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# hminus / potential-table / norms / report
# ---------------------------------------------------------------------------

def cmd_hminus(args):
    a = geometry.read_curve(args.curve_a)
    b = geometry.read_curve(args.curve_b)
    # GridTooCoarse flags an unreliable H: marked here, and shown on stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        H = potential.squared_distance(a, grid=args.grid, other=b)
        out = {"H": H, "grid": args.grid}
        if not args.no_oracle:
            Ho = potential.squared_distance_oracle(
                a, grid=min(args.grid, 64), other=b)
            out["H_oracle"] = Ho
            out["oracle_grid"] = min(args.grid, 64)
            if args.grid <= 64:
                out["oracle_rel_delta"] = abs(H - Ho) / max(Ho, 1e-300)
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    out["grid_too_coarse"] = any(issubclass(w.category, GridTooCoarse)
                                 for w in caught)
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_potential_table(args):
    kern = elliptic.LatticeKernel(args.L)
    n = args.n
    x = -args.L + 2.0 * args.L * (np.arange(n) + 0.5) / n
    X, Y = np.meshgrid(x, x, indexing="ij")
    lam = elliptic.lam(kern, X + 1j * Y)
    dest = open(args.out, "w") if args.out else sys.stdout
    dest.write(f"# msrelax potential-table v1 L={args.L:.17g} n={n}\n")
    dest.write("x,y,lambda\n")
    for i in range(n):
        for j in range(n):
            dest.write(f"{X[i, j]:.17g},{Y[i, j]:.17g},{lam[i, j]:.17g}\n")
    if args.out:
        dest.close()
    return 0


def cmd_norms(args):
    curve = geometry.read_curve(args.curve)
    cache = geometry.build_cache(curve)
    kbar = 2.0 * np.pi / geometry.perimeter(cache)
    out = {
        "N": curve.N,
        "R": curve.R,
        "domain": curve.domain,
        "perimeter": geometry.perimeter(cache),
        "area": geometry.enclosed_area(cache),
        "E": geometry.isoperimetric_gap(cache),
        "gauss_bonnet_residual": geometry.gauss_bonnet_residual(cache),
        "admissibility": geometry.admissibility_report(curve, args.delta),
        "kappa_dev_l1": cache.quad(np.abs(cache.kappa - kbar) * cache.ell),
        "kappa_dev_l2": float(np.sqrt(
            cache.quad((cache.kappa - kbar) ** 2 * cache.ell))),
    }
    for sigma in (0.5, 1.0):
        out[f"rho_dev_h{sigma:g}"] = sobolev.curve_norm(
            cache, cache.rho - curve.R, sigma)
    out["top_mode_ratio"] = geometry.top_mode_ratio(curve.rho_hat)
    out["curvature_oscillation_ratio"] = \
        analysis.curvature_oscillation_monitor(cache)["ratio"]
    try:
        rep = geometry.bonnesen_monitor(cache)
        out["bonnesen"] = {k: rep[k] for k in ("lhs", "rhs", "R_in", "R_out")}
    except OptimFail as exc:
        out["bonnesen"] = {"error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(out, sort_keys=True, default=float))
    return 0


def _csv_value(path, ln, name, text):
    """The number ``text`` of the column or meta key ``name``, finite
    unless the column is H; else a ValueError naming path:line."""
    try:
        x = float(text)
    except ValueError:
        raise ValueError(f"{path}:{ln}: {name} = {text!r} is not a "
                         f"number") from None
    if not (math.isfinite(x) or name == "H"):
        raise ValueError(f"{path}:{ln}: {name} = {text} is not finite")
    return x


def read_trajectory(path):
    """Load a trajectory.csv back into records (each field from the column
    of its name, mode_amps from the amp columns) + metadata.  ValueError if
    it holds no header or no record, or, naming path:line, for a row of
    another length, a value _csv_value rejects (a written run is finite in
    every column but H) or a header R that is not positive."""
    meta, body = {}, []
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            if line.startswith("#"):
                for tok in line[1:].split():
                    if "=" in tok:
                        k, v = tok.split("=", 1)
                        meta[k] = v
                        if k == "R" and _csv_value(path, ln, k, v) <= 0.0:
                            raise ValueError(f"{path}:{ln}: R = {v} is not "
                                             f"positive")
            elif line.strip():
                body.append((ln, line.strip().split(",")))
    if len(body) < 2:
        raise ValueError(f"{path}: no {'records' if body else 'header'}")
    header = body[0][1]
    scalars = analysis.DiagnosticsRecord.scalar_fields()
    records = []
    for ln, row in body[1:]:
        if len(row) != len(header):
            raise ValueError(f"{path}:{ln}: {len(row)} values for "
                             f"{len(header)} columns")
        d = {h: _csv_value(path, ln, h, x) for h, x in zip(header, row)}
        records.append(analysis.DiagnosticsRecord(
            **{name: d[name] for name in scalars},
            mode_amps=np.array([d[h] for h in header if h.startswith("amp")])))
    return records, meta


def cmd_report(args):
    records, meta = read_trajectory(args.trajectory)
    R = float(meta.get("R", 1.0))
    out = {"meta": meta, "rows": len(records)}
    code = 0
    try:
        out["eed"] = analysis.check_eed(records, R=R)
        out["differential"] = analysis.check_differential(records)
    except MsrelaxError as exc:
        out["hard_failure"] = f"{type(exc).__name__}: {exc}"
        code = 1
    out["barycenter"] = analysis.barycenter_monitor(records, R=R)
    try:
        fit = analysis.regime_fit(records)
        out["regime"] = {"T1": fit.T1, "T1_over_R3": fit.T1 / R**3,
                         "alg_slope": fit.alg_slope,
                         "exp_rate": fit.exp_rate}
    except MsrelaxError as exc:
        out["regime"] = {"error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(out, sort_keys=True, default=float))
    return code


# ---------------------------------------------------------------------------

def _positive_int(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _positive_float(text):
    x = float(text)
    if not 0.0 < x < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be finite and positive, got {text}")
    return x


@functools.cache
def build_parser():
    """The CLI's argument parser, built once per process.  A subcommand
    runs the module's cmd_<name> looked up at call time, so a wrapped or
    replaced command takes effect without a new parser."""
    p = argparse.ArgumentParser(prog="msrelax")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="integrate a flow from a config file")
    s.add_argument("--config", required=True)
    s.add_argument("--out", default=".")
    s.add_argument("--set", action="append", metavar="KEY=VALUE")

    s = sub.add_parser("checks", help="run verification suites")
    s.add_argument("--suite", action="append", choices=sorted(SUITES))
    s.add_argument("--n", type=_positive_int, default=1000)
    s.add_argument("--seed", type=int, default=0)

    s = sub.add_parser("hminus", help="squared H^-1 distance of two curves")
    s.add_argument("curve_a")
    s.add_argument("curve_b")
    s.add_argument("--grid", type=_positive_int, default=256)
    s.add_argument("--no-oracle", action="store_true")

    s = sub.add_parser("potential-table",
                       help="dump the periodic kernel on a grid")
    s.add_argument("--L", type=_positive_float, default=1.0)
    s.add_argument("--n", type=_positive_int, default=64)
    s.add_argument("--out", default=None)

    s = sub.add_parser("norms", help="geometry/norm report for a curve file")
    s.add_argument("curve")
    s.add_argument("--delta", type=_positive_float, default=0.05)

    s = sub.add_parser("report", help="summarize a trajectory.csv")
    s.add_argument("trajectory")
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except MsrelaxError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
