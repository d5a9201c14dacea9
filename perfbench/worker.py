"""One msrelax benchmark workload, measured inside one process.

Started by run.py, which pins the BLAS and pool thread counts in the
environment before this process imports numpy and points PYTHONPATH at the
checkout's src/.  Usage:

    python3 perfbench/worker.py --workload NAME --seed N --seconds T
        --trace 0|1 [--setup-only] [--smoke]

It prints one JSON object as its last line of output.  With --setup-only it
stops after set-up and reports the monotonic clock at that moment, so the
parent can time the whole set-up from process start.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings
from collections import defaultdict
from pathlib import Path

import numpy as np

from msrelax import (analysis, cli, elliptic, evolution, geometry, potential,
                     sobolev)
from msrelax.errors import GridTooCoarse, MsrelaxError

import spans as sp

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
LAYERS = ("evolution", "geometry", "potential", "elliptic", "sobolev",
          "analysis", "cli")
MIN_REPS = 3
TOP_MODE_PREFIX = "top-mode relative amplitude"


class Checks:
    """Tally of every check made, passed or failed, by check name."""

    def __init__(self):
        self.tally = defaultdict(lambda: [0, 0])

    def __call__(self, name, ok, count=1):
        self.tally[name][0 if ok else 1] += count
        return ok


def _digest(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Flow:
    """``evolution.run`` to a fixed horizon plus the flow's hard checks."""

    def __init__(self, cfg, smoke_t_end, rate_mode=None):
        self.base, self.smoke_t_end = cfg, smoke_t_end
        self.rate_mode = rate_mode
        self.bytes_written = 0

    def setup(self, seed, smoke, workdir):
        self.cfg = dict(self.base, seed=seed)
        if smoke:
            self.cfg["t_end"] = self.smoke_t_end
        curve = evolution.initial_curve({**evolution.DEFAULTS, **self.cfg})
        kernel = (elliptic.LatticeKernel(curve.L)
                  if curve.domain == "torus" else None)
        evolution.rhs(curve, kernel)

    def op(self, check):
        """Returns (attempted, failed, digest) for one run."""
        try:
            traj = evolution.run(self.cfg)
        except MsrelaxError:
            check("reached_horizon", False)
            return 1, 1, None
        fin = traj.events[-1]
        ok = check("reached_horizon", fin["t"] >= self.cfg["t_end"])
        ok &= check("area_drift", fin["max_area_drift"] < 1e-9)
        try:
            rep = analysis.check_differential(traj, tol=1e-3)
            balanced = rep["n"] > 0 and rep["max_energy_balance_err"] <= 1e-3
        except MsrelaxError:
            balanced = False
        ok &= check("energy_balance", balanced)
        try:
            monotone = analysis.check_eed(traj)["eed_monotone"]
        except MsrelaxError:
            monotone = False
        ok &= check("eed_monotone", monotone)
        if self.rate_mode:
            k, R = self.rate_mode, traj.R
            rate = analysis.fit_mode_rate(traj, k)["rate"]
            ok &= check("mode_rate", abs(rate / (2 * k * (k * k - 1) / R**3)
                                         - 1.0) < 0.05)
        rows = "\n".join(r.csv_row() for r in traj.records)
        return 1, 0 if ok else 1, _digest(rows)


class Simulate:
    """``msrelax simulate`` in-process, then ``msrelax report`` on its CSV."""

    CONFIG = ("N = 64\nmodes = 2,3\namps = 0.01,0.008\nt_end = {t_end!r}\n"
              "k_H = 1\ngrid = 256\n")

    def __init__(self, t_end, smoke_t_end):
        self.t_end, self.smoke_t_end = t_end, smoke_t_end
        self.bytes_written = 0

    def setup(self, seed, smoke, workdir):
        if smoke:
            self.t_end = self.smoke_t_end
        workdir.mkdir(parents=True, exist_ok=True)
        cfg_path = workdir / "run.cfg"
        cfg_path.write_text(self.CONFIG.format(t_end=self.t_end))
        self.out = workdir / "out"
        self.argv = ["simulate", "--config", str(cfg_path), "--out",
                     str(self.out), "--set", f"seed={seed}"]
        cfg = {**evolution.DEFAULTS, **cli.parse_config(cfg_path),
               "seed": seed}
        evolution.rhs(evolution.initial_curve(
            {k: type(evolution.DEFAULTS[k])(v) for k, v in cfg.items()}))

    def op(self, check):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv)
        if not check("exit_code", code == 0):
            return 1, 1, None
        csv, events = self.out / "trajectory.csv", self.out / "run.jsonl"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["report", str(csv)])
        report = json.loads(out.getvalue())
        ok = check("report_hard_checks",
                   code == 0 and "hard_failure" not in report)
        records, _ = cli.read_trajectory(csv)
        ok &= check("h_finite_positive",
                    all(math.isfinite(r.H) and r.H > 0 for r in records))
        ok &= check("reached_horizon", records[-1].t >= self.t_end)
        data = csv.read_bytes()
        self.bytes_written = len(data) + events.stat().st_size
        return 1, 0 if ok else 1, _digest(data)


class Fuglede:
    """``cli._suite_fuglede``: independent random curves on the pool."""

    def __init__(self, n, smoke_n):
        self.n, self.smoke_n = n, smoke_n
        self.bytes_written = 0

    def setup(self, seed, smoke, workdir):
        self.seed = seed
        if smoke:
            self.n = self.smoke_n
        rng = np.random.default_rng([seed, self.n])
        analysis.check_fuglede(geometry.random_admissible(rng, delta=0.05))

    def op(self, check):
        try:
            rep = cli._suite_fuglede(self.n, self.seed)
        except MsrelaxError:
            check("sandwich", False, self.n)
            return self.n, self.n, None
        fails = rep["failures"]
        check("sandwich", True, self.n - fails)
        check("sandwich", False, fails)
        return self.n, fails, _digest(repr(rep["min_lower_margin"]))


PLANE_MODES = ",".join(str(k) for k in range(8, 17))


def make_workload(name):
    """Fixed horizons, sized so several runs fit in one measured run."""
    if name == "flow-plane-n64":
        return Flow({"N": 64, "modes": PLANE_MODES, "amps": "6.9e-4",
                     "t_end": 6e-4, "k_out": 16, "k_H": 0}, 7.5e-5)
    if name == "flow-torus-n128":
        return Flow({"N": 128, "domain": "torus", "modes": "3",
                     "amps": "1e-3", "t_end": 1e-5, "k_out": 6, "k_H": 0},
                    2.7e-6, rate_mode=3)
    if name == "simulate-h-n64":
        return Simulate(1.2e-4, 5e-5)
    if name == "checks-fuglede":
        return Fuglede(1000, 50)
    raise SystemExit(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "msrelax_threads": os.environ.get("MSRELAX_THREADS")}


def host_reference():
    """Seconds for a fixed dense solve and FFT loop that does not use
    msrelax; compare it between runs to tell host speed drift from program
    changes."""
    rng = np.random.default_rng(0)
    a = rng.random((256, 256)) + 256.0 * np.eye(256)
    t0 = time.perf_counter()
    for _ in range(50):
        np.linalg.solve(a, a[0])
        np.fft.fft2(a)
    return time.perf_counter() - t0


def run_op(op, check):
    """One operation with every warning recorded, none filtered."""
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        attempted, failed, digest = op(check)
    wall = time.perf_counter() - t0
    top = sum(1 for w in caught if issubclass(w.category, RuntimeWarning)
              and str(w.message).startswith(TOP_MODE_PREFIX))
    coarse = sum(1 for w in caught if issubclass(w.category, GridTooCoarse))
    return wall, attempted, failed, digest, {"top": top, "coarse": coarse}


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans, wall, warns, work):
    """Per-layer numbers of one traced operation."""
    selfs = sp.check_invariants(spans, wall)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[sp.NAME]].append(s)

    def calls(name):
        return len(by_name[name])

    def self_s(name):
        return sum(selfs[s[sp.ID]] for s in by_name[name])

    def ms(name):
        return [1e3 * (s[sp.END] - s[sp.START]) for s in by_name[name]]

    def computed(key):
        return sum(s[sp.WORK].get(key, 0) for s in spans if s[sp.WORK])

    steps = by_name["evolution.step"]
    accepted = sum(1 for s in steps if s[sp.ERROR] is None)
    parallel = {s[sp.ID] for s in by_name["cli._parallel"]}
    pool = {s[sp.THREAD] for s in spans if s[sp.PARENT] in parallel}
    m = {
        "evolution.steps": accepted,
        "evolution.reject_ratio": (len(steps) - accepted) / len(steps)
        if steps else 0.0,
        "evolution.rhs_calls": calls("evolution.rhs"),
        "evolution.recenter_calls": calls("evolution.recenter"),
        "evolution.recenter_s": self_s("evolution.recenter"),
        "geometry.build_cache_calls": calls("geometry.build_cache"),
        "geometry.build_cache_s": self_s("geometry.build_cache"),
        "geometry.random_admissible_s": self_s("geometry.random_admissible"),
        "geometry.top_mode_warnings": warns["top"],
        "potential.assemble_calls": calls("potential.assemble"),
        "potential.assemble_s": self_s("potential.assemble"),
        "potential.solve_s": self_s("potential.solve_ms"),
        "potential.squared_distance_calls":
            calls("potential.squared_distance"),
        "potential.squared_distance_s": self_s("potential.squared_distance"),
        "potential.squared_distance_ms_p50":
            _pct(ms("potential.squared_distance"), 50),
        "potential.grid_too_coarse_warnings": warns["coarse"],
        "potential.lu_flops": computed("lu_flops"),
        "potential.assemble_entries": computed("assemble_entries"),
        "potential.h_raster_cells": computed("h_raster_cells"),
        "elliptic.lambda_tail_calls": calls("elliptic.lambda_tail"),
        "elliptic.lambda_tail_s": self_s("elliptic.lambda_tail"),
        "sobolev.curve_norm_calls": calls("sobolev.curve_norm"),
        "sobolev.curve_norm_s": self_s("sobolev.curve_norm"),
        "analysis.record_calls": calls("analysis.record"),
        "analysis.record_s": self_s("analysis.record"),
        "analysis.record_ms_p50": _pct(ms("analysis.record"), 50),
        "analysis.check_fuglede_s": self_s("analysis.check_fuglede"),
        "cli.write_s": self_s("cli.write"),
        "cli.bytes_written": work.bytes_written,
        "cli.pool_threads": len(pool),
        "trace.spans": len(spans),
        "bench.self_s": self_s("bench.op"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(selfs[s[sp.ID]] for s in spans
                                   if s[sp.NAME].startswith(layer + "."))
    return m, ms("evolution.step")


def trace_targets():
    """Public functions wrapped in the traced run, by layer."""
    def lu(a):
        return {"lu_flops": 2.0 / 3.0 * (a["cache"].M + 1) ** 3}

    def entries(a):
        return {"assemble_entries": a["cache"].M ** 2}

    def cells(a):
        return {"h_raster_cells": (a["grid"] * a["sub"]) ** 2}

    T = evolution.TrajectoryLog
    return [
        (evolution, "run", "evolution.run", None),
        (evolution, "step", "evolution.step", None),
        (evolution, "rhs", "evolution.rhs", None),
        (evolution, "recenter", "evolution.recenter", None),
        (geometry, "build_cache", "geometry.build_cache", None),
        (geometry, "eval_rho", "geometry.eval_rho", None),
        (geometry, "random_admissible", "geometry.random_admissible", None),
        (geometry, "make_admissible", "geometry.make_admissible", None),
        (geometry, "admissibility_report", "geometry.admissibility_report",
         None),
        (sobolev, "curve_norm", "sobolev.curve_norm", None),
        (elliptic, "lambda_tail", "elliptic.lambda_tail", None),
        (potential, "assemble", "potential.assemble", entries),
        (potential, "solve_ms", "potential.solve_ms", lu),
        (potential, "dissipation", "potential.dissipation", None),
        (potential, "squared_distance", "potential.squared_distance", cells),
        (analysis, "record", "analysis.record", None),
        (analysis, "check_fuglede", "analysis.check_fuglede", None),
        (analysis, "check_differential", "analysis.check_differential", None),
        (analysis, "check_eed", "analysis.check_eed", None),
        (analysis, "fit_mode_rate", "analysis.fit_mode_rate", None),
        (analysis, "barycenter_monitor", "analysis.barycenter_monitor", None),
        (analysis, "regime_fit", "analysis.regime_fit", None),
        (cli, "main", "cli.main", None),
        (cli, "cmd_simulate", "cli.cmd_simulate", None),
        (cli, "cmd_report", "cli.cmd_report", None),
        (cli, "read_trajectory", "cli.read_trajectory", None),
        (cli, "_suite_fuglede", "cli._suite_fuglede", None),
        (cli, "_parallel", "cli._parallel", None),
        # the CLI's artifact writes go through these two methods
        (T, "write_csv", "cli.write", None),
        (T, "write_events", "cli.write", None),
    ]


def measure(work, check, seconds):
    """Untraced: repeat the operation for ``seconds``; median wall time."""
    walls, attempted, failed, digests = [], 0, 0, set()
    reference = [host_reference()]
    start = time.perf_counter()
    while True:
        wall, a, f, digest, _ = run_op(work.op, check)
        walls.append(wall)
        attempted, failed = attempted + a, failed + f
        digests.add(digest)
        elapsed = time.perf_counter() - start
        next_end = elapsed + statistics.median(walls)
        if len(walls) >= MIN_REPS and next_end > seconds:
            break
    check("repeatable", len(digests) == 1)
    reference.append(host_reference())
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics = {"wall_s": statistics.median(walls), "peak_rss_mb": rss,
               "ok_ratio": (attempted - failed) / attempted}
    return attempted, failed, metrics, {"reps": len(walls), "walls": walls,
                                        "digest": sorted(map(str, digests)),
                                        "host_reference_s": reference}


def measure_traced(work, check, seconds, name, seed, cycles=None):
    """Alternate untraced and traced operations (and, for the pool, traced
    operations on one pool thread) for ``seconds``; medians per metric."""
    kinds = ["plain", "traced"]
    if isinstance(work, Fuglede):
        kinds.append("one-thread")
    tracer = sp.Tracer()
    walls = defaultdict(list)
    per_op, step_ms, attempted, failed, digests = [], [], 0, 0, set()
    start, rep = time.perf_counter(), 0
    while True:
        for kind in kinds:
            tracer.run_id = f"{name}/{seed}/{rep}/{kind}"
            saved = os.environ.get("MSRELAX_THREADS")
            if kind == "one-thread":
                os.environ["MSRELAX_THREADS"] = "1"
            op = work.op
            if kind != "plain":
                tracer.install(trace_targets())
                tracer.install_pool(cli)
                op = tracer.wrap("bench.op", op)
            try:
                wall, a, f, digest, warns = run_op(op, check)
            finally:
                tracer.uninstall()
                if saved is not None:
                    os.environ["MSRELAX_THREADS"] = saved
            walls[kind].append(wall)
            attempted, failed = attempted + a, failed + f
            digests.add(digest)
            if kind == "traced":
                m, steps = layer_metrics(tracer.run_spans(tracer.run_id),
                                         wall, warns, work)
                per_op.append(m)
                step_ms += steps
            elif kind == "one-thread":
                sp.check_invariants(tracer.run_spans(tracer.run_id), wall)
        rep += 1
        elapsed = time.perf_counter() - start
        if cycles is not None:
            if rep >= cycles:
                break
        elif rep >= 2 and elapsed * (rep + 1) / rep > seconds:
            break
    # tracing and the pool size must not change the result
    check("repeatable", len(digests) == 1)
    metrics = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
    metrics["evolution.step_ms_p50"] = _pct(step_ms, 50)
    metrics["evolution.step_ms_p99"] = _pct(step_ms, 99)
    traced = statistics.median(walls["traced"])
    plain = statistics.median(walls["plain"])
    metrics["trace.wall_s"] = traced
    metrics["trace.overhead_s"] = traced - plain
    metrics["cli.pool_speedup"] = (
        statistics.median(walls["one-thread"]) / traced
        if walls["one-thread"] else 0.0)
    write_trace(tracer, name, seed, metrics)
    return attempted, failed, metrics, {"reps": rep, "walls": dict(walls),
                                        "digest": sorted(map(str, digests))}


def write_trace(tracer, name, seed, metrics):
    """Spans of every traced operation, one JSON object a line."""
    OUT.mkdir(exist_ok=True)
    t0 = min((s[sp.START] for s in tracer.spans), default=0.0)
    keys = ("id", "name", "start", "end", "parent", "run", "thread", "error",
            "work")
    with open(OUT / f"{name}.trace.jsonl", "w") as fh:
        fh.write(json.dumps({"workload": name, "seed": seed,
                             "env": environment(), "metrics": metrics}) + "\n")
        for s in tracer.spans:
            row = dict(zip(keys, s))
            row["start"] -= t0
            row["end"] -= t0
            fh.write(json.dumps(row) + "\n")


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    work = make_workload(args.workload)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        work.setup(args.seed, args.smoke, workdir)
        ready = time.perf_counter()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        check = Checks()
        if args.trace or args.smoke:
            attempted, failed, metrics, info = measure_traced(
                work, check, args.seconds, args.workload, args.seed,
                cycles=1 if args.smoke else None)
        else:
            attempted, failed, metrics, info = measure(work, check,
                                                       args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info.update(env=environment(), checks=dict(check.tally))
    correct = all(bad == 0 for _, bad in check.tally.values())
    print(json.dumps({"ready": ready, "correct": correct,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics, "info": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
