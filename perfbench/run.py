"""msrelax benchmark: run one workload, or all of them, and print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds T]
        [--trace 0|1]
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the program is imported from its src/.
Each workload runs in its own process (worker.py) with the BLAS thread count
and MSRELAX_THREADS pinned before numpy is imported.  With --trace 0 the
last line of output is a JSON object with the end-to-end metrics, with
--trace 1 one with the per-layer metrics of a traced run.  --smoke runs a
short traced pass of every workload and checks that the spans nest, that
self times are >= 0 and that they sum to at most the traced wall time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up is timed in this many extra processes, plus the measured one
SETUP_PROBES = 4
DEADLINE_S = 170.0

# Which end-to-end metric a layer's self time should move, the workloads
# where that layer's share of the traced time is largest, and the ones that
# bypass it (or nearly so).
LAYER_MAP = {
    "evolution": ("wall_s", ("flow-plane-n64", "flow-torus-n128"),
                  ("checks-fuglede",)),
    "geometry": ("wall_s", ("checks-fuglede", "flow-plane-n64"),
                 ("flow-torus-n128",)),
    "potential": ("wall_s; peak_rss_mb for H",
                  ("flow-plane-n64", "simulate-h-n64"), ("checks-fuglede",)),
    "elliptic": ("wall_s", ("flow-torus-n128",), ("flow-plane-n64",)),
    "sobolev": ("wall_s", ("flow-torus-n128", "simulate-h-n64"),
                ("checks-fuglede",)),
    "analysis": ("wall_s", ("simulate-h-n64",), ("flow-plane-n64",)),
    "cli": ("wall_s", ("simulate-h-n64", "checks-fuglede"),
            ("flow-plane-n64", "flow-torus-n128")),
}


def pinned_env():
    """One BLAS thread, so pool threads plus BLAS threads stay <= nproc."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", MSRELAX_THREADS=str(min(8, nproc)))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env


def _worker(args, deadline):
    """Run worker.py to completion; its last output line is JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    proc = subprocess.run(cmd, env=pinned_env(), cwd=ROOT, text=True,
                          stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"worker {' '.join(args)} exited "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace, smoke=False):
    deadline = time.monotonic() + DEADLINE_S
    args = ["--workload", name, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace)]
    if smoke:
        args.append("--smoke")
    setups = []
    if not trace and not smoke:
        for _ in range(SETUP_PROBES):
            t0 = time.perf_counter()
            setups.append(_worker(args + ["--setup-only"], deadline)["ready"]
                          - t0)
    t0 = time.perf_counter()
    res = _worker(args, deadline)
    if setups:
        setups.append(res["ready"] - t0)
        res["metrics"]["setup_s"] = statistics.median(setups)
        res["info"]["setup_samples"] = setups
    return res


def load_spec():
    """Workload names and metric units as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ([w["name"] for w in spec["workloads"]],
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def result_line(res, units):
    """The result object; its metrics must be exactly the declared ones."""
    if set(res["metrics"]) != set(units):
        raise SystemExit("perfbench: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(res['metrics']) ^ set(units))}")
    return json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(res["metrics"].items())}})


def run_all(workloads, units, seed, seconds, trace):
    results = {}
    for name in workloads:
        res = run_workload(name, seed, seconds, trace)
        results[name] = res
        print(f"{name}: correct={res['correct']} attempted={res['attempted']}"
              f" failed={res['failed']} "
              f"failed_ratio={res['failed'] / res['attempted']:.6g}")
        for k, v in sorted(res["metrics"].items()):
            print(f"  {k} = {v:.6g} {units[k]}")
    if trace:
        print(layer_report(results))
    print(json.dumps({n: json.loads(result_line(r, units)) for n, r in
                      results.items()}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def layer_report(results):
    """Each layer's self-time share of the traced time, per workload, and
    whether the largest share falls on a workload the map names."""
    lines = ["layer self seconds per traced wall second (above 1 when pool "
             "threads overlap):",
             "  layer      " + " ".join(f"{n:>16}" for n in results)]
    for layer, (moves, dominant, _) in LAYER_MAP.items():
        shares = {n: r["metrics"][f"{layer}.self_s"]
                  / r["metrics"]["trace.wall_s"] for n, r in results.items()}
        top = max(shares, key=shares.get)
        mapped = "as mapped" if top in dominant else "NOT as mapped"
        lines.append(f"  {layer:<10} " + " ".join(
            f"{shares[n]:>16.4f}" for n in results)
            + f"   largest: {top} ({mapped}); moves {moves}")
    for metric, only in (("elliptic.lambda_tail_s", "flow-torus-n128"),
                         ("potential.squared_distance_s", "simulate-h-n64")):
        nonzero = sorted(n for n, r in results.items() if r["metrics"][metric])
        mapped = "as mapped" if nonzero == [only] else "NOT as mapped"
        lines.append(f"  {metric} non-zero on {nonzero} ({mapped})")
    return "\n".join(lines)


def main(argv=None):
    if not (ROOT / "src" / "msrelax" / "__init__.py").is_file():
        print(f"perfbench: no msrelax sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workloads, end_to_end, per_layer = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=workloads + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    units = per_layer if args.trace else end_to_end
    if args.smoke:
        ok = True
        for name in workloads:
            res = run_workload(name, args.seed, 0, 1, smoke=True)
            ok = ok and res["correct"]
            print(f"{name}: spans nest, self times >= 0 and within wall; "
                  f"correct={res['correct']}")
        return 0 if ok else 1
    if args.workload is None:
        p.error("--workload is required")
    if args.workload == "all":
        return run_all(workloads, units, args.seed, args.seconds, args.trace)
    res = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(res["info"], sort_keys=True))
    print(result_line(res, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
