"""CLI: config handling, subcommands, exit codes, reproducible outputs."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from msrelax import analysis, cli, elliptic, evolution, geometry
from msrelax.errors import GridTooCoarse, HypothesisFail, OptimFail

README = Path(__file__).resolve().parents[1] / "README.md"

BASE_CFG = """\
# short mixed-mode run
N = 32
modes = 2,3
amps = 0.01,0.008
seed = 7
t_end = 3e-4
k_out = 5
k_H = 0
"""


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_python(*args, **env):
    """Run the interpreter on this msrelax in a fresh process, with the
    environment variables ``env`` set."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True,
                          env={**os.environ, **env, "PYTHONPATH": path})


def readme_table_keys(title):
    """First-column names of the table under a README heading."""
    section = README.read_text().split(title, 1)[1].split("\n#", 1)[0]
    return [ln.split("`")[1] for ln in section.splitlines()
            if ln.startswith("| `")]


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CFG)
    return str(path)


@pytest.fixture
def curve_pair(tmp_path):
    a, b = tmp_path / "a.msrc", tmp_path / "b.msrc"
    geometry.write_curve(geometry.shifted_disk_curve(1.0, 0.05), a)
    geometry.write_curve(geometry.single_mode_curve(1.0, 2, 0.05), b)
    return str(a), str(b)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def test_parse_config_comments_and_spacing(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("x = 1  # trailing\n\n  # full-line comment\ny=two\n")
    assert cli.parse_config(path) == {"x": "1", "y": "two"}


def test_parse_config_rejects_bare_tokens(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("justakey\n")
    with pytest.raises(ValueError):
        cli.parse_config(path)


def test_config_hash_stable_and_order_free():
    a = cli.config_hash({"a": "1", "b": "2"})
    b = cli.config_hash({"b": "2", "a": "1"})
    assert a == b and len(a) == 16
    assert cli.config_hash({"a": "1", "b": "3"}) != a


# ---------------------------------------------------------------------------
# simulate / report round trip
# ---------------------------------------------------------------------------

def test_simulate_outputs_and_determinism(capsys, cfg_file, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    code, msg = run_cli(capsys, "simulate", "--config", cfg_file,
                        "--out", str(out1))
    assert code == 0
    summary = json.loads(msg)
    assert summary["records"] > 3
    code, _ = run_cli(capsys, "simulate", "--config", cfg_file,
                      "--out", str(out2))
    assert code == 0
    csv1 = (out1 / "trajectory.csv").read_bytes()
    csv2 = (out2 / "trajectory.csv").read_bytes()
    assert csv1 == csv2  # byte-identical across repeated runs
    assert csv1.startswith(b"# msrelax trajectory v1 config_hash=")
    events = [json.loads(l) for l in (out1 / "run.jsonl").read_text().splitlines()]
    assert events[0]["event"] == "config"
    assert events[-1]["event"] == "finish"


def test_simulate_set_override(capsys, cfg_file, tmp_path):
    out = tmp_path / "o"
    code, msg = run_cli(capsys, "simulate", "--config", cfg_file,
                        "--out", str(out), "--set", "t_end=1e-4")
    assert code == 0
    assert abs(json.loads(msg)["t_final"] - 1e-4) < 1e-15


def test_simulate_unknown_key_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("bogus = 1\n")
    code, _ = run_cli(capsys, "simulate", "--config", str(path),
                      "--out", str(tmp_path / "o"))
    assert code == 2


@pytest.mark.parametrize("overrides", [
    ["c_cfl=0.5"],                 # a removed config key
    ["modes=40"],                  # beyond the top mode N - 1 = 31
    ["amps=0.01,0.02,0.03"],       # three amps for two modes
    ["domain=torus", "L=1"],       # no room for R = 1 in the cell
    ["R=-1"],                      # would step backwards in time
    ["R=0"],
    ["amps=nan"],
    ["grid=0", "k_H=1"],           # validated, though the flow's H needs none
    ["domain=torus", "L=-1"],      # not the 8R default
    ["unresolved_tol=1e-30"],      # a removed config key
    ["t_end=nan"],                 # would finish at once with no step
    ["t_end=inf"],                 # would never finish
    ["t_end=-1"],                  # would record t = 0 past the horizon
    ["k_H=-1"],                    # would silently act as 0
    ["modes=2,2", "amps=0.01,0.02", "phases=0,0"],  # one mode given twice
])
def test_simulate_bad_config_exits_2(capsys, cfg_file, tmp_path, overrides):
    argv = ["simulate", "--config", cfg_file, "--out", str(tmp_path / "o")]
    for item in overrides:
        argv += ["--set", item]
    code = cli.main(argv)
    assert code == 2
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_simulate_summary_counts_steps(capsys, cfg_file, tmp_path):
    out = tmp_path / "o"
    code, msg = run_cli(capsys, "simulate", "--config", cfg_file,
                        "--out", str(out))
    assert code == 0
    summary = json.loads(msg)
    events = [json.loads(ln)
              for ln in (out / "run.jsonl").read_text().splitlines()]
    start, finish = events[1], events[-1]
    assert start["event"] == "start" and not start["fallback"]
    assert summary["steps"] == finish["steps"] > 0
    assert summary["rejects"] == finish["rejects"] == sum(
        finish["rejects_by_reason"].values())
    assert finish["stop"] == "t_end"
    # the initial state and the start probe, then 8 per step tried
    assert finish["rhs_calls"] == 2 + 8 * finish["steps"] + \
        8 * finish["rejects_by_reason"]["error"] + finish["record_rhs_calls"]
    assert 0.0 < finish["dt_accepted_min"] <= finish["dt_accepted_max"]
    assert finish["max_err_estimate"] <= 1e-8
    assert 0.0 <= finish["max_top_mode_ratio"] < 1e-6


def test_simulate_failure_leaves_partial_run(capsys, cfg_file, tmp_path,
                                             monkeypatch):
    # at an abort threshold of 1e-30 rounding in the first stage already
    # puts enough into the top mode to raise Unresolved
    monkeypatch.setattr(evolution, "TOP_MODE_ABORT", 1e-30)
    out = tmp_path / "o"
    code = cli.main(["simulate", "--config", cfg_file, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert "Unresolved" in err
    records, meta = cli.read_trajectory(out / "trajectory.csv")
    assert len(records) >= 1 and records[0].t == 0.0
    events = [json.loads(l)
              for l in (out / "run.jsonl").read_text().splitlines()]
    assert events[0]["event"] == "config"
    assert events[-1]["event"] == "fail"
    assert events[-1]["error"] == "Unresolved"
    assert "top-mode" in events[-1]["message"]
    assert len(events[-1]["rho_hat"]) == 32


def test_read_trajectory_roundtrip(capsys, cfg_file, tmp_path):
    out = tmp_path / "o"
    run_cli(capsys, "simulate", "--config", cfg_file, "--out", str(out))
    records, meta = cli.read_trajectory(out / "trajectory.csv")
    assert "config_hash" in meta and float(meta["R"]) == 1.0
    assert len(records) > 3
    assert records[0].E > records[-1].E
    assert records[0].mode_amps.size == 16


@pytest.mark.parametrize("text, missing", [
    ("", "header"),
    # a run that fails at its first record leaves a header-only CSV
    ("# msrelax trajectory v1 config_hash=0 R=1\n"
     + analysis.DiagnosticsRecord.csv_header() + "\n", "records"),
], ids=["empty", "header-only"])
def test_report_empty_trajectory_exits_2(capsys, tmp_path, text, missing):
    path = tmp_path / "trajectory.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"no {missing}"):
        cli.read_trajectory(path)
    assert cli.main(["report", str(path)]) == 2
    assert str(path) in capsys.readouterr().err


def test_readme_trajectory_columns_match_csv_header():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### trajectory.csv", 1)[1].split("\n##", 1)[0]
    cols = []
    for ln in section.splitlines():
        if ln.startswith("| `"):
            names = ln.split("|")[1].split("`")[1::2]
            if len(names) == 2:   # a range `amp01` … `amp16`
                lo, hi = (int(name[3:]) for name in names)
                names = [f"amp{k:02d}" for k in range(lo, hi + 1)]
            cols += names
    assert ",".join(cols) == analysis.DiagnosticsRecord.csv_header()


def test_report_ok_and_hard_failure(capsys, cfg_file, tmp_path):
    out = tmp_path / "o"
    run_cli(capsys, "simulate", "--config", cfg_file, "--out", str(out))
    traj = out / "trajectory.csv"
    code, msg = run_cli(capsys, "report", str(traj))
    assert code == 0
    rep = json.loads(msg)
    assert rep["eed"]["eed_monotone"]
    assert rep["barycenter"]["pass"]

    # corrupt one row so E^2 D increases: hard failure, exit 1
    lines = traj.read_text().splitlines()
    head = [l for l in lines if l.startswith("#") or l.startswith("t,")]
    body = [l for l in lines if not (l.startswith("#") or l.startswith("t,"))]
    cols = body[2].split(",")
    cols[6] = repr(float(body[0].split(",")[6]) * 10.0)  # EED column
    body[2] = ",".join(cols)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(head + body) + "\n")
    code, msg = run_cli(capsys, "report", str(bad))
    assert code == 1
    assert "hard_failure" in json.loads(msg)


# ---------------------------------------------------------------------------
# checks suites
# ---------------------------------------------------------------------------

def test_checks_fast_suites(capsys):
    code, msg = run_cli(capsys, "checks", "--suite", "elliptic",
                        "--suite", "trace", "--suite", "sobolev",
                        "--n", "40", "--seed", "1")
    assert code == 0
    rep = json.loads(msg)
    assert rep["pass"]
    assert rep["suites"]["trace"]["max_abs_err"] < 1e-10
    assert rep["suites"]["elliptic"]["legendre"] < 1e-12
    ell = rep["suites"]["elliptic"]
    assert 0.0 <= ell["tail_nodes"] <= 1e-14 * max(1.0, ell["tail_scale"])


def test_checks_flow_and_embedding_suites(capsys):
    # eed, diff and bary each run a short mixed-mode flow; embed solves a
    # few random gentle curves
    code, msg = run_cli(capsys, "checks", "--suite", "eed", "--suite", "diff",
                        "--suite", "bary", "--suite", "embed", "--n", "50")
    assert code == 0
    rep = json.loads(msg)
    assert rep["pass"]
    suites = rep["suites"]
    assert suites["eed"]["worst_small_eps_err"] < 0.05
    assert suites["diff"]["max_energy_balance_err"] <= 1e-3
    assert suites["bary"]["confinement_ratio"] <= 5.0
    assert suites["embed"]["n"] >= 1


def test_checks_fuglede_and_sobolev_repeat_the_same_bytes(capsys):
    # both suites run in the calling thread from seeded generators: a
    # repeated run prints the same bytes
    argv = ("checks", "--suite", "fuglede", "--suite", "sobolev", "--n", "8",
            "--seed", "3")
    code, first = run_cli(capsys, *argv)
    assert code == 0
    code, second = run_cli(capsys, *argv)
    assert code == 0
    assert first == second


@pytest.mark.parametrize("seed", [0, 5])
def test_suite_fuglede_independent_of_block_size(monkeypatch, seed):
    n = 40
    reps = []
    for block in (1, 7, n, 128):
        monkeypatch.setattr(cli, "FUGLEDE_BLOCK", block)
        reps.append(cli._suite_fuglede(n, seed))
    assert all(rep == reps[0] for rep in reps)
    assert reps[0]["n"] == n and reps[0]["pass"]


def test_suite_fuglede_empty():
    assert cli._suite_fuglede(0, 3) == {"n": 0, "failures": 0,
                                        "min_lower_margin": 0.0, "pass": True}


def suite_fuglede_rows(monkeypatch, n, seed):
    """cli._suite_fuglede(n, seed) and, per block, what its path saw: the
    drawn AdmissibleStack and the sandwich computed from its nodes."""
    draws, reps = [], []
    draw, sandwich = geometry.random_admissible_stack, \
        analysis.check_fuglede_nodes

    def drawn(*args, **kwargs):
        draws.append(draw(*args, **kwargs))
        return draws[-1]

    def checked(*args, **kwargs):
        reps.append(sandwich(*args, **kwargs))
        return reps[-1]

    with monkeypatch.context() as m:
        m.setattr(geometry, "random_admissible_stack", drawn)
        m.setattr(analysis, "check_fuglede_nodes", checked)
        suite = cli._suite_fuglede(n, seed)
    return suite, draws, reps


def fuglede_margin_reference(rho_hat):
    """deficit - lower of the Fuglede sandwich for unit-radius (B, N, 2)
    coefficients, independently of geometry: rho and rho_phi by direct
    cos/sin sums at the M = 2N nodes in np.longdouble (no FFT), and the
    naive formulas Delta = L / (2 pi r_eq) - 1 and u = rho / r_eq - 1,
    whose cancellation costs only about 1e-19 / 1e-5 in extended
    precision."""
    ld = np.longdouble
    N = rho_hat.shape[-2]
    M = 2 * N
    pi = 4 * np.arctan(ld(1))
    k_phi = np.outer(np.arange(N, dtype=ld), 2 * pi * np.arange(M, dtype=ld)
                     / M)
    cos, sin = np.cos(k_phi), np.sin(k_phi)
    a, b = rho_hat[..., 0].astype(ld), rho_hat[..., 1].astype(ld)
    k = np.arange(N, dtype=ld)
    rho = a @ cos + b @ sin
    rho_phi = (k * b) @ cos - (k * a) @ sin
    length = np.sqrt(rho**2 + rho_phi**2).sum(axis=-1) * (2 * pi / M)
    r_eq = np.sqrt((rho**2).sum(axis=-1) / M)     # (area / pi)^(1/2)
    deficit = length / (2 * pi * r_eq) - 1
    u2 = np.mean((rho / r_eq[:, None] - 1) ** 2, axis=-1)
    up2 = np.mean((rho_phi / r_eq[:, None]) ** 2, axis=-1)
    return deficit - ld(analysis.FUGLEDE_LOWER) * (u2 + up2)


@pytest.mark.parametrize("seed", [0, 7])
def test_suite_fuglede_margin_matches_extended_precision(monkeypatch, seed):
    # the first 256 suite curves: every row's deficit - lower to 1e-13
    # relative, where forming Delta as L / (2 pi r_eq) - 1 in double
    # precision loses about 1e-11
    suite, draws, reps = suite_fuglede_rows(monkeypatch, 256, seed)
    rho_hat = np.concatenate([d.rho_hat for d in draws])
    got = np.concatenate([r["deficit"] - r["lower"] for r in reps])
    ref = fuglede_margin_reference(rho_hat)
    err = np.abs((got - ref) / ref).astype(float)
    assert np.max(err) <= 1e-13, np.max(err)
    assert suite["min_lower_margin"] == np.min(got) > 0.0


def test_suite_fuglede_synthesizes_each_block_once(monkeypatch):
    # one draw synthesis, a few projection iterates, then one polar
    # synthesis shared by the admissibility report and the sandwich
    orders = []
    synth = geometry.synth_nodes

    def counted(coef, derivative=0, M=None):
        orders.append(derivative)
        return synth(coef, derivative, M)

    monkeypatch.setattr(geometry, "synth_nodes", counted)
    suite, (draw,), (rep,) = suite_fuglede_rows(monkeypatch, 128, 0)
    monkeypatch.undo()
    assert suite["pass"]
    assert orders[0] == orders[-1] == (0, 1)
    assert 1 <= len(orders) - 2 <= 4 and set(orders[1:-1]) == {0}
    # and the shared nodes change nothing: a separate synthesis of the same
    # coefficients gives the same nodes, report and sandwich bit for bit
    rho, rho_phi = geometry.polar_nodes(draw.rho_hat)
    assert np.array_equal(draw.rho, rho)
    assert np.array_equal(draw.rho_phi, rho_phi)
    report = geometry.admissibility_report_nodes(rho, rho_phi, 1.0, 0.05)
    assert report.keys() == draw.report.keys()
    for key, value in report.items():
        assert np.array_equal(draw.report[key], value), key
    separate = analysis.check_fuglede_nodes(rho, rho_phi, report)
    assert separate.keys() == rep.keys()
    for key, value in separate.items():
        assert np.array_equal(rep[key], value), key


def test_checks_fuglede_reports_hypothesis_failure(capsys, monkeypatch):
    # one curve of the second block breaks sup|u| <= 3/40
    bad = geometry.single_mode_curve(1.0, 2, 0.09)
    with pytest.raises(HypothesisFail) as single:
        analysis.check_fuglede(bad)
    draw = geometry.random_admissible_stack
    calls = []

    def with_bad_row(rng, B, **kwargs):
        stack = draw(rng, B, **kwargs)
        calls.append(B)
        if len(calls) == 2:
            # the sandwich reads the row's nodes and report, not its
            # coefficients: replace all three
            rho_hat = stack.rho_hat.copy()
            rho_hat[3] = bad.rho_hat
            rho, rho_phi = geometry.polar_nodes(rho_hat)
            stack = geometry.AdmissibleStack(
                rho_hat, rho, rho_phi,
                geometry.admissibility_report_nodes(rho, rho_phi, 1.0))
        return stack

    monkeypatch.setattr(cli, "FUGLEDE_BLOCK", 5)
    monkeypatch.setattr(geometry, "random_admissible_stack", with_bad_row)
    code, out = run_cli(capsys, "checks", "--suite", "fuglede", "--n", "20")
    assert code == 1
    rep = json.loads(out)
    assert rep["pass"] is False
    assert rep["suites"]["fuglede"] == {
        "pass": False, "error": f"HypothesisFail: {single.value}"}
    assert calls == [5, 5]


def test_checks_unknown_suite_exits_2(capsys):
    assert cli.main(["checks", "--suite", "nope"]) == 2


def test_readme_checks_table_matches_suites():
    assert readme_table_keys("### msrelax checks") == list(cli.SUITES)


@pytest.mark.parametrize("suite, n", [("fuglede", "-3"), ("fuglede", "0"),
                                      ("sobolev", "0")])
def test_checks_rejects_nonpositive_n(capsys, suite, n):
    assert cli.main(["checks", "--suite", suite, "--n", n]) == 2
    captured = capsys.readouterr()
    assert "--n" in captured.err and captured.out == ""


# ---------------------------------------------------------------------------
# hminus / potential-table / norms
# ---------------------------------------------------------------------------

def test_hminus(capsys, curve_pair):
    # grid 32 does not resolve the 5e-2 interface band: H and the oracle warn
    with pytest.warns(GridTooCoarse):
        code, msg = run_cli(capsys, "hminus", *curve_pair, "--grid", "32")
    assert code == 0
    rep = json.loads(msg)
    assert rep["H"] > 0 and rep["grid_too_coarse"] is True
    assert rep["oracle_rel_delta"] < 0.05  # coarse-grid smoke bound
    with pytest.warns(GridTooCoarse):
        code, msg = run_cli(capsys, "hminus", *curve_pair, "--grid", "32",
                            "--no-oracle")
    rep = json.loads(msg)
    assert code == 0 and "H_oracle" not in rep and rep["grid_too_coarse"]


def test_readme_hminus_keys_match_output(capsys, curve_pair):
    with pytest.warns(GridTooCoarse):
        code, msg = run_cli(capsys, "hminus", *curve_pair, "--grid", "32")
    assert code == 0
    assert sorted(readme_table_keys("### msrelax hminus")) == \
        sorted(json.loads(msg))


@pytest.mark.parametrize("command, flag", [("hminus", "--grid"),
                                           ("potential-table", "--n")])
def test_zero_grid_sizes_exit_2(capsys, curve_pair, command, flag):
    curves = list(curve_pair) if command == "hminus" else []
    assert cli.main([command, *curves, flag, "0"]) == 2
    captured = capsys.readouterr()
    assert f"{flag}: must be at least 1" in captured.err
    assert captured.out == ""


def test_hminus_rejects_curves_in_different_domains(capsys, tmp_path):
    # a plane curve and an L = 1.5 torus curve, or two torus cells: there is
    # no shared domain to rasterize, whichever curve comes first
    plane, torus, wide = (tmp_path / f"{s}.msrc" for s in "ptw")
    geometry.write_curve(geometry.single_mode_curve(1.0, 2, 0.05), plane)
    for path, L in ((torus, 1.5), (wide, 2.0)):
        geometry.write_curve(geometry.single_mode_curve(
            1.0, 2, 0.05, domain="torus", L=L), path)
    for pair in ((plane, torus), (torus, plane), (torus, wide)):
        assert cli.main(["hminus", *map(str, pair), "--grid", "32"]) == 2
        captured = capsys.readouterr()
        assert "different domains" in captured.err and captured.out == ""


def test_hminus_coarse_grid_warns_on_stderr(curve_pair):
    # H from a 3 x 3 raster is meaningless; the GridTooCoarse warning says so
    proc = run_python("-c", "import sys; from msrelax import cli; "
                      "sys.exit(cli.main(sys.argv[1:]))",
                      "hminus", *curve_pair, "--grid", "3")
    assert proc.returncode == 0, proc.stderr
    assert "GridTooCoarse" in proc.stderr
    rep = json.loads(proc.stdout)
    assert rep["grid"] == 3 and rep["grid_too_coarse"] is True


def test_python_m_cli_runs_without_runtime_warning():
    proc = run_python("-m", "msrelax.cli", "checks", "--suite", "trace")
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert json.loads(proc.stdout)["pass"]


@pytest.mark.parametrize("text", [
    # the README config, H on every record
    "N = 64\nmodes = 2,3\namps = 0.01,0.008\nt_end = 0.004\nk_H = 1\n",
    # CI's torus config: the lattice tail in every solve
    "N = 128\ndomain = torus\nmodes = 3\namps = 1e-3\nphases = 0\n"
    "t_end = 1.5e-4\nk_out = 6\nk_H = 0\n"], ids=["readme", "torus"])
def test_simulate_same_bytes_at_any_blas_thread_count(tmp_path, text):
    # no reduction of a run is split over BLAS threads: no inversion, the
    # refinement's matrix-vector products and H's einsum reductions
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    for n in (1, 2):
        proc = run_python("-m", "msrelax.cli", "simulate", "--config",
                          str(cfg), "--out", str(tmp_path / f"out{n}"),
                          OPENBLAS_NUM_THREADS=str(n))
        assert proc.returncode == 0, proc.stderr
    for name in ("trajectory.csv", "run.jsonl"):
        assert (tmp_path / "out1" / name).read_bytes() == \
            (tmp_path / "out2" / name).read_bytes(), name


def test_import_leaves_scipy_unloaded():
    # only geometry.bonnesen_monitor needs scipy, which would more than
    # triple the import time of every command; a run needs none either
    proc = run_python("-c", "import sys, msrelax.cli; "
                      "from msrelax import evolution; "
                      "evolution.run({'N': 32, 't_end': 1e-4, 'k_out': 2}); "
                      "print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_potential_table_matches_kernel(capsys, tmp_path):
    out = tmp_path / "tab.csv"
    # even n: the midpoint grid never hits the lattice-point pole at 0
    code, _ = run_cli(capsys, "potential-table", "--L", "1.5", "--n", "4",
                      "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# msrelax potential-table v1 L=1.5 n=4"
    kern = elliptic.LatticeKernel(1.5)
    for line in lines[2:]:
        x, y, val = (float(s) for s in line.split(","))
        assert abs(elliptic.lam(kern, complex(x, y)) - val) < 1e-14


@pytest.mark.parametrize("L", ["nan", "inf"])
def test_potential_table_rejects_non_finite_L(capsys, tmp_path, L):
    out = tmp_path / "tab.csv"
    assert cli.main(["potential-table", "--L", L, "--n", "4",
                     "--out", str(out)]) == 2
    assert "finite and positive" in capsys.readouterr().err
    assert not out.exists()


def test_norms(capsys, tmp_path):
    path = tmp_path / "c.msrc"
    geometry.write_curve(geometry.single_mode_curve(1.0, 3, 0.01), path)
    code, msg = run_cli(capsys, "norms", str(path))
    assert code == 0
    rep = json.loads(msg)
    assert abs(rep["area"] - np.pi) < 1e-12
    assert rep["admissibility"]["pass"]
    assert rep["E"] > 0
    assert rep["rho_dev_h1"] > 0
    assert rep["top_mode_ratio"] == 0.0   # a mode-3 curve: top mode empty


def test_norms_monitors(capsys, tmp_path):
    # mode k at small amplitude: ||rho_phi||^2 / (R^4 ||kappa - kbar||^2)
    # -> k^2 / (k^2 - 1)^2, and the Bonnesen annulus brackets R = 1
    k, path = 3, tmp_path / "c.msrc"
    geometry.write_curve(geometry.single_mode_curve(1.0, k, 1e-4), path)
    code, msg = run_cli(capsys, "norms", str(path))
    assert code == 0
    rep = json.loads(msg)
    ratio = rep["curvature_oscillation_ratio"]
    assert abs(ratio - k**2 / (k**2 - 1) ** 2) < 1e-4
    bon = rep["bonnesen"]
    assert sorted(bon) == ["R_in", "R_out", "lhs", "rhs"]
    assert bon["lhs"] <= bon["rhs"]
    assert bon["R_in"] <= 1.0 <= bon["R_out"]


def test_norms_reports_bonnesen_failure(capsys, tmp_path, monkeypatch):
    def diverge(cache):
        raise OptimFail("annulus center search diverged")

    monkeypatch.setattr(geometry, "bonnesen_monitor", diverge)
    path = tmp_path / "c.msrc"
    geometry.write_curve(geometry.single_mode_curve(1.0, 3, 0.01), path)
    code, msg = run_cli(capsys, "norms", str(path))
    assert code == 0
    assert json.loads(msg)["bonnesen"] == {
        "error": "OptimFail: annulus center search diverged"}


@pytest.mark.parametrize("delta", ["nan", "inf", "-inf", "0", "-1"])
def test_norms_rejects_nonfinite_or_nonpositive_delta(capsys, tmp_path,
                                                      delta):
    # a sup-bound tolerance must be a finite positive number: anything else
    # is a usage error, not a report of failed (or vacuous) bounds
    path = tmp_path / "c.msrc"
    geometry.write_curve(geometry.single_mode_curve(1.0, 2, 0.05), path)
    assert cli.main(["norms", str(path), f"--delta={delta}"]) == 2
    captured = capsys.readouterr()
    assert "--delta: must be finite and positive" in captured.err
    assert captured.out == ""


def test_readme_norms_keys_match_output(capsys, tmp_path):
    path = tmp_path / "c.msrc"
    geometry.write_curve(geometry.single_mode_curve(1.0, 3, 0.01), path)
    code, msg = run_cli(capsys, "norms", str(path))
    assert code == 0
    assert sorted(readme_table_keys("### msrelax norms")) == \
        sorted(json.loads(msg))


def test_parser_built_once_and_reused_after_a_usage_error(
        capsys, curve_pair, monkeypatch):
    # a usage error (argparse's exit 2) leaves the one cached parser usable
    parsers, parse_args = [], argparse.ArgumentParser.parse_args

    def kept(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", kept)
    assert cli.main(["simulate"]) == 2
    assert "--config" in capsys.readouterr().err
    code, msg = run_cli(capsys, "norms", curve_pair[1])
    assert code == 0 and json.loads(msg)["E"] > 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]
    assert parsers[0] is cli.build_parser()


def test_missing_file_exits_2(capsys):
    assert cli.main(["norms", "/nonexistent/file.msrc"]) == 2
    assert cli.main(["simulate", "--config", "/nonexistent.cfg"]) == 2


def test_truncated_torus_header_exits_2(capsys, tmp_path):
    path = tmp_path / "short.msrc"
    path.write_text("msrc v1 16 1.0 torus 8.0 0.0\n" + "0 0\n" * 16)
    assert cli.main(["norms", str(path)]) == 2


def msrc_text(R="1", pole="0 0", a0="1", mode2="0 0"):
    """An N = 16 plane curve file: rho = a0 plus the mode-2 line."""
    rows = [f"{a0} 0", "0 0", mode2] + ["0 0"] * 13
    return f"msrc v1 16 {R} plane {pole}\n" + "\n".join(rows) + "\n"


BAD_CURVES = {
    "R-nan": msrc_text(R="nan"),
    "R-inf": msrc_text(R="inf"),
    "R-negative": msrc_text(R="-1", a0="-1"),
    "pole-nan": msrc_text(pole="nan 0"),
    "coefficient-nan": msrc_text(mode2="nan 0"),
}


def test_msrc_text_is_a_curve(capsys, tmp_path):
    path = tmp_path / "c.msrc"
    path.write_text(msrc_text(mode2="0.01 0"))
    code, msg = run_cli(capsys, "norms", str(path))
    assert code == 0 and json.loads(msg)["R"] == 1.0


@pytest.mark.parametrize("command", ["norms", "hminus"])
@pytest.mark.parametrize("text", BAD_CURVES.values(), ids=BAD_CURVES)
def test_nonfinite_or_nonpositive_curve_file_exits_2(capsys, tmp_path,
                                                     curve_pair, command,
                                                     text):
    # R must be finite and positive, the pole and coefficients finite:
    # a file that breaks this is a usage error, never a report of NaNs
    path = tmp_path / "bad.msrc"
    path.write_text(text)
    curves = [str(path)] + ([curve_pair[1]] if command == "hminus" else [])
    assert cli.main([command, *curves]) == 2
    captured = capsys.readouterr()
    assert "usage error" in captured.err and captured.out == ""
