"""The package names the benchmark (perfbench/worker.py) reaches by name."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_names_resolve(monkeypatch, tmp_path):
    # the traced run wraps each (owner, attr) of trace_targets by getattr,
    # and the checks-fuglede set-up calls check_fuglede and
    # random_admissible: a renamed or deleted one breaks the benchmark
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = importlib.import_module("worker")
    targets = worker.trace_targets()
    assert targets
    for owner, attr, name, _ in targets:
        assert callable(getattr(owner, attr, None)), name
    worker.make_workload("checks-fuglede").setup(0, True, tmp_path)
