"""Fast checks of the benchmark itself: a tiny size of every workload runs
untraced and traced, passes its output checks and reports every declared
metric."""

import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

from racebench import run
from racebench.tracing import Tracer, layer_metrics
from racebench.workloads import TINY, WORKLOADS


def _declared(kind):
    return [m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())[kind]]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_workload_runs_and_passes_its_checks(workload, tmp_path):
    plain = run.run(workload, seed=3, seconds=0, trace=False, size=TINY, work=tmp_path)
    assert plain["errors"] == []
    summary = plain["summary"]
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    assert list(summary["metrics"]) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in summary["metrics"].values())
    assert len(plain["digest"]) == 1
    if WORKLOADS[workload].workers > 1:
        assert [op["workers"] for op in plain["ops"]][-1] == 1

    traced = run.run(workload, seed=3, seconds=0, trace=True, size=TINY, work=tmp_path)
    assert traced["errors"] == []
    assert traced["digest"] == plain["digest"]
    metrics = traced["summary"]["metrics"]
    assert list(metrics) == _declared("per_layer")
    assert all(math.isfinite(m["value"]) for m in metrics.values())
    assert metrics["cli.self_ms"]["value"] > 0 and metrics["bench.traced_wall_ms"]["value"] > 0
    assert list((tmp_path / f"{workload}-seed3-trace1").glob("spans-traced*.json.gz"))
    env = json.loads((tmp_path / f"{workload}-seed3-trace1" / "environment.json").read_text())
    assert env["seed"] == 3 and env["nproc"] >= 1 and "numba_imports" in env


def test_self_time_excludes_child_spans(tmp_path):
    tracer = Tracer()
    child = tracer.wrap("m.child", lambda: time.sleep(0.02))
    parent = tracer.wrap("m.parent", lambda: (child(), time.sleep(0.01)))
    parent()
    tracer.write(tmp_path / "spans.json.gz")
    m = layer_metrics([tmp_path / "spans.json.gz"])
    parent_ms, child_ms = ((e - s) / 1e6 for s, e in zip(tracer.starts, tracer.ends))
    assert m["m.parent.calls"][0] == m["m.child.calls"][0] == 1
    assert child_ms >= 20.0
    assert m["m.parent.self_ms"][0] == pytest.approx(parent_ms - child_ms)
    assert m["m.child.self_ms"][0] == pytest.approx(child_ms)
    assert m["m.self_ms"][0] == pytest.approx(parent_ms)


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's files, a run exits
    non-zero and prints no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "racebench", tmp_path / "racebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "racebench/run.py", "--workload", "latency", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
