"""Smoke test of the benchmark runner on its tiny configuration.

    python3 -m pytest perfbench/test_run.py

Runs every workload once untraced and once traced (structured:2 meshes, two
levels, one seed) and checks the shape of what the runner reports.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
LAYERS = ("mesh", "elements", "manufactured", "assembly", "solver", "analysis", "cli")


def run_tiny(workload, trace):
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def assert_named(metrics, spec):
    assert list(metrics) == [m["name"] for m in spec]
    for m in spec:
        value = metrics[m["name"]]["value"]
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert math.isfinite(value) and value >= 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = run_tiny(workload, 0)
    assert_named(metrics, BENCH["end_to_end"])
    families = sum(metrics[f"{k}_s"]["value"] for k in ("ntw", "specht", "morley"))
    if workload == "verify":
        # verify all is timed on top of the per-family solves.
        assert families < metrics["wall_s"]["value"]
    else:
        assert families == pytest.approx(metrics["wall_s"]["value"], rel=1e-12)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    metrics = run_tiny(workload, 1)
    assert_named(metrics, BENCH["per_layer"])
    self_times = {k: v["value"] for k, v in metrics.items() if k.endswith("self_s")}
    assert min(self_times.values()) >= 0
    assert sum(self_times[f"{layer}.self_s"] for layer in LAYERS) > 0
    assert 0.95 < metrics["trace.accounted_share"]["value"] <= 1.0
