"""Smoke test of the benchmark itself; run with

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs once at a tiny size, untraced and traced, and must emit
every metric BENCHMARK.json declares for that mode, with the declared unit,
and a correct verdict. The command-line entry is checked for its result
line and for refusing to run without the library sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [entry["name"] for entry in DECLARED["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    result = harness.run(workload, seed=1, seconds=0, trace=trace, scale=0.1, out=lambda _: None)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in declared
    }


def test_declared_workloads_and_metrics_match_the_harness():
    assert {entry["name"]: entry["why"] for entry in DECLARED["workloads"]} == {
        name: workload.why for name, workload in harness.WORKLOADS.items()
    }
    declared = [entry["name"] for entry in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert declared == list(harness.END_TO_END + harness.PER_LAYER)


def test_command_prints_the_result_as_its_last_line():
    command = [sys.executable, "perfbench/run.py", "--workload", "explore", "--seed", "3"]
    completed = subprocess.run(
        command + ["--seconds", "0", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "wide", "--seed", "1"]
        + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
