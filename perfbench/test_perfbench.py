"""Self-test of the benchmark at tiny size: every workload emits every metric
that BENCHMARK.json names, with its unit, and the gates catch a broken replay.

    python3 -m pytest perfbench/test_perfbench.py -q
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*extra, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--seed", "3", "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = run("--workload", workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert "speed factor" in proc.stdout and f"# {workload}: raw " in proc.stdout


def test_corrupted_replay_counts_as_failure():
    proc = run("--workload", "replay", "--corrupt", "determining-systems")
    assert proc.returncode == 1
    result = result_of(proc)
    assert not result["correct"]
    assert result["failed"] >= 1 and result["failed"] <= result["attempted"]


@pytest.mark.parametrize("workload", ["sweep", "numeric", "all"])
def test_corrupt_is_refused_outside_replay(workload):
    proc = run("--workload", workload, "--corrupt", "determining-systems")
    assert proc.returncode == 2
    assert not proc.stdout.strip()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run("--workload", WORKLOADS[0], cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
