"""Smoke test of the benchmark at tiny size.

Each workload runs as `bench/run.py` would in a benchmark run, at its smallest
inputs, so a package change that breaks a call the benchmark makes (a renamed
keyword such as `correlation_measure_INn(..., state=)` or
`triviality_bound(..., seed=)`) fails here instead of only in a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_runs_correct_at_tiny_size(workload):
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--tiny"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"]
    assert result["failed"] == 0


def test_benchmark_selftest_reports_no_problem():
    """`bench/selftest.py` end to end: every metric printed with its unit,
    traced counts repeating exactly, a corrupted golden caught and a checkout
    without the program refused.  It writes only under bench/.work/."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "0 problem(s)"
