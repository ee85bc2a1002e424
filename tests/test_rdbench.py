"""The benchmark's own selftest: each of its answer checks accepts a right
answer and rejects a known-wrong one (a Gaussian (alpha, beta) that breaks
d2, r1 rising along a sweep, rates off by 1e-6, ...), and one round of each
workload of BENCHMARK.json."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "rdbench/run.py", "--selftest"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines and all(ln.startswith("ok ") for ln in lines), proc.stdout


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_runs_one_round_correctly(workload):
    """One round of each workload, as the benchmark runs it: the library's
    names and call signatures that the benchmark uses still work."""
    proc = subprocess.run([sys.executable, "rdbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "0"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_round_of_each_workload_finds_every_wrapped_layer(workload):
    """A traced round reports as absent only the layers of the Gaussian grid,
    which the closed form replaced, and `gaussian.feasible_evals`, whose
    `_feasible` the closed-form forward solve deleted (the next benchmark
    change drops these metrics), so a rename in the program that drops
    another traced layer fails here."""
    proc = subprocess.run([sys.executable, "rdbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "0", "--trace", "1"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), proc.stdout + proc.stderr
    absent = [ln for ln in proc.stderr.splitlines() if ln.startswith("absent (")]
    assert len(absent) == 1 and absent[0].split(": ", 1)[1] == (
        "gaussian.grid_calls, gaussian.grid_ms, gaussian.refine_ms, "
        "gaussian.feasible_evals"), proc.stderr
