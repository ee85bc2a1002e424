"""The benchmark's own selftest: each of its answer checks accepts a right
answer and rejects a known-wrong one (a Gaussian (alpha, beta) that breaks
d2, r1 rising along a sweep, rates off by 1e-6, ...)."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "rdbench/run.py", "--selftest"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines and all(ln.startswith("ok ") for ln in lines), proc.stdout
