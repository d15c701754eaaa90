"""Tiny-size run of the in-process benchmark workloads.

``bench/run.py --smoke`` runs every task kind of a workload once at small
sizes and checks each output against the benchmark's own oracles; its last
stdout line is a JSON summary.  A few seconds per workload.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["channel", "states"])
def test_bench_smoke(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--smoke", "--seed", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["failed"] == 0, proc.stderr[-2000:]
