"""The benchmark's smoke run still passes every one of its output checks.

The benchmark checks each workload's outputs against its own reference
implementations and, for the audit reports, against committed stdout
digests; a refactor that changes a verdict or a report fails here.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_run_is_correct():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.strip()]
    results = [line for line in lines if "report" not in line]
    assert len(results) == 6  # three workloads, untraced and traced
    for result in results:
        assert result["correct"] is True and result["failed"] == 0, result
