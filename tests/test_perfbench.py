"""Smoke test of the benchmark harness against the library as it stands:
a renamed function or attribute that perfbench looks up fails here."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["scaled-100", "suite-small", "blackbox-bounded"])
def test_perfbench_traced_run(workload):
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.01", "--trace", "1"],
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    report_line, result_line = run.stdout.splitlines()
    report, result = json.loads(report_line)["report"], json.loads(result_line)
    assert result["correct"] is True
    assert report["io_columns_match"] is True
    assert report["nondeterministic"] == []
    assert result["failed"] == 0, report["failures"]
