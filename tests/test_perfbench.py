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


# io_queries and output_computations at seed 1, per system on the workloads
# of many systems (200 and 6)
COUNTS = {"scaled-100": (1987, 2105), "suite-small": (10753 / 200, 10530 / 200),
          "blackbox-bounded": (24887 / 6, 24818 / 6)}

# the report's fingerprint of every system's counts and error at seed 1: a
# shift of the counts between systems that leaves the means above unchanged
# shows here
FINGERPRINTS = {"scaled-100": "f6c80342d10718b4", "suite-small": "90068ad942f59df9",
                "blackbox-bounded": "36ac99838e1a9a57"}


@pytest.mark.parametrize("workload", COUNTS)
def test_perfbench_untraced_run(workload):
    # the run the benchmark makes, with tracing off: every learn verified, at
    # the query counts its table, label probe and equivalence oracle give
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.01", "--trace", "0"],
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    report_line, result_line = run.stdout.splitlines()
    report, result = json.loads(report_line)["report"], json.loads(result_line)
    assert result["correct"] is True
    assert result["failed"] == 0, report["failures"]
    metrics = result["metrics"]
    assert (metrics["io_queries"]["value"],
            metrics["output_computations"]["value"]) == COUNTS[workload]
    assert report["fingerprint"] == FINGERPRINTS[workload]
