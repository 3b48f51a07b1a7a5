"""The benchmark's own output checks on a short run of each workload.

oracle-wide drives ``cli.main``: each check's exit code, verdict and residual
are held to the benchmark's reference computation.  crossval-narrow draws
through every sampler and checks that each solution-set draw is symmetric,
and explore-sweep checks both explorers.  ``perfbench/run.py`` ends with one
JSON line saying whether every check passed.  The runs write only to the
git-ignored ``perfbench/_work/``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _assert_smoke_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--smoke",
         "--seconds", "2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_oracle_wide_smoke_run_is_correct():
    _assert_smoke_run_is_correct("oracle-wide")


@pytest.mark.parametrize("workload", ["crossval-narrow", "explore-sweep"])
def test_smoke_run_is_correct(workload):
    _assert_smoke_run_is_correct(workload)
