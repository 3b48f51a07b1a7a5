"""The benchmark's own output checks on a short run.

oracle-wide is the workload that drives ``cli.main``: each check's exit code,
verdict and residual are held to the benchmark's reference computation, and
``perfbench/run.py`` ends with one JSON line saying whether every check
passed.  The run writes only to the git-ignored ``perfbench/_work/``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_oracle_wide_smoke_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-wide", "--smoke",
         "--seconds", "2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
