"""The benchmark's self-test, run with the unit tests. `perfbench/spans.py`
wraps lobsad's functions by name, and its traced run times trial 1 run whole
in the calling process; a change to `src/` that breaks either fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_selftest_passes():
    # every workload at 600 rows, at --trace 0 and --trace 1; it removes what it writes
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
