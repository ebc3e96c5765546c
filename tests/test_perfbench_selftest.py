"""The benchmark's self-test, run with the unit tests.

``perfbench/selftest.py`` sends a few requests of every workload through
the CLI and checks each answer apart from the program, then requires
deliberately wrong answers to be caught.  Running it here makes a CLI
change that breaks those checks fail the test suite, not a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
