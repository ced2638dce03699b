"""The benchmark's correctness gate (perfbench/selftest.py) passes on this
checkout, so a kernel change that breaks the gate fails here too."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=str(ROOT), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, (proc.stdout[-2000:], proc.stderr[-2000:])
