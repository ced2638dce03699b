"""The walkthroughs in demos/ run to completion against the public API."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_demos_run():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    for demo in demos:
        proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=str(ROOT),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (demo.name, proc.stderr[-2000:])
