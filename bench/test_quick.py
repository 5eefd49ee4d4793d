"""The benchmark's own test: one round of every workload with every check on.

Run from the root of the checkout with ``python3 -m pytest bench`` (about two
minutes on two cores).  It is not part of the package's test suite.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_quick_mode_passes_every_check():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--quick"],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("correct True") == 8
