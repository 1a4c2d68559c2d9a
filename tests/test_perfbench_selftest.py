"""The benchmark's own tests pass against this tree.

perfbench/selftest.py is not named test_*.py, so the default collection
skips it; it checks that a real pipeline run passes every output check
(augment census and train_aug.bin included). It runs here as its own
pytest process, from the root of the checkout as it expects, and writes
only to temporary directories (about 6 s).
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "perfbench/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
