"""Each demo script runs to completion as its own process.

demos/06_full_pipeline.py is left out: it takes about 38 s, and the
acceptance tests already drive a full pipeline run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_flow_preprocessing.py", "02_autodiff_engine.py", "03_gan_oversampling.py",
         "04_residual_features.py", "05_atom_search.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]
