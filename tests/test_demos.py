import os
import subprocess
import sys
from pathlib import Path

import bookfield

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_stationary_theory_demo_runs(tmp_path):
    # the demo writes its CSV into the working directory
    env = {**os.environ, "PYTHONPATH": str(Path(bookfield.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, str(DEMOS / "03_stationary_theory.py")], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "stationary_density.csv").exists()
