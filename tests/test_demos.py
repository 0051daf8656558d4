import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bookfield

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_demo(name, cwd):
    # demos write their outputs into the working directory
    env = {**os.environ, "PYTHONPATH": str(Path(bookfield.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, str(DEMOS / name)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", ["01_stable_noise_basics.py", "05_snapshot_ingestion.py"])
def test_demo_runs(name, tmp_path):
    proc = run_demo(name, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_stationary_theory_demo_runs(tmp_path):
    proc = run_demo("03_stationary_theory.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "stationary_density.csv").exists()


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    # Demos 02 and 04 are too long to run here; this catches a deleted name they import.
    # Each import statement runs on its own, so a submodule resolves as it does in the demo.
    missing = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "bookfield":
            try:
                exec(ast.unparse(node), {})
            except ImportError as exc:
                missing.append(str(exc))
    assert missing == []
