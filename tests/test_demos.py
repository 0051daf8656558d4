import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bookfield

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_demo(script, cwd):
    # demos write their outputs into the working directory
    env = {**os.environ, "PYTHONPATH": str(Path(bookfield.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, str(script)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", ["01_stable_noise_basics.py", "05_snapshot_ingestion.py"])
def test_demo_runs(name, tmp_path):
    proc = run_demo(DEMOS / name, tmp_path)
    assert proc.returncode == 0, proc.stderr


def run_demo_at_3000_steps(name, steps, tmp_path):
    """Run a copy of a demo whose ``STEPS = <steps>`` line is set to 3,000 ticks."""
    source = (DEMOS / name).read_text()
    assert source.count(f"STEPS = {steps}\n") == 1
    script = tmp_path / name
    script.write_text(source.replace(f"STEPS = {steps}\n", "STEPS = 3_000\n"))
    proc = run_demo(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_quartic_returns_demo_runs_when_too_short_for_a_tail_fit(tmp_path):
    # At 3,000 ticks the run keeps too few returns for the Hill and OLS fits,
    # which then give no exponents; the demo must still run to its end.
    stdout = run_demo_at_3000_steps("02_quartic_returns.py", "300_000", tmp_path)
    assert "Hill none, log-log OLS none  flags=['insufficient_samples" in stdout


def test_model_comparison_demo_prints_every_model_row(tmp_path):
    stdout = run_demo_at_3000_steps("04_model_comparison.py", "150_000", tmp_path)
    rms_table = stdout.split("rms of the total bid volume change")[1]
    rows = [line.split() for line in rms_table.splitlines()[2:]]
    assert [row[0] for row in rows] == ["cf", "cs", "kstt"]
    assert all(np.isfinite(float(ratio)) for row in rows for ratio in row[1:])


def test_stationary_theory_demo_runs(tmp_path):
    proc = run_demo(DEMOS / "03_stationary_theory.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "stationary_density.csv").exists()


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    # Every demo runs above, 02 and 04 as 3,000-tick copies; this names a deleted name a demo
    # imports without running any.
    # Each import statement runs on its own, so a submodule resolves as it does in the demo.
    missing = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "bookfield":
            try:
                exec(ast.unparse(node), {})
            except ImportError as exc:
                missing.append(str(exc))
    assert missing == []
