"""Cold-start guard: no command imports scipy.

Every command, ``fit-mo`` included, runs on numpy and the standard library,
and so does the noise cap of every alpha, so a fresh interpreter that imports
the CLI and runs them must load no scipy module.  A module-level scipy import
anywhere on those paths adds ~0.6 s to every command's start, and
``scipy.optimize`` ~49 MB of memory, and fails these tests.  Importing the CLI
must not load ``concurrent.futures`` either: only a CF run's noise stream
needs it, and a module-level import adds ~5 ms to every start.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import bookfield

CHILD = """
import json, sys
from pathlib import Path

import bookfield.cli
from bookfield import configs

out = Path(sys.argv[1])
configs.reference_model_params().stable.unit_cap
executor_at_start = "concurrent.futures" in sys.modules
runs = [
    ["simulate", "--model", "cf", "--steps", "50", "--no-records", "--out", str(out / "cf")],
    ["fp", "--k0", "1.0", "--k-inf", "0.3", "--k1", "0.25", "--v0", "1.0", "--n0", "4",
     "--out", str(out / "fp")],
    ["simulate", "--model", "cs", "--steps", "1000", "--seed", "3", "--out", str(out / "cs")],
    ["analyze", "--records", str(out / "cs" / "records.jsonl"), "--out", str(out / "stats")],
    ["compare", "--steps", "200", "--out", str(out / "cmp")],
    ["fit-mo", "--records", str(out / "cs" / "records.jsonl"), "--out", str(out / "fit")],
]
codes = [bookfield.cli.main(args) for args in runs]
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
print(json.dumps({"executor_at_start": executor_at_start, "codes": codes, "loaded": loaded}))
"""


ALPHA_CHILD = """
import json, sys
from pathlib import Path

import bookfield.cli

out = Path(sys.argv[1])
(out / "cfg.json").write_text(json.dumps({"stable": {"alpha": 0.7}}))
code = bookfield.cli.main(["simulate", "--model", "cf", "--config", str(out / "cfg.json"),
                           "--steps", "50", "--no-records", "--out", str(out / "cf")])
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
print(json.dumps({"code": code, "loaded": loaded}))
"""


def run_child(script: str, tmp_path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(Path(bookfield.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_no_command_at_alpha_one_half_loads_scipy(tmp_path):
    got = run_child(CHILD, tmp_path)
    assert got["executor_at_start"] is False
    assert got["codes"] == [0] * 6
    assert got["loaded"] == []


def test_cf_run_at_alpha_0_7_loads_no_scipy(tmp_path):
    got = run_child(ALPHA_CHILD, tmp_path)
    assert got["code"] == 0
    assert got["loaded"] == []
