"""Self-test of the benchmark harness at toy size.

Run from the repository root:

    python3 -m pytest -q perfbench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def one_setup_probe(monkeypatch):
    real = harness.setup_seconds
    monkeypatch.setattr(harness, "setup_seconds", lambda src: real(src, probes=1))


def _measure(workload, traced):
    return harness.measure(workload, seed=3, seconds=0.01, traced=traced,
                           sizes=workloads.TOY, root=ROOT)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_every_metric_emitted_with_its_unit(workload, traced):
    result, detail = _measure(workload, traced)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCH["per_layer"] if traced else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert detail["passes"] == 1
    if not traced:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in BENCH["end_to_end"])


def test_failed_output_check_counts_in_ops_failed_frac(monkeypatch):
    monkeypatch.setattr(workloads, "_check_simulate", lambda op, stderr: "forced failure")
    result, _ = _measure("cf_reference", traced=True)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 2
    assert result["metrics"]["ops_failed_frac"]["value"] == 1.0


def test_fp_check_rejects_a_wrong_variance(monkeypatch):
    monkeypatch.setitem(workloads.FP_VARIANCE, 1, workloads.FP_VARIANCE[1] * (1 + 1e-5))
    result, _ = _measure("fp_theory", traced=False)
    assert result["failed"] == result["attempted"] >= 1 and not result["correct"]


def test_layer_map_covers_every_per_layer_metric():
    layers = json.loads((ROOT / "perfbench" / "layer_map.json").read_text())["layers"]
    names = {w["name"] for w in BENCH["workloads"]}
    assert set(layers) == {m["name"] for m in BENCH["per_layer"]}
    for entry in layers.values():
        for target in entry["moves"] + entry["no_change"]:
            assert target.split(":")[0] in names


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cf_reference", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
