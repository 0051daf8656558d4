"""The benchmark's workloads: the CLI operations one pass runs, and their output checks.

A pass is what a researcher types for one experiment.  Every operation goes
through ``bookfield.cli.main`` with an argument list, exactly as from a shell,
and writes into a directory of its own.  Each operation carries a check of
its outputs; the check runs after the timed region.

* ``cf_reference``: ``simulate --model cf --no-records`` on the reference
  config (512 cells, 24 tracked cells, dt = 1).  Stable noise dominates.
* ``baseline_pipeline``: for CS then KSTT, ``simulate`` with records and
  ``analyze`` for all statistics, then ``fit-mo`` on the KSTT records.
* ``fp_theory``: ``fp`` at k0 = 1, k_inf = 0.3, k1 = 0.25, v0 = 1 for
  n0 = 1 and 4 (converges after two density solves).  Traced passes add
  n0 = 16 (runs every grid doubling without converging); see ``FULL``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

WORKLOADS = ("cf_reference", "baseline_pipeline", "fp_theory")

# Sizes of one pass.  TOY is used by the self-test only.  ``fp_traced_n0s``
# run in traced passes only: the n0 = 16 operation is one ~14 s call, so an
# untraced run would hold one or two samples of it and its wall time would
# follow the host's speed drift rather than the program.  Traced runs still
# time it untraced (ops.fp_large_n0_s), check its output and count its solves.
FULL = {"cf_steps": 5000, "baseline_steps": 5000, "fp_n0s": (1, 4), "fp_traced_n0s": (16,)}
TOY = {"cf_steps": 300, "baseline_steps": 1500, "fp_n0s": (1,), "fp_traced_n0s": (4,)}

FP_PARAMS = {"k0": 1.0, "k_inf": 0.3, "k1": 0.25, "v0": 1.0}
# variance_given_n0 at FP_PARAMS, recorded with the package as first
# committed.  The tolerance allows last-digit drift of the quadrature and
# catches any change to the computed law.
FP_VARIANCE = {1: 0.048591270860508365, 4: 0.0016258261217543882, 16: 9.805231046405959e-05}
FP_VARIANCE_RTOL = 1e-6
# n0 at or below this converges in a couple of solves; above it the solver
# runs all its grid doublings.
FP_SMALL_N0_MAX = 8

STAT_FILES = {
    "conditional-delta": ("conditional_delta.csv",),
    "mean-delta": ("mean_delta_slope.csv",),
    "spatial-correlation": ("spatial_correlation.csv",),
    "return-distribution": ("return_distribution.csv",),
    "variance-vs-n0": ("variance_vs_n0.csv",),
    "velocity-correlation": ("velocity_correlation_bid.csv", "velocity_correlation_ask.csv"),
    "rms-delta": ("rms_delta_bid.csv", "rms_delta_ask.csv"),
}


@dataclass
class Op:
    """One CLI operation: its arguments, what it is about, and its output check.

    ``check(op, stderr)`` returns None when the outputs are right and a
    reason otherwise; it may add counts to ``op.facts``.
    """

    command: str
    argv: list[str]
    check: Callable[[Op, str], str | None]
    model: str | None = None
    n0: float | None = None
    steps: int = 0
    out: Path | None = None
    facts: dict = field(default_factory=dict)


def build_pass(workload: str, seed: int, index: int, workdir: Path, sizes: dict,
               traced: bool = False) -> list[Op]:
    """Operations of pass ``index``; the CLI seed is derived from the run seed.

    ``traced`` selects the composition of a traced run's passes, which adds
    ``sizes["fp_traced_n0s"]`` to ``fp_theory``.
    """
    op_seed = seed * 1000 + index
    if workload == "cf_reference":
        return [_simulate("cf", sizes["cf_steps"], op_seed, workdir / "cf", records=False)]
    if workload == "baseline_pipeline":
        ops = []
        for model in ("cs", "kstt"):
            sim = _simulate(model, sizes["baseline_steps"], op_seed, workdir / model, records=True)
            ops.append(sim)
            ops.append(_records_op("analyze", model, sim.out / "records.jsonl",
                                   workdir / f"{model}_stats", _check_analyze))
        ops.append(_records_op("fit-mo", "kstt", workdir / "kstt" / "records.jsonl",
                               workdir / "kstt_fit", _check_fit_mo))
        return ops
    if workload == "fp_theory":
        n0s = tuple(sizes["fp_n0s"]) + (tuple(sizes["fp_traced_n0s"]) if traced else ())
        return [_fp(n0, workdir / f"fp_n0_{n0}") for n0 in n0s]
    raise ValueError(f"unknown workload {workload!r}; valid: {', '.join(WORKLOADS)}")


def _simulate(model, steps, seed, out: Path, records: bool) -> Op:
    argv = ["simulate", "--model", model, "--steps", str(steps), "--seed", str(seed),
            "--out", str(out)]
    if not records:
        argv.append("--no-records")
    return Op("simulate", argv, _check_simulate, model=model, steps=steps, out=out)


def _records_op(command, model, records: Path, out: Path, check) -> Op:
    return Op(command, [command, "--records", str(records), "--out", str(out)], check,
              model=model, out=out)


def _fp(n0, out: Path) -> Op:
    argv = ["fp", "--k0", str(FP_PARAMS["k0"]), "--k-inf", str(FP_PARAMS["k_inf"]),
            "--k1", str(FP_PARAMS["k1"]), "--v0", str(FP_PARAMS["v0"]), "--n0", str(n0),
            "--out", str(out)]
    return Op("fp", argv, _check_fp, n0=n0, out=out)


def _check_simulate(op: Op, stderr: str) -> str | None:
    summary = json.loads((op.out / "summary.json").read_text())
    if summary.get("steps") != op.steps:
        return f"summary steps {summary.get('steps')} != {op.steps}"
    std = summary.get("velocity_std")
    if not (isinstance(std, float) and math.isfinite(std) and std > 0.0):
        return f"velocity_std {std!r} is not finite and > 0"
    if not (summary.get("mean_n0", 0.0) > 0.0):
        return f"mean_n0 {summary.get('mean_n0')!r} is not > 0"
    records = op.out / "records.jsonl"
    if "--no-records" in op.argv:
        return "records written despite --no-records" if records.exists() else None
    with open(records) as fh:
        header = json.loads(fh.readline())
        count = sum(1 for line in fh if line.strip())
    if header.get("type") != "bookfield.steprecords" or not header.get("tracked_cells"):
        return f"bad records header {header!r}"
    if count != op.steps:
        return f"{count} records for {op.steps} steps"
    op.facts["bytes_per_tick"] = records.stat().st_size / op.steps
    return None


def _check_analyze(op: Op, stderr: str) -> str | None:
    skipped = {line.split(":", 2)[1].strip() for line in stderr.splitlines()
               if line.startswith("warning: ")}
    op.facts["stats_skipped"] = len(skipped)
    for stat, files in STAT_FILES.items():
        if stat in skipped:
            continue
        for name in files:
            path = op.out / name
            if not path.exists() or path.stat().st_size == 0:
                return f"statistic {stat} not skipped but {name} not written"
    return None


def _check_fit_mo(op: Op, stderr: str) -> str | None:
    fit = json.loads((op.out / "mo_fit.json").read_text())
    return None if fit.get("converged") is True else "fit did not converge"


def _check_fp(op: Op, stderr: str) -> str | None:
    rep = json.loads((op.out / "regime_report.json").read_text())
    norm = rep.get("normalization_check")
    if norm is None or not abs(norm - 1.0) <= 1e-9:
        return f"normalization_check {norm!r} not within 1e-9 of 1"
    expected = 2.0 + 2.0 * float(op.n0) ** 2 / FP_PARAMS["k0"] ** 2
    if rep.get("tail_exponent") != expected:
        return f"tail_exponent {rep.get('tail_exponent')!r} != {expected!r}"
    ref = FP_VARIANCE[op.n0]
    var = rep.get("variance")
    if var is None or not abs(var - ref) <= FP_VARIANCE_RTOL * ref:
        return f"variance {var!r} not within {FP_VARIANCE_RTOL:g} relative of {ref!r}"
    return None
