"""Run a workload's passes, time them, check them and reduce them to metrics.

Untraced passes give the end-to-end metrics.  A traced run alternates an
untraced pass with a traced one on the same inputs, so that the tracing
overhead is a paired ratio, and adds direct timings of single layer calls.
"""
from __future__ import annotations

import contextlib
import io
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

from tracer import Tracer, self_seconds
from workloads import FP_SMALL_N0_MAX, FULL, build_pass

ANALYZER_FUNCTIONS = (
    "conditional_delta_distribution",
    "mean_delta_vs_n",
    "spatial_correlation",
    "return_distribution",
    "velocity_variance_vs_n0",
    "velocity_volume_correlation",
    "rms_delta_vs_velocity",
)
SUBCOMMANDS = ("simulate", "analyze", "fit-mo", "fp")
MODELS = ("cf", "cs", "kstt")
WARNING_CATEGORIES = ("RuntimeWarning", "IntegrationWarning")
SETUP_PROBES = 5
# variance_given_n0 doubles its grid at most this many times
FP_MAX_SOLVES = 24


def warm() -> None:
    """What a fresh interpreter does before a user's first operation."""
    import bookfield.cli  # noqa: F401 - importing the CLI is part of set-up
    from bookfield import configs

    configs.reference_model_params().stable.unit_cap
    configs.reference_grid().new_field(configs.reference_init_profile())
    configs.cs_reference(), configs.cs_reference_field()
    configs.kstt_reference(), configs.kstt_reference_field()


PROBE_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import harness; harness.warm(); "
    "print('ready', flush=True)"
)


def setup_seconds(src: Path, probes: int = SETUP_PROBES) -> list[float]:
    """Time ``warm`` in fresh interpreters, from spawn until each reports ready."""
    here = str(Path(__file__).resolve().parent)
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", PROBE_CODE, here, str(src)],
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


def run_op(op, tracer: Tracer | None):
    """Run one CLI operation; return (seconds, failure reason or None, warnings)."""
    from bookfield import cli

    out, err = io.StringIO(), io.StringIO()
    failure = None
    caught: Counter = Counter()
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            # count every occurrence by category, without keeping the messages
            stack.enter_context(warnings.catch_warnings())
            warnings.simplefilter("always")
            warnings.showwarning = lambda message, category, *rest: caught.update(
                (category.__name__,))
            tracer.context = {"model": op.model, "n0": op.n0, "steps": op.steps}
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        t0 = time.perf_counter()
        span = tracer.open("op:" + op.command) if tracer is not None else None
        try:
            code = cli.main(op.argv)
        except Exception as exc:  # noqa: BLE001 - an operation that raises has failed
            code = None
            failure = "raised " + "".join(traceback.format_exception_only(exc)).strip()
        finally:
            if span is not None:
                tracer.close_span(span)
            seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.context = {}
    if failure is None and code != 0:
        failure = f"exit code {code}: {err.getvalue().strip()[-300:]}"
    if failure is None:
        try:
            failure = op.check(op, err.getvalue())
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            failure = f"output check raised {exc!r}"
    return seconds, failure, caught


def run_pass(ops, tracer: Tracer | None) -> dict:
    results = []
    warns: Counter = Counter()
    for op in ops:
        seconds, failure, caught = run_op(op, tracer)
        warns.update(caught)
        if failure is not None:
            print(f"perfbench: {op.command} {op.model or op.n0}: {failure}", file=sys.stderr)
        results.append({"op": op, "seconds": seconds, "failure": failure})
    return {
        "ops": results,
        "wall": sum(r["seconds"] for r in results),
        "warnings": warns,
        "spans": tracer.take() if tracer is not None else [],
    }


def measure(workload: str, seed: int, seconds: float, traced: bool, sizes: dict,
            root: Path) -> tuple[dict, dict]:
    """Measure one workload; return the result line and a detail record."""
    src = root / "src"
    warm()
    if traced:
        direct = direct_layer_metrics(seed)
        tracer = Tracer()
    else:
        setup_times = setup_seconds(src)
    work = root / ".perfbench_work" / f"{workload}-{os.getpid()}"
    plain, traced_passes = [], []
    try:
        # Warm-up: pass 0 runs untimed, so lazy imports and first-call costs
        # stay out of the timed passes; its outputs are still checked.
        warmup = run_pass(build_pass(workload, seed, 0, work / "pass0", sizes), None)
        shutil.rmtree(work / "pass0", ignore_errors=True)
        deadline = time.perf_counter() + seconds
        index = 1
        while True:
            costs = []
            for run_traced in ((False, True) if traced else (False,)):
                pass_dir = work / f"pass{index}"
                shutil.rmtree(pass_dir, ignore_errors=True)
                ops = build_pass(workload, seed, index, pass_dir, sizes, traced)
                if run_traced:
                    install_wrappers(tracer)
                    try:
                        result = run_pass(ops, tracer)
                    finally:
                        tracer.close()
                else:
                    result = run_pass(ops, None)
                (traced_passes if run_traced else plain).append(result)
                costs.append(result["wall"])
                shutil.rmtree(pass_dir, ignore_errors=True)
            index += 1
            if time.perf_counter() + sum(costs) > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    everything = [warmup] + plain + traced_passes
    attempted = sum(len(p["ops"]) for p in everything)
    failed = sum(r["failure"] is not None for p in everything for r in p["ops"])
    detail = {"passes": len(plain), "ops": op_metrics(plain)}
    if traced:
        metrics = layer_metrics(traced_passes, plain, direct)
        metrics["ops_failed_frac"] = (failed / attempted, "fraction")
        detail["untraced_targets"] = sorted(tracer.missing)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(p["wall"] for p in plain), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        detail["setup_s_samples"] = setup_times
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    return result, detail


def _ops_of(passes, command, pred=lambda op: True):
    return [[r for r in p["ops"] if r["op"].command == command and pred(r["op"])] for p in passes]


def _median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def op_metrics(passes) -> dict:
    """Timings of whole CLI operations in untraced passes, as a user sees them."""
    out = {}
    for model in MODELS:
        rates = [r["op"].steps / r["seconds"] for ops in _ops_of(passes, "simulate",
                 lambda op, m=model: op.model == m) for r in ops]
        out[f"ops.{model}_ticks_per_s"] = (_median_or_zero(rates), "1/s")

    def per_pass(command, pred=lambda op: True):
        return _median_or_zero(sum(r["seconds"] for r in ops)
                               for ops in _ops_of(passes, command, pred) if ops)

    out["ops.analyze_s"] = (per_pass("analyze"), "s")
    out["ops.fit_mo_s"] = (per_pass("fit-mo"), "s")
    out["ops.fp_small_n0_s"] = (per_pass("fp", lambda op: op.n0 <= FP_SMALL_N0_MAX), "s")
    out["ops.fp_large_n0_s"] = (per_pass("fp", lambda op: op.n0 > FP_SMALL_N0_MAX), "s")
    return out


def install_wrappers(tracer: Tracer) -> None:
    """Wrap the public names each caller looks up, on the module it looks them in."""
    from bookfield import analyzers, baselines, cli, dynamics, fokker_planck, ingest

    def ticks_read(span, args, kwargs, result, state):
        span.attrs["steps"] = len(result.times)

    def offset_before(args, kwargs):
        fld, d = args[0], args[1]
        return fld.fractional_offset + d, fld.dx

    def shifted(span, args, kwargs, result, state):
        total, dx = state
        span.attrs["shifted"] = round((total - args[0].fractional_offset) / dx) != 0

    tracer.wrap(cli, "simulate", "dynamics.simulate")
    tracer.wrap(cli, "run_baseline", "baselines.run_baseline")
    for module in (dynamics, baselines):
        tracer.wrap(module, "shift_boundary", "field.shift_boundary",
                    before=offset_before, after=shifted)
    tracer.wrap(ingest, "write_step_records", "ingest.write_step_records")
    tracer.wrap(ingest, "read_step_records_frame", "ingest.read_step_records_frame",
                after=ticks_read)
    for name in ANALYZER_FUNCTIONS + ("fit_market_order_response",):
        tracer.wrap(analyzers, name, "analyzers." + name)
    tracer.wrap(fokker_planck, "stationary_density", "fokker_planck.stationary_density")
    tracer.wrap(cli, "stationary_density", "fokker_planck.stationary_density")
    tracer.wrap(fokker_planck, "variance_given_n0", "fokker_planck.variance_given_n0")


def direct_layer_metrics(seed: int) -> dict:
    """Time single calls of the noise and tick layers directly, outside any operation."""
    from bookfield import configs, dynamics, stable_noise

    params = configs.reference_model_params()
    grid = configs.reference_grid()
    rng = np.random.default_rng(seed)
    times, capped, total = [], 0, 0
    cap = params.stable.unit_cap * params.stable.scale
    for _ in range(400):
        t0 = time.perf_counter()
        x = stable_noise.draw(params.stable, (4, grid.length), rng)
        times.append(time.perf_counter() - t0)
        capped += int(np.count_nonzero(x >= cap))
        total += x.size
    draw_us = statistics.median(times) * 1e6

    cold = []
    for _ in range(3):
        clear = getattr(stable_noise.unit_quantile, "cache_clear", None)
        if clear is not None:
            clear()
        t0 = time.perf_counter()
        params.stable.unit_cap
        cold.append(time.perf_counter() - t0)

    field = grid.new_field(configs.reference_init_profile())
    field.fractional_offset = 0.5 * field.dx
    rng = np.random.default_rng(seed)
    v, steps = 0.0, []
    for _ in range(300):
        t0 = time.perf_counter()
        field, rec = dynamics.step(field, v, params, 1.0, rng)
        steps.append(time.perf_counter() - t0)
        v = rec.v
    return {
        "stable_noise.draw_us": (draw_us, "us"),
        "stable_noise.unit_quantile_ms": (statistics.median(cold) * 1e3, "ms"),
        "stable_noise.capped_frac": (capped / total, "fraction"),
        "dynamics.step_us": (statistics.median(steps) * 1e6, "us"),
    }


def _per_tick_us(spans, pred) -> float:
    """Time of the chosen spans per tick; a span's ticks are the steps of its operation."""
    chosen = [s for s in spans if pred(s)]
    ticks = sum(s.attrs["steps"] for s in chosen)
    return sum(s.seconds for s in chosen) / ticks * 1e6 if ticks else 0.0


def _mean_us(spans) -> float:
    return sum(s.seconds for s in spans) / len(spans) * 1e6 if spans else 0.0


def _variance_solves(spans) -> list[tuple[float, float, int]]:
    """(n0, seconds, stationary_density calls) of each variance_given_n0 span."""
    out = []
    for i, s in enumerate(spans):
        if s.name == "fokker_planck.variance_given_n0":
            calls = sum(1 for c in spans[i + 1:]
                        if c.parent == i and c.name == "fokker_planck.stationary_density")
            out.append((s.attrs["n0"], s.seconds, calls))
    return out


def layer_metrics(traced, plain, direct: dict) -> dict:
    """Per-layer metrics from traced passes, the direct timings and the paired overhead."""
    spans = [s for p in traced for s in p["spans"]]
    m = dict(direct)
    sim_us = _per_tick_us(spans, lambda s: s.name == "dynamics.simulate")
    shifts = [s for s in spans if s.name == "field.shift_boundary"]
    m["dynamics.simulate_us_per_tick"] = (sim_us, "us")
    cf_shift_us = _mean_us([s for s in shifts if s.attrs["model"] == "cf"])
    tick_self = sim_us - direct["stable_noise.draw_us"][0] - cf_shift_us if sim_us else 0.0
    m["dynamics.tick_self_us"] = (tick_self, "us")
    m["field.shift_boundary_us"] = (_mean_us(shifts), "us")
    for model in MODELS:
        mine = [s for s in shifts if s.attrs["model"] == model]
        frac = sum(s.attrs["shifted"] for s in mine) / len(mine) if mine else 0.0
        m[f"field.shift_tick_frac.{model}"] = (frac, "fraction")
    for kind in ("cs", "kstt"):
        m[f"baselines.{kind}_us_per_tick"] = (_per_tick_us(
            spans, lambda s, k=kind: s.name == "baselines.run_baseline" and s.attrs["model"] == k),
            "us")
    for metric, name in (("write", "write_step_records"), ("read", "read_step_records_frame")):
        m[f"ingest.{metric}_us_per_tick"] = (
            _per_tick_us(spans, lambda s, n="ingest." + name: s.name == n), "us")
    for model in ("cs", "kstt"):
        sizes = [r["op"].facts["bytes_per_tick"] for p in traced for r in p["ops"]
                 if r["op"].model == model and "bytes_per_tick" in r["op"].facts]
        m[f"ingest.bytes_per_tick.{model}"] = (statistics.fmean(sizes) if sizes else 0.0, "B")

    def per_pass(fn):
        return statistics.median(fn(p) for p in traced)

    for name in ANALYZER_FUNCTIONS + ("fit_market_order_response",):
        busy = per_pass(lambda p, n="analyzers." + name:
                        sum(s.seconds for s in p["spans"] if s.name == n))
        m[f"analyzers.{name}_ms"] = (busy * 1e3, "ms")
    m["analyzers.stats_skipped"] = (per_pass(
        lambda p: sum(r["op"].facts.get("stats_skipped", 0) for r in p["ops"])), "count")

    densities = [s for s in spans if s.name == "fokker_planck.stationary_density"]
    m["fokker_planck.stationary_density_ms"] = (_mean_us(densities) / 1e3, "ms")
    solves = [_variance_solves(p["spans"]) for p in traced]
    for n0 in FULL["fp_n0s"] + FULL["fp_traced_n0s"]:
        mine = [(seconds, calls) for per_pass_solves in solves
                for n, seconds, calls in per_pass_solves if n == n0]
        m[f"fokker_planck.density_calls.n0_{n0}"] = (_median_or_zero(c for _, c in mine), "count")
        m[f"fokker_planck.variance_s.n0_{n0}"] = (_median_or_zero(t for t, _ in mine), "s")
    m["fokker_planck.unconverged_solves"] = (statistics.median(
        sum(calls >= FP_MAX_SOLVES for _, _, calls in x) for x in solves), "count")

    for command in SUBCOMMANDS:
        def self_ms(p, c=command):
            ps = p["spans"]
            return sum(self_seconds(ps, i) for i, s in enumerate(ps) if s.name == "op:" + c) * 1e3
        m[f"cli.{command}.self_ms"] = (per_pass(self_ms), "ms")

    for category in WARNING_CATEGORIES:
        m[f"warnings.{category}"] = (per_pass(lambda p, c=category: p["warnings"][c]), "count")
    m["warnings.other"] = (per_pass(
        lambda p: sum(n for c, n in p["warnings"].items() if c not in WARNING_CATEGORIES)), "count")

    ratios = [t["wall"] / u["wall"] for t, u in zip(traced, plain)]
    m["trace_overhead_frac"] = (statistics.median(ratios) - 1.0, "fraction")
    m.update(op_metrics(plain))
    return m
