"""Command-line entry point: simulate, analyze, fit, solve, compare, generate.

Subcommands
-----------
simulate       run the continuous-field model (or a baseline) and write tick
               records plus a summary
analyze        compute statistics from tick records or snapshot files
fit-mo         fit the market-order response constants to (v, flow) data
fp             tabulate the stationary return density and regime report
compare        run several models with a shared seed and emit side-by-side stats
gen-synthetic  generate synthetic snapshot/market-order files

Each model has one config schema, ``configs.reference_config(model)``: the
config.json a run of that model writes, with the values a run takes by
default.  cf configs hold the whole field model; cs and kstt run their
reference parameters on unit ticks, so their configs hold only model, steps
and seed.  simulate --config takes a JSON object laid out like that schema;
it is merged over the model's reference config (grid, stable and mo key by
key; profile specs, init_profile and activity whole), then the flags that are
set are merged over the result.  A key the model does not run, a value that is
not a finite number (an integral one for an integer) where the schema has one,
or an input file that does not exist is a usage error.  The resolved config is
validated and run, then written to config.json, so ``simulate --config
<out>/config.json`` repeats it; a run that fails writes nothing.  analyze and
compare draw their statistics from one table, ``STATISTICS``.  Exit codes: 0
success, 2 usage or validation error, 3 data error, 4 numeric failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import analyzers, configs, ingest, profiles
from .baselines import run_baseline
from .dynamics import market_order_rate, simulate
from .errors import DataError, NumericError
from .field import MarketOrderParams
from .fokker_planck import FPParams, make_grid, regime_report, stationary_density


def _input_file(path: str, what: str) -> Path:
    """``path`` as a Path, or a usage error naming it if it is not a file."""
    if not Path(path).is_file():
        raise ValueError(f"{what} file not found: {path}")
    return Path(path)


def _positive(text: str) -> float:
    """argparse type of a length or a time: a finite number > 0 (NaN fails)."""
    value = float(text)
    if not (0.0 < value < math.inf):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return value


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        cfg = json.loads(_input_file(path, "config").read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"config file must be a JSON object, got {cfg!r}")
    return cfg


def _number(value, kind: type, key: str):
    """A config value as ``kind``: a finite JSON number for a float, an integral one for an int."""
    if (type(value) not in (int, float) or not abs(value) <= sys.float_info.max  # NaN, inf, huge ints
            or not (kind is float or isinstance(value, int) or value.is_integer())):
        raise ValueError(f"config key {key!r} must be {'an integer' if kind is int else 'a finite number'}, "
                         f"got {value!r}")
    return kind(value)


def _merge(ref: dict, cfg, where: str = "") -> dict:
    """cfg over ref: sections (grid, stable, mo) merge key by key, numbers take ref's type, others replace."""
    if not isinstance(cfg, dict):
        raise ValueError(f"config {where.rstrip('.')} must be a JSON object, got {cfg!r}")
    out = dict(ref)
    for key, value in cfg.items():
        if key not in ref:
            raise ValueError(f"unknown config key {where + key!r}; valid keys: {', '.join(ref)}")
        if isinstance(ref[key], dict) and "kind" not in ref[key]:
            value = _merge(ref[key], value, f"{where}{key}.")
        elif isinstance(ref[key], (int, float)):
            value = _number(value, type(ref[key]), where + key)
        out[key] = value
    return out


def _resolve_config(cfg: dict, **flags) -> dict:
    """cfg, then the flags that are set, merged over the reference config of the run's model."""
    flags = {key: value for key, value in flags.items() if value is not None}
    model = flags.get("model", cfg.get("model", "cf"))
    return _merge(_merge(configs.reference_config(model), cfg), flags)


def _model_run(cfg: dict):
    """The run of a resolved config (see ``_resolve_config``), validated, as a call without arguments."""
    if cfg["steps"] < 1:
        raise ValueError(f"steps must be >= 1, got {cfg['steps']}")
    if cfg["model"] == "cf":
        grid = configs.GridSpec(**cfg["grid"])
        field = grid.new_field(profiles.make_profile(cfg["init_profile"]))
        tracked = np.unique(np.geomspace(1, grid.length - 1, 24).astype(int))
        return functools.partial(simulate, configs.model_params(cfg), field, steps=cfg["steps"],
                                 dt=cfg["dt"], seed=cfg["seed"], tracked_cells=tracked)
    if cfg["model"] == "cs":
        params, field = configs.cs_reference(), configs.cs_reference_field()
    else:
        params, field = configs.kstt_reference(), configs.kstt_reference_field()
    return functools.partial(run_baseline, params, field, steps=cfg["steps"],
                             seed=cfg["seed"], tracked_cells=np.arange(field.length))


def _run_summary(result, rd: analyzers.ReturnDistribution, **extra) -> dict:
    """Velocity std, the ``extra`` entries, tail exponent, tail flags and mean n0 of a run.

    The entries keep the order comparison.json has always had.
    """
    return {
        "velocity_std": float(np.std(result.velocities)),
        **extra,
        "tail_exponent": rd.tail_exponent,
        "tail_flags": rd.flags,
        "mean_n0": float(np.mean(result.n0s)),
    }


def cmd_simulate(args) -> int:
    cfg = _resolve_config(_load_config(args.config), model=args.model, steps=args.steps,
                          dt=args.dt, seed=args.seed)
    run = _model_run(cfg)
    t0 = time.perf_counter()
    result = run()
    runtime = time.perf_counter() - t0
    rd = analyzers.return_distribution(result.velocities, tau=result.dt)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(cfg, indent=2))
    if args.records:
        with open(out / "records.jsonl", "w") as fh:
            ingest.write_step_records(result, fh)
    summary = {
        "model": cfg["model"],
        "steps": cfg["steps"],
        "seed": cfg["seed"],
        "runtime_seconds": runtime,
        **_run_summary(result, rd, tail_exponent_ols=rd.tail_exponent_ols),
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2))
    print(json.dumps(summary, indent=2))
    return 0


def _frame_from_args(args) -> analyzers.SeriesFrame:
    if args.records:
        with open(_input_file(args.records, "records")) as fh:
            return ingest.read_step_records_frame(fh)
    if args.snapshots:
        report = ingest.ParseReport()
        with open(_input_file(args.snapshots, "snapshot")) as fh:
            snaps = list(ingest.parse_snapshots(fh, report))
        if report.failures:
            print(f"skipped snapshot lines: {report.summary()}", file=sys.stderr)
        mos = None
        if args.market_orders:
            with open(_input_file(args.market_orders, "market-order")) as fh:
                mos = ingest.parse_market_orders(fh)
        return ingest.build_frame(
            snaps, dt=args.dt, dx=args.dx, L=args.L, market_orders=mos
        )
    raise ValueError("provide --records or --snapshots as the frame source")


def _x_ref(frame: analyzers.SeriesFrame) -> float:
    """Reference position of the per-x statistics: the tracked bin a quarter of the way out."""
    return frame.x_bins[min(len(frame.x_bins) // 4, len(frame.x_bins) - 1)]


# name -> (file stem, compute(frame, dt), ingest writer, value column of a curve file).
# compute returns one result, or {side: result} written to <stem>_<side>.csv.
# analyzers.* and ingest.* are looked up when called, not when this is built.
STATISTICS = {
    "conditional-delta": (
        "conditional_delta",
        lambda frame, dt: analyzers.conditional_delta_distribution(frame, _x_ref(frame), dt),
        "write_histogram_family_csv", None),
    "mean-delta": ("mean_delta_slope", lambda frame, dt: analyzers.mean_delta_vs_n(frame, dt),
                   "write_curve_csv", "slope"),
    "spatial-correlation": (
        "spatial_correlation",
        lambda frame, dt: analyzers.spatial_correlation(frame, _x_ref(frame), dt),
        "write_curve_csv", "correlation"),
    "return-distribution": (
        "return_distribution",
        lambda frame, dt: analyzers.return_distribution(frame.velocities, tau=dt),
        "write_return_distribution_csv", None),
    "variance-vs-n0": ("variance_vs_n0", lambda frame, dt: analyzers.velocity_variance_vs_n0(frame),
                       "write_curve_csv", "velocity_variance"),
    "velocity-correlation": (
        "velocity_correlation", lambda frame, dt: analyzers.velocity_volume_correlation(frame, dt),
        "write_curve_csv", "correlation"),
    "rms-delta": ("rms_delta", lambda frame, dt: analyzers.rms_delta_vs_velocity(frame),
                  "write_curve_csv", "rms_delta"),
}
COMPARE_STATISTICS = ("return-distribution", "rms-delta", "velocity-correlation")


def _write_statistic(name: str, frame, dt: float, out: Path, prefix: str = ""):
    """Compute statistic ``name`` and write its files; returns (result, file names)."""
    stem, compute, writer, column = STATISTICS[name]
    result = compute(frame, dt)
    out.mkdir(parents=True, exist_ok=True)  # only once a statistic has something to write
    written = []
    for side, part in result.items() if isinstance(result, dict) else [("", result)]:
        written.append(f"{prefix}{stem}{'_' + side if side else ''}.csv")
        with open(out / written[-1], "w") as fh:
            getattr(ingest, writer)(part, fh, **({"name": column} if column else {}))
    return result, written


def cmd_analyze(args) -> int:
    wanted = [s.strip() for s in args.stats.split(",") if s.strip()] if args.stats else list(STATISTICS)
    bad = [s for s in wanted if s not in STATISTICS]
    if bad:
        raise ValueError(f"unknown statistic(s) {bad}; valid names: {', '.join(STATISTICS)}")
    frame = _frame_from_args(args)
    dt = args.lag if args.lag is not None else frame.dt_sample
    if args.lag is not None:  # a lag below the sampling interval fails before any output
        analyzers._lag_steps(frame, dt)
    out = Path(args.out)
    written = []
    for stat in wanted:
        try:
            written += _write_statistic(stat, frame, dt, out)[1]
        except DataError as exc:
            print(f"warning: {stat}: {exc}", file=sys.stderr)
    if not written:
        raise DataError("no statistic could be computed from the input frame")
    print(json.dumps({"written": written, "out": str(out)}))
    return 0


def cmd_fit_mo(args) -> int:
    frame = _frame_from_args(args)
    if frame.mo_flows is None:
        raise DataError("frame carries no market-order flows; cannot fit the response")
    rep = analyzers.fit_market_order_response(frame.velocities, frame.mo_flows, n0s=frame.n0s)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "converged": rep.converged,
        "parameters": {k: {"estimate": v[0], "stderr": v[1]} for k, v in rep.parameters.items()},
        "residual_norm": rep.residual_norm,
        "sample_count": rep.sample_count,
        "diagnostics": rep.diagnostics,
    }
    (out / "mo_fit.json").write_text(json.dumps(payload, indent=2))
    print(json.dumps(payload, indent=2))
    return 0 if rep.converged else 4


def cmd_fp(args) -> int:
    p = FPParams(k0=args.k0, k_inf=args.k_inf, k1=args.k1, v0=args.v0, n0=args.n0)
    rep = regime_report(p)
    dens = stationary_density(p, make_grid(p, points=args.points)) if rep["power_law"] else None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if dens is not None:
        flags = {k: v for k, v in vars(args).items()
                 if isinstance(v, (int, float, str, bool, type(None)))}
        with open(out / "density.csv", "w") as fh:
            ingest.write_density_csv(dens, fh, meta={"params": flags})
        rep["density_file"] = "density.csv"
        rep["normalization_check"] = dens.normalization_check
    (out / "regime_report.json").write_text(json.dumps(rep, indent=2, default=str))
    print(json.dumps(rep, indent=2, default=str))
    return 0


def cmd_compare(args) -> int:
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    if not models or any(m not in configs.MODELS for m in models):
        raise ValueError(f"--models must list models of {', '.join(configs.MODELS)}, got {args.models!r}")
    runs = {model: _model_run(_resolve_config({}, model=model, steps=args.steps, seed=args.seed))
            for model in models}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = {}
    for model, run in runs.items():
        result = run()
        frame = result.to_frame()
        results = {name: _write_statistic(name, frame, 1.0, out, prefix=f"{model}_")[0]
                   for name in COMPARE_STATISTICS}
        summary[model] = _run_summary(result, results["return-distribution"],
                                      excess_kurtosis=analyzers.excess_kurtosis(result.velocities))
    (out / "comparison.json").write_text(json.dumps(summary, indent=2))
    print(json.dumps(summary, indent=2))
    return 0


def cmd_gen_synthetic(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    # Both kinds build this snapshot path: a log-normal price walk with 12 gamma-volume levels a
    # side, one snapshot every U(0.8, 1.2) s.
    rng = np.random.default_rng(args.seed)
    price = 10_000.0
    snapshots = []
    t = 0.0
    for _ in range(args.count):
        t += float(rng.uniform(0.8, 1.2))
        price *= math.exp(rng.normal(0.0, 2e-4))
        bids = [
            (price * math.exp(-x), float(rng.gamma(2.0, 2.0)))
            for x in np.sort(rng.uniform(5e-5, 0.02, 12))
        ]
        asks = [
            (price * math.exp(x), float(rng.gamma(2.0, 2.0)))
            for x in np.sort(rng.uniform(5e-5, 0.02, 12))
        ]
        snapshots.append(ingest.SnapshotRecord(ts=t, trade_price=price, bids=bids, asks=asks))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.kind == "snapshots":
        with open(out, "w") as fh:
            ingest.write_snapshots(snapshots, fh)
    else:
        # Flows answer the path's velocity as build_frame computes it, at the snapshot times.
        p = MarketOrderParams(k0=3.0, k_inf=2.0, k1=1.5, v0=2e-4)
        ts = np.array([r.ts for r in snapshots])
        logp = np.log([r.trade_price for r in snapshots])
        velocities = np.concatenate(([0.0], np.diff(logp) / np.diff(ts)))
        flow_rng = np.random.default_rng([args.seed, 1])  # leaves the snapshot stream alone
        rows = []
        for t, v in zip(ts, velocities):
            buy, sell = market_order_rate(float(v), p)
            noise = 1.0 + 0.05 * flow_rng.standard_normal(2)
            rows.append(ingest.MarketOrderRecord(
                ts=float(t), buy_volume=max(buy * noise[0], 0.0),
                sell_volume=max(sell * noise[1], 0.0),
            ))
        with open(out, "w") as fh:
            ingest.write_market_orders(rows, fh)
    print(json.dumps({"written": str(out), "kind": args.kind, "count": args.count}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bookfield",
        description="Continuous-field order-book model: simulate, analyze, fit, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a model and write tick records + summary")
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--model", choices=configs.MODELS, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--no-records", dest="records", action="store_false",
                   help="skip writing records.jsonl, the per-tick rows (summary only)")
    p.set_defaults(func=cmd_simulate)

    frame_source = argparse.ArgumentParser(add_help=False)
    frame_source.add_argument("--records", help="records.jsonl of simulate: JSON header, hex float64 row per tick")
    frame_source.add_argument("--snapshots", help="snapshot JSONL file")
    frame_source.add_argument("--market-orders", help="market-order CSV aligned with snapshots")
    frame_source.add_argument("--dx", type=_positive, default=2e-4,
                              help="lattice spacing for snapshot gridding")
    frame_source.add_argument("--L", type=_positive, default=0.05,
                              help="lattice extent for snapshot gridding")
    frame_source.add_argument("--dt", type=_positive, default=None,
                              help="frame build interval for snapshots (default: median spacing)")

    p = sub.add_parser("analyze", parents=[frame_source],
                       help="compute statistics from records or snapshots")
    p.add_argument("--lag", type=_positive, default=None, help="lag for delta statistics")
    p.add_argument("--stats", default="", help=f"comma list of: {', '.join(STATISTICS)} (default all)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("fit-mo", parents=[frame_source], help="fit market-order response constants")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_mo)

    p = sub.add_parser("fp", help="stationary density + regime report")
    p.add_argument("--k0", type=float, required=True)
    p.add_argument("--k-inf", dest="k_inf", type=float, required=True)
    p.add_argument("--k1", type=float, required=True)
    p.add_argument("--v0", type=float, required=True)
    p.add_argument("--n0", type=float, required=True)
    p.add_argument("--points", type=int, default=2001)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fp)

    p = sub.add_parser("compare", help="side-by-side model statistics, shared seed")
    p.add_argument("--models", default="cf,cs,kstt")
    p.add_argument("--steps", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gen-synthetic", help="generate synthetic data files")
    p.add_argument("--kind", required=True, choices=["snapshots", "market-orders"])
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output file path")
    p.set_defaults(func=cmd_gen_synthetic)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
