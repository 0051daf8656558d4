import json
import math
import re

import numpy as np
import pytest

from bookfield import configs, ingest
from bookfield.baselines import run_baseline
from bookfield.cli import _excess_kurtosis, main


CONST = {"kind": "constant"}
ACTIVITY = {
    "k0_in": {**CONST, "value": 0.4},
    "k_inf_in": {**CONST, "value": 0.5},
    "k1_in": {**CONST, "value": 0.3},
    "v0_in": {"kind": "exp_decay", "amplitude": 2e-4, "length_scale": 0.1, "floor": 5e-5},
}


def run(args):
    return main(args)


def edit_row(line, change):
    """A step-record line, without its newline, whose row of floats is replaced by ``change(row)``."""
    return change(np.frombuffer(bytes.fromhex(line), "<f8")).tobytes().hex()


class TestSimulate:
    def test_deterministic_outputs(self, tmp_path):
        for name in ("a", "b"):
            code = run([
                "simulate", "--model", "cf", "--steps", "2000", "--seed", "7",
                "--out", str(tmp_path / name),
            ])
            assert code == 0
        rec_a = (tmp_path / "a" / "records.jsonl").read_bytes()
        rec_b = (tmp_path / "b" / "records.jsonl").read_bytes()
        assert rec_a == rec_b

    def test_zero_steps_is_usage_error(self, tmp_path):
        assert run(["simulate", "--steps", "0", "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()

    def test_summary_written(self, tmp_path):
        assert run(["simulate", "--steps", "1500", "--seed", "3",
                    "--out", str(tmp_path / "s")]) == 0
        summary = json.loads((tmp_path / "s" / "summary.json").read_text())
        assert summary["steps"] == 1500
        assert summary["mean_n0"] > 0
        assert (tmp_path / "s" / "config.json").exists()

    def test_velocity_outgrowing_grid_is_numeric_error(self, tmp_path, capsys):
        # Untruncated alpha = 1/2 noise eventually drives the price past half
        # the grid in one tick; that is a numeric failure, not a usage error.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stable": {"truncation_quantile": 1.0}}))
        code = run(["simulate", "--config", str(cfg), "--steps", "20000", "--seed", "1",
                    "--no-records", "--out", str(tmp_path / "t")])
        assert code == 4
        assert re.search(r"tick \d+ of 20000", capsys.readouterr().err)
        assert not (tmp_path / "t").exists()

    def test_run_too_short_for_its_summary_writes_nothing(self, tmp_path, capsys):
        # One CS tick leaves no velocity dispersion for the summary's return distribution.
        assert run(["simulate", "--model", "cs", "--steps", "1", "--out", str(tmp_path / "one")]) == 3
        assert "zero dispersion" in capsys.readouterr().err
        assert not (tmp_path / "one").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        # an integral number is an integer, and a JSON integer is a number
        cfg.write_text(json.dumps({"steps": 50, "seed": 5.0, "mo": {"k0": 1}}))
        assert run(["simulate", "--config", str(cfg), "--steps", "120",
                    "--out", str(tmp_path / "c")]) == 0
        summary = json.loads((tmp_path / "c" / "summary.json").read_text())
        assert summary["steps"] == 120  # flag wins
        resolved = json.loads((tmp_path / "c" / "config.json").read_text())
        assert resolved["mo"]["k0"] == 1.0 and type(resolved["mo"]["k0"]) is float  # config value recorded
        assert resolved["seed"] == 5 and type(resolved["seed"]) is int

    def test_baseline_dt_flag_is_usage_error(self, tmp_path, capsys):
        # cs and kstt run on unit ticks; a dt they would not use is rejected.
        assert run(["simulate", "--model", "kstt", "--dt", "0.5", "--steps", "10",
                    "--out", str(tmp_path / "k")]) == 2
        assert repr("dt") in capsys.readouterr().err
        assert not (tmp_path / "k").exists()

    @pytest.mark.parametrize("model", ["cf", "cs", "kstt"])
    def test_config_json_reproduces_the_run(self, tmp_path, model):
        config = {"model": model}
        if model == "cf":
            config.update(init_profile={**CONST, "value": 5.0}, activity=ACTIVITY)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        first, second = tmp_path / "first", tmp_path / "second"
        assert run(["simulate", "--config", str(cfg), "--steps", "300", "--seed", "3",
                    "--out", str(first)]) == 0
        assert run(["simulate", "--config", str(first / "config.json"),
                    "--out", str(second)]) == 0
        assert (first / "records.jsonl").read_bytes() == (second / "records.jsonl").read_bytes()

    @pytest.mark.parametrize("config, key", [
        ({"mo": {"k_0": 1.0}}, "mo.k_0"),
        ({"stepz": 50}, "stepz"),
        ({"sigma_in": {"kind": "constant", "valu": 1.0}}, "valu"),
        ({"activity": {k: v for k, v in ACTIVITY.items() if k != "k1_in"}}, "activity.k1_in"),
        ({"activity": {**ACTIVITY, "k2_in": {**CONST, "value": 0.3}}}, "activity.k2_in"),
        ({"model": "cs", "mo": {"k0": 99.0}, "stable": {"alpha": 0.9}}, "mo"),
        ({"activity": {"k0_in": ACTIVITY["k0_in"]}}, "activity.k_inf_in"),
        # a value of the wrong type is a usage error naming its key
        ({"steps": None}, "steps"),
        ({"n0_floor": "a"}, "n0_floor"),
        ({"stable": {"alpha": "a"}}, "stable.alpha"),
        ({"grid": {"length": None}}, "grid.length"),
        ({"steps": "50"}, "steps"),
        ({"steps": 50.9}, "steps"),
        ({"seed": 2.5}, "seed"),
        ({"steps": True}, "steps"),
        ({"grid": {"length": 64.5}}, "grid.length"),
        ({"n0_floor": True}, "n0_floor"),
        ({"n0_floor": 10**400}, "n0_floor"),
        ({"grid": {"dx": math.inf}}, "grid.dx"),
        # deleted options
        ({"noise_time_scaling": "linear"}, "noise_time_scaling"),
        ({"sigma_in": {"kind": "hump", "amplitude": 0.05, "peak_x": 0.02}}, "hump"),
        # a profile parameter must be a finite number; exp_decay's length_scale positive
        ({"sigma_in": {**CONST, "value": math.nan}}, "value"),
        ({"init_profile": {**CONST, "value": math.nan}}, "value"),
        ({"sigma_in": {"kind": "exp_decay", "amplitude": 0.05, "length_scale": 0.0}}, "length_scale"),
        ({"sigma_in": {"kind": "exp_decay", "amplitude": 0.05, "length_scale": math.nan}},
         "length_scale"),
        ({"activity": {**ACTIVITY, "k_inf_in": {**CONST, "value": math.inf}}}, "value"),
        ({"sigma_in": {**CONST, "value": "a"}}, "value"),
        # deleted options: time is in ticks, and sigma_in and sigma_out carry the noise scales
        ({"tau": 1.0}, "tau"),
        ({"stable": {"scale": 1.0}}, "stable.scale"),
    ])
    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys, config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 10, **config}))
        assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "u")]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "u").exists()


class TestAnalyze:
    @pytest.fixture()
    def records(self, tmp_path):
        out = tmp_path / "run"
        assert run(["simulate", "--steps", "4000", "--seed", "11", "--out", str(out)]) == 0
        return out / "records.jsonl"

    def test_default_runs_all_statistics(self, records, tmp_path):
        out = tmp_path / "stats"
        assert run(["analyze", "--records", str(records), "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert "spatial_correlation.csv" in names
        assert "return_distribution.csv" in names
        assert "rms_delta_bid.csv" in names
        rows = (out / "mean_delta_slope.csv").read_text().splitlines()[2:]
        assert rows and all(float(row.split(",")[2]) >= 30 for row in rows)  # fit sample counts

    def test_lag_3_runs_all_statistics(self, records, tmp_path):
        out = tmp_path / "lag3"
        assert run(["analyze", "--records", str(records), "--lag", "3", "--out", str(out)]) == 0
        assert (out / "velocity_correlation_bid.csv").exists()

    def test_unknown_statistic_is_usage_error(self, records, tmp_path, capsys):
        code = run(["analyze", "--records", str(records), "--stats", "nope",
                    "--out", str(tmp_path / "y")])
        assert code == 2
        err = capsys.readouterr().err
        assert "spatial-correlation" in err  # lists valid names

    def test_analyze_deterministic(self, records, tmp_path):
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert run(["analyze", "--records", str(records), "--stats",
                        "spatial-correlation", "--out", str(out)]) == 0
            outs.append((out / "spatial_correlation.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_missing_source_is_usage_error(self, tmp_path, capsys):
        assert run(["analyze", "--out", str(tmp_path / "z")]) == 2
        feed, missing = tmp_path / "feed.jsonl", str(tmp_path / "nope")
        assert run(["gen-synthetic", "--kind", "snapshots", "--count", "20", "--out", str(feed)]) == 0
        capsys.readouterr()
        for args in (["analyze", "--records", missing], ["analyze", "--snapshots", missing],
                     ["analyze", "--snapshots", str(feed), "--market-orders", missing],
                     ["fit-mo", "--records", missing]):
            assert run(args + ["--out", str(tmp_path / "z")]) == 2, args
            assert missing in capsys.readouterr().err
            assert not (tmp_path / "z").exists()

    def test_one_tick_frame_is_data_error(self, tmp_path, capsys):
        # No statistic has two samples to work with; none may warn or write an all-NaN table.
        result = run_baseline(configs.cs_reference(), configs.cs_reference_field(), steps=1, seed=1)
        records = tmp_path / "records.jsonl"
        with open(records, "w") as fh:
            ingest.write_step_records(result, fh)
        out = tmp_path / "one"
        assert run(["analyze", "--records", str(records), "--out", str(out)]) == 3
        assert "no statistic could be computed" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("source, flags", [
        ("records", ["--lag", "inf"]),
        ("records", ["--lag", "nan"]),
        ("records", ["--lag", "0.2"]),  # below the 1-tick sampling interval
        ("snapshots", ["--L", "inf"]),
    ], ids=["lag-inf", "lag-nan", "lag-below-sampling", "L-inf"])
    def test_bad_lag_or_grid_flag_is_usage_error(self, tmp_path, source, flags):
        path = tmp_path / source
        if source == "records":
            result = run_baseline(configs.cs_reference(), configs.cs_reference_field(),
                                  steps=50, seed=1)
            with open(path, "w") as fh:
                ingest.write_step_records(result, fh)
        else:
            assert run(["gen-synthetic", "--kind", "snapshots", "--count", "50",
                        "--out", str(path)]) == 0
        out = tmp_path / "bad"
        assert run(["analyze", f"--{source}", str(path), *flags, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("change", [
        lambda line: line[: len(line) // 2],
        # seven per-tick numbers, then as many bid as ask cells
        lambda line: edit_row(line, lambda r: np.r_[r[:7], r[7 + (len(r) - 7) // 2 :]]),
        lambda line: edit_row(line, lambda r: np.r_[r[:7], r[8:]]),
        lambda line: edit_row(line, lambda r: np.r_[r[0] - 1.0, r[1:]]),
    ], ids=["truncated", "no-bid", "bid-one-cell-short", "t-repeated"])
    def test_malformed_record_line_is_data_error(self, tmp_path, capsys, change):
        result = run_baseline(configs.cs_reference(), configs.cs_reference_field(), steps=200, seed=1)
        records = tmp_path / "records.jsonl"
        with open(records, "w") as fh:
            ingest.write_step_records(result, fh)
        lines = records.read_text().splitlines()
        lines[150] = change(lines[150])
        records.write_text("\n".join(lines) + "\n")
        out = tmp_path / "bad"
        assert run(["analyze", "--records", str(records), "--out", str(out)]) == 3
        assert "step-record line 151: " in capsys.readouterr().err
        assert not out.exists()

class TestSnapshotFeed:
    """The CLI's own synthetic feed, gridded without --dt (the median snapshot spacing)."""

    @pytest.fixture()
    def feed(self, tmp_path):
        snaps, mos = tmp_path / "snaps.jsonl", tmp_path / "mo.csv"
        for kind, path in (("snapshots", snaps), ("market-orders", mos)):
            assert run(["gen-synthetic", "--kind", kind, "--count", "3000", "--seed", "1",
                        "--out", str(path)]) == 0
        return ["--snapshots", str(snaps), "--market-orders", str(mos)]

    def test_analyze_writes_every_statistic(self, feed, tmp_path):
        out = tmp_path / "stats"
        assert run(["analyze", *feed, "--out", str(out)]) == 0
        assert len(list(out.iterdir())) == 9

    def test_skipped_lines_are_reported(self, tmp_path, capsys):
        snaps = tmp_path / "snaps.jsonl"
        assert run(["gen-synthetic", "--kind", "snapshots", "--count", "200", "--seed", "1",
                    "--out", str(snaps)]) == 0
        lines = snaps.read_text().splitlines()
        lines[49] = '{"ts": "oops"}'
        snaps.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["analyze", "--snapshots", str(snaps), "--out", str(tmp_path / "stats")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert [e for e in err if not e.startswith("warning: ")] == [
            "skipped snapshot lines: 1 of 200 lines malformed; first: line 50: "
            "could not convert string to float: 'oops'"]

    def test_fit_mo_converges(self, feed, tmp_path):
        out = tmp_path / "fit"
        assert run(["fit-mo", *feed, "--out", str(out)]) == 0
        fit = json.loads((out / "mo_fit.json").read_text())
        assert fit["converged"] is True
        # the flows respond to the snapshots' own velocity, so the generator's constants come back
        est = {name: p["estimate"] for name, p in fit["parameters"].items()}
        assert est["k0"] == pytest.approx(3.0, rel=0.05)
        assert est["v0"] == pytest.approx(2e-4, rel=0.05)
        assert est["k_inf"] == pytest.approx(2.0, rel=0.10)
        assert est["k1"] == pytest.approx(1.5, rel=0.10)


class TestFp:
    def test_quartic_regime_report(self, tmp_path):
        out = tmp_path / "fp"
        assert run(["fp", "--k0", "1.0", "--k-inf", "0.3", "--k1", "0.25",
                    "--v0", "1.0", "--n0", "1.0", "--out", str(out)]) == 0
        rep = json.loads((out / "regime_report.json").read_text())
        assert rep["power_law"] is True
        assert rep["tail_exponent"] == pytest.approx(4.0)

    def test_no_power_law_when_k0_zero(self, tmp_path):
        out = tmp_path / "fp0"
        assert run(["fp", "--k0", "0.0", "--k-inf", "0.3", "--k1", "0.25",
                    "--v0", "1.0", "--n0", "1.0", "--out", str(out)]) == 0
        rep = json.loads((out / "regime_report.json").read_text())
        assert rep["power_law"] is False
        assert "no power-law regime" in rep["note"]

    def test_density_integrates_to_one(self, tmp_path):
        out = tmp_path / "fpd"
        assert run(["fp", "--k0", "1.0", "--k-inf", "0.3", "--k1", "0.25",
                    "--v0", "1.0", "--n0", "1.2", "--out", str(out)]) == 0
        v, p = np.loadtxt(out / "density.csv", delimiter=",", skiprows=2, unpack=True)
        mass = np.trapezoid(p, v)
        assert 0.99 <= mass <= 1.01

    def test_invalid_params_usage_error(self, tmp_path):
        for bad in (["--k-inf", "0.1"], ["--k-inf", "0.3", "--points", "3"]):
            assert run(["fp", "--k0", "1.0", *bad, "--k1", "0.25",
                        "--v0", "1.0", "--n0", "1.0", "--out", str(tmp_path / "bad")]) == 2, bad
            assert not (tmp_path / "bad").exists()

    def test_k0_and_k1_zero_usage_error(self, tmp_path, capsys):
        assert run(["fp", "--k0", "0", "--k-inf", "0.3", "--k1", "0", "--v0", "1", "--n0", "1",
                    "--out", str(tmp_path / "bad")]) == 2
        err = capsys.readouterr().err
        assert "k0" in err and "k1" in err
        assert not (tmp_path / "bad").exists()

    def test_nan_k0_usage_error(self, tmp_path, capsys):
        assert run(["fp", "--k0", "nan", "--k-inf", "0.3", "--k1", "0.25", "--v0", "1", "--n0", "1",
                    "--out", str(tmp_path / "bad")]) == 2
        assert "k0 >= 0" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("flag, value", [("--k0", "1e200"), ("--n0", "1e-300"), ("--n0", "inf"),
                                             ("--v0", "inf"), ("--k-inf", "inf"), ("--k0", "1e-200")])
    def test_unusable_constant_usage_error(self, tmp_path, capsys, flag, value):
        # Unchecked, these end in a traceback (OverflowError, ZeroDivisionError) or in
        # RuntimeWarnings and a numeric error; tier-1 fails any warning.  k0 = 1e-200
        # underflows k0^2 in tail_exponent's n0^2/k0^2.
        consts = {"--k0": "1.0", "--k-inf": "0.3", "--k1": "0.25", "--v0": "1.0", "--n0": "4", flag: value}
        assert run(["fp", *[x for pair in consts.items() for x in pair], "--out", str(tmp_path / "bad")]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()


class TestCompare:
    def test_excess_kurtosis_equals_scipy(self):
        from scipy import stats

        rng = np.random.default_rng(5)
        arrays = [rng.standard_t(4.0, 200), rng.normal(size=1001), rng.uniform(size=7),
                  1e-4 * rng.standard_t(3.0, 5000) + 2e-3, np.array([0.0, 0.0, 1.0])]
        for v in arrays:
            assert _excess_kurtosis(v) == float(stats.kurtosis(v))

    def test_excess_kurtosis_nan_at_zero_variance(self):
        # no RuntimeWarning either: tier-1 turns one into an error
        assert np.isnan(_excess_kurtosis(np.zeros(10)))
        assert np.isnan(_excess_kurtosis(np.full(10, 3.0)))

    def test_unknown_model_usage_error(self, tmp_path):
        for models in ("cf,quantum", ","):
            assert run(["compare", "--models", models, "--out", str(tmp_path / "c")]) == 2, models
            assert not (tmp_path / "c").exists()

    def test_zero_steps_is_usage_error(self, tmp_path):
        assert run(["compare", "--steps", "0", "--out", str(tmp_path / "c")]) == 2
        assert not (tmp_path / "c").exists()

    def test_single_model_matches_analyze_route(self, tmp_path):
        out = tmp_path / "cmp"
        assert run(["compare", "--models", "cs", "--steps", "4000", "--seed", "2",
                    "--out", str(out)]) == 0
        summary = json.loads((out / "comparison.json").read_text())
        assert "cs" in summary
        assert (out / "cs_return_distribution.csv").exists()


class TestGenSynthetic:
    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_is_usage_error(self, tmp_path, count):
        out = tmp_path / "gen" / "snaps.jsonl"
        assert run(["gen-synthetic", "--kind", "snapshots", "--count", count, "--out", str(out)]) == 2
        assert not (tmp_path / "gen").exists()

    def test_snapshots_parse_back(self, tmp_path):
        out = tmp_path / "snaps.jsonl"
        assert run(["gen-synthetic", "--kind", "snapshots", "--count", "200",
                    "--seed", "1", "--out", str(out)]) == 0
        from bookfield.ingest import parse_snapshots

        with open(out) as fh:
            recs = list(parse_snapshots(fh))
        assert len(recs) == 200

    def test_market_orders_parse_back(self, tmp_path):
        out = tmp_path / "mo.csv"
        assert run(["gen-synthetic", "--kind", "market-orders", "--count", "500",
                    "--seed", "2", "--out", str(out)]) == 0
        from bookfield.ingest import parse_market_orders

        with open(out) as fh:
            recs = parse_market_orders(fh)
        assert len(recs) == 500


@pytest.mark.parametrize("config, args, code, needle", [
    ({"sigma_out": {**CONST, "value": -0.004}}, None, 2, "sigma_out(x)"),
    ({"diffusion": {**CONST, "value": -1e-9}}, None, 2, "diffusion(x)"),
    ({"dt": 2.0}, None, 2, "exceeds one tick"),
    ({"diffusion": {**CONST, "value": 1e-6}}, None, 2, "stability bound violated: max D*dt/dx^2 = 25"),
    ({"diffusion": {**CONST, "value": 2e-8}}, None, 2, "max D*dt/dx^2 = 0.5"),
    (None, ["fp", "--k0", "1", "--k-inf", "0.3", "--k1", "0.25", "--v0", "1", "--n0", "0.5"],
     0, "tail exponent 2.5"),
], ids=["negative-sigma-out", "negative-diffusion", "dt-above-tau", "unstable-diffusion",
        "diffusion-at-the-bound", "fp-divergent-variance"])
def test_model_checks_reached_from_the_cli(tmp_path, capsys, config, args, code, needle):
    # A cf config the engine rejects exits 2 before writing anything; an fp
    # tail too heavy for a second moment reports the variance as null.
    out = tmp_path / "out"
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args = ["simulate", "--config", str(cfg), "--steps", "10"]
    assert run([*args, "--out", str(out)]) == code
    if code:
        assert needle in capsys.readouterr().err
        assert not out.exists()
    else:
        rep = json.loads((out / "regime_report.json").read_text())
        assert rep["variance"] is None and needle in rep["variance_note"]


def test_diffusion_just_below_the_bound_runs(tmp_path):
    # D = 1.9e-8 on the reference grid is c = D dt/dx^2 = 0.475, inside the bound
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"diffusion": {**CONST, "value": 1.9e-8}}))
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(cfg), "--steps", "10", "--out", str(out)]) == 0
    assert (out / "summary.json").exists()
