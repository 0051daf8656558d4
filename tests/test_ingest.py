import dataclasses
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from bookfield import configs, profiles
from bookfield.baselines import run_baseline
from bookfield.dynamics import simulate
from bookfield.errors import DataError
from bookfield.field import MarketOrderParams, ModelParams, new_field
from bookfield.fokker_planck import FPParams, make_grid, stationary_density
from bookfield.ingest import (
    MarketOrderRecord,
    ParseReport,
    SnapshotRecord,
    _CSV_BLOCK_ROWS,
    _RECORD_BLOCK_ROWS,
    _write_csv,
    build_frame,
    parse_market_orders,
    parse_snapshots,
    read_step_records_frame,
    to_log_grid,
    write_density_csv,
    write_market_orders,
    write_snapshots,
    write_step_records,
)
from bookfield.stable_noise import StableParams


def snap_line(ts, p, bids, asks):
    return json.dumps({"ts": ts, "p": p, "bids": bids, "asks": asks})


def random_records(n, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    t = 0.0
    for _ in range(n):
        t += float(rng.uniform(0.5, 2.0))
        p = float(rng.uniform(90.0, 110.0))
        bids = [[p * math.exp(-x), float(rng.uniform(0, 5))]
                for x in sorted(rng.uniform(1e-4, 0.05, rng.integers(1, 8)))]
        asks = [[p * math.exp(x), float(rng.uniform(0, 5))]
                for x in sorted(rng.uniform(1e-4, 0.05, rng.integers(1, 8)))]
        out.append(SnapshotRecord(ts=t, trade_price=p, bids=[tuple(b) for b in bids],
                                  asks=[tuple(a) for a in asks]))
    return out


class TestParseSnapshots:
    def test_empty_input(self):
        assert list(parse_snapshots([])) == []

    def test_basic_record(self):
        line = snap_line(1.0, 100.0, [[99.0, 2.0]], [[101.0, 3.0]])
        (rec,) = parse_snapshots([line])
        assert rec.trade_price == 100.0
        assert not rec.crossed

    def test_crossed_book_flagged(self):
        line = snap_line(1.0, 100.0, [[102.0, 2.0]], [[101.0, 3.0]])
        (rec,) = parse_snapshots([line])
        assert rec.crossed

    def test_malformed_lines_reported_with_numbers(self):
        lines = [
            snap_line(1.0, 100.0, [[99.0, 1.0]], [[101.0, 1.0]]),
            "not json",
            snap_line(2.0, 100.0, [[99.0, 1.0]], [[101.0, 1.0]]),
            snap_line(1.5, 100.0, [[99.0, 1.0]], [[101.0, 1.0]]),  # ts goes backwards
            snap_line(3.0, -5.0, [[99.0, 1.0]], [[101.0, 1.0]]),  # bad price
            snap_line(4.0, 100.0, [[99.0, 1.0]], [[101.0, 1.0]]),
            snap_line(5.0, 100.0, [[99.0, 1.0]], [[101.0, 1.0]]),
            snap_line(6.0, 100.0, [[99.0, 1.0]], [[101.0, 1.0]]),
            snap_line(7.0, 100.0, [[99.0, 1.0]], [[101.0, 1.0]]),
            *[snap_line(8.0 + i, 100.0, [[99.0, 1.0]], [[101.0, 1.0]]) for i in range(24)],
        ]
        rep = ParseReport()
        recs = list(parse_snapshots(lines, rep))
        assert len(recs) == 30
        assert [ln for ln, _ in rep.failures] == [2, 4, 5]
        assert rep.summary().startswith("3 of 33 lines malformed; first: line 2: ")

    def test_hard_failure_above_ten_percent(self):
        lines = ["garbage"] * 3 + [snap_line(float(i), 100.0, [[99.0, 1.0]], [[101.0, 1.0]])
                                   for i in range(1, 11)]
        with pytest.raises(DataError, match="malformed"):
            list(parse_snapshots(lines))

    def test_round_trip_identity(self):
        recs = random_records(10_000, seed=5)
        buf = io.StringIO()
        write_snapshots(recs, buf)
        back = list(parse_snapshots(io.StringIO(buf.getvalue())))
        assert len(back) == len(recs)
        for a, b in zip(recs, back):
            assert a.ts == b.ts
            assert a.trade_price == b.trade_price
            assert a.bids == b.bids
            assert a.asks == b.asks


class TestMarketOrders:
    def test_round_trip(self):
        recs = [MarketOrderRecord(ts=float(i), buy_volume=i * 0.1, sell_volume=i * 0.2)
                for i in range(100)]
        buf = io.StringIO()
        write_market_orders(recs, buf)
        back = parse_market_orders(io.StringIO(buf.getvalue()))
        assert all(a == b for a, b in zip(recs, back))

    def test_negative_volume_rejected(self):
        # a NaN volume or an infinite time is as bad as a negative volume
        for row in ("1.0,-2.0,0.0", "1.0,nan,0.0", "inf,1.0,2.0"):
            with pytest.raises(DataError, match="line 3"):
                parse_market_orders(["ts,buy,sell", "0.0,1.0,1.0", row])


class TestToLogGrid:
    def test_bid_at_trade_price_lands_in_cell_zero(self):
        rec = SnapshotRecord(ts=0.0, trade_price=100.0, bids=[(100.0, 3.0)], asks=[])
        bid, ask = to_log_grid(rec, 0.001, 0.05)
        assert bid[0] == 3.0
        assert bid.sum() == 3.0

    def test_cell_assignment_arithmetic(self):
        p = 100.0
        rec = SnapshotRecord(
            ts=0.0, trade_price=p,
            bids=[(p * math.exp(-0.0015), 2.0)], asks=[(p * math.exp(0.0025), 4.0)],
        )
        bid, ask = to_log_grid(rec, 0.001, 0.05)
        assert bid[1] == pytest.approx(2.0)
        assert ask[2] == pytest.approx(4.0)

    def test_overflow_and_exact_conservation(self):
        recs = random_records(200, seed=9)
        dropped = 0
        for rec in recs:
            bid, ask = to_log_grid(rec, 0.002, 0.01)
            # brute-force per-order oracle, same summation order; volume beyond L is dropped
            lp = math.log(rec.trade_price)
            n = int(round(0.01 / 0.002))
            want_bid = np.zeros(n)
            for price, vol in rec.bids:
                i = int(math.floor(abs(lp - math.log(price)) / 0.002))
                if i < n:
                    want_bid[i] += vol
                else:
                    dropped += 1
            assert np.array_equal(bid, want_bid)
        assert dropped  # the records reach beyond L, so the drop is exercised


class TestBuildFrame:
    def test_identical_snapshots_give_zero_deltas(self):
        base = SnapshotRecord(ts=0.0, trade_price=100.0,
                              bids=[(99.9, 2.0)], asks=[(100.1, 2.0)])
        recs = [SnapshotRecord(ts=float(i), trade_price=100.0, bids=base.bids,
                               asks=base.asks) for i in range(10)]
        frame = build_frame(recs, dt=1.0, dx=0.001, L=0.05)
        assert np.all(frame.velocities == 0.0)
        assert np.all(np.diff(frame.bid, axis=0) == 0.0)

    def test_exponential_price_gives_constant_velocity(self):
        c = 0.0003
        recs = [
            SnapshotRecord(ts=float(i), trade_price=100.0 * math.exp(c * i),
                           bids=[(99.0, 1.0)], asks=[(150.0, 1.0)])
            for i in range(50)
        ]
        frame = build_frame(recs, dt=1.0, dx=0.001, L=0.05)
        assert np.allclose(frame.velocities[1:], c, rtol=1e-9)

    def test_gap_splits_segments(self):
        ts = [0.0, 1.0, 2.0, 30.0, 31.0, 32.0]
        recs = [SnapshotRecord(ts=t, trade_price=100.0, bids=[(99.9, 1.0)],
                               asks=[(100.1, 1.0)]) for t in ts]
        frame = build_frame(recs, dt=1.0, dx=0.001, L=0.05)
        assert frame.segments == ((0, 3), (3, 6))

    def test_all_gap_input_rejected(self):
        # spacing this sparse fails either the dt precondition or, if dt is
        # raised to match, leaves no usable segment
        recs = [SnapshotRecord(ts=100.0 * i, trade_price=100.0, bids=[(99.9, 1.0)],
                               asks=[(100.1, 1.0)]) for i in range(4)]
        with pytest.raises((DataError, ValueError)):
            build_frame(recs, dt=1.0, dx=0.001, L=0.05)

    def test_crossed_records_excluded(self):
        recs = [
            SnapshotRecord(ts=0.0, trade_price=100.0, bids=[(99.9, 1.0)], asks=[(100.1, 1.0)]),
            SnapshotRecord(ts=1.0, trade_price=100.0, bids=[(101.0, 1.0)], asks=[(100.1, 1.0)],
                           crossed=True),
            SnapshotRecord(ts=2.0, trade_price=100.0, bids=[(99.9, 1.0)], asks=[(100.1, 1.0)]),
        ]
        frame = build_frame(recs, dt=2.0, dx=0.001, L=0.05)
        assert len(frame.times) == 2

    def test_mo_alignment(self):
        recs = [SnapshotRecord(ts=float(i), trade_price=100.0, bids=[(99.9, 1.0)],
                               asks=[(100.1, 1.0)]) for i in range(5)]
        mos = [MarketOrderRecord(ts=0.5, buy_volume=1.0, sell_volume=0.0),
               MarketOrderRecord(ts=0.7, buy_volume=2.0, sell_volume=1.0)]
        frame = build_frame(recs, dt=1.0, dx=0.001, L=0.05, market_orders=mos)
        assert frame.mo_flows[1, 0] == 3.0
        assert frame.mo_flows[1, 1] == 1.0


B = _RECORD_BLOCK_ROWS

FRAME_FIELDS = ("times", "velocities", "n0s", "x_bins", "bid", "ask", "mo_flows")
TICK_FIELDS = ("times", "velocities", "n0s", "mo_buy", "mo_sell", "spill_bid", "spill_ask",
               "bid_tracks", "ask_tracks")


def cf_run(steps):
    params = ModelParams(
        stable=StableParams(alpha=0.5, scale=1.0, truncation_quantile=0.99),
        sigma_in=profiles.exp_decay(0.05, 0.02),
        sigma_out=profiles.constant(0.004),
        diffusion=profiles.constant(2e-9),
        mo=MarketOrderParams(k0=2.0, k_inf=0.5, k1=0.5, v0=5e-5),
        n0_floor=5.0,
    )
    f = new_field(32, 2e-4, lambda x: 0.05 * np.exp(-x / 0.02) / 0.004)
    return simulate(params, f, steps=steps, dt=1.0, seed=12)


def cs_run(steps):
    field = configs.cs_reference_field()
    return run_baseline(configs.cs_reference(), field, steps=steps, seed=5,
                        tracked_cells=np.arange(field.length))


def head(result, count):
    """The first ``count`` ticks of a run."""
    return dataclasses.replace(result, **{f: getattr(result, f)[:count] for f in TICK_FIELDS})


def with_special_values(result, k):
    """A copy of the run whose tick ``k`` holds NaN, +-inf, -0.0 and the smallest subnormal."""
    cols = {f: getattr(result, f).copy() for f in TICK_FIELDS}
    cols["times"][0] = -0.0
    cols["velocities"][k] = math.nan
    cols["n0s"][k] = math.inf
    cols["mo_buy"][k] = -0.0
    cols["mo_sell"][k] = 5e-324
    cols["bid_tracks"][k, :4] = [math.nan, math.inf, -math.inf, -0.0]
    cols["ask_tracks"][k, :4] = [5e-324, -5e-324, -0.0, 1.7976931348623157e308]
    return dataclasses.replace(result, **cols)


def round_trip(result):
    buf = io.StringIO()
    write_step_records(result, buf)
    return read_step_records_frame(io.StringIO(buf.getvalue()))


def assert_frames_identical(back, direct):
    """Every frame field equal, NaN to NaN, bit for bit (so -0.0 stays -0.0)."""
    for name in FRAME_FIELDS:
        a, b = getattr(back, name), getattr(direct, name)
        assert a.dtype == b.dtype == np.float64, name
        assert a.shape == b.shape, name
        assert a.flags.c_contiguous, name
        assert np.array_equal(a, b, equal_nan=True), name
        assert a.tobytes() == b.tobytes(), name
    assert back.segments == ((0, len(direct.times)),)


class TestStepRecordRoundTrip:
    """The record format round-trips a frame exactly, at and across block edges."""

    @pytest.fixture(scope="class", params=["cf", "cs"])
    def run(self, request):
        return {"cf": cf_run, "cs": cs_run}[request.param](2 * B + 1)

    @pytest.mark.parametrize("count", [1, B - 1, B, B + 1, 2 * B + 1])
    def test_frame_is_exact(self, run, count):
        result = head(run, count)
        assert len(result.times) == count
        assert_frames_identical(round_trip(result), result.to_frame())

    @pytest.mark.parametrize("k", [1, B - 1, B])
    def test_special_values_are_exact(self, run, k):
        result = with_special_values(run, k)
        assert_frames_identical(round_trip(result), result.to_frame())

    def test_frame_statistics_survive_serialization(self):
        result = cf_run(2000)
        assert_frames_identical(round_trip(result), result.to_frame())

    def test_bad_header_rejected(self):
        with pytest.raises(DataError):
            read_step_records_frame(['{"type": "something-else"}'])


def record_lines(result):
    buf = io.StringIO()
    write_step_records(result, buf)
    return buf.getvalue().splitlines(keepends=True)


def edit_record(line, change):
    rec = json.loads(line)
    change(rec)
    return json.dumps(rec) + "\n"


class TestStepRecordErrors:
    @pytest.fixture(scope="class")
    def lines(self):
        return record_lines(cs_run(2 * B + 1))

    @pytest.mark.parametrize("change, words", [
        (lambda h: h.pop("dx"), "lacks dx"),
        (lambda h: h.pop("tracked_cells"), "lacks tracked_cells"),
        (lambda h: h.update(version=7), "version 7"),
        (lambda h: h.pop("version"), "version None"),
    ], ids=["no-dx", "no-tracked-cells", "version-7", "no-version"])
    def test_bad_header_is_data_error(self, lines, change, words):
        with pytest.raises(DataError, match=words):
            read_step_records_frame([edit_record(lines[0], change), *lines[1:]])

    def test_width_other_than_tracked_cells_is_data_error(self, lines):
        # Every record one cell short: the records form a table, just not the header's.
        short = [edit_record(line, lambda r: r.update(bid=r["bid"][:-1], ask=r["ask"][:-1]))
                 for line in lines[1:]]
        with pytest.raises(DataError, match="step-record line 2: bid must list 64 numbers"):
            read_step_records_frame([lines[0], *short])

    @pytest.mark.parametrize("change, words", [
        (lambda line: line[: len(line) // 2], "Expecting"),
        (lambda line: edit_record(line, lambda r: r.pop("n0")), "missing key 'n0'"),
        (lambda line: edit_record(line, lambda r: r.update(v=None)), "must be numbers"),
        (lambda line: edit_record(line, lambda r: r.update(ask=r["ask"] + [1.0])), "ask must list"),
        (lambda line: "[1.0, 2.0]\n", "must be a JSON object"),
        (lambda line: line.strip() + ", " + line, "exactly one record"),
        (lambda line: edit_record(line, lambda r: r.update(t=float("nan"))), "t does not increase"),
    ], ids=["truncated", "no-n0", "null-v", "long-ask", "list", "two-records", "nan-t"])
    def test_bad_line_named_by_its_number_in_the_file(self, lines, change, words):
        # Blank lines count: the bad record, in the second block, is line B + 12 of the file.
        bad = B + 12
        body = [*lines[1:3], "\n", " \n", *lines[3:]]
        body[bad - 2] = change(body[bad - 2])
        with pytest.raises(DataError, match=f"step-record line {bad}: .*{words}"):
            read_step_records_frame([lines[0], *body])

    @pytest.mark.parametrize("first", [B - 1, 100], ids=["across-blocks", "in-a-block"])
    def test_time_going_back_is_data_error(self, lines, first):
        # Records `first` and `first` + 1 (0-based) swap; the second of them, on
        # line `first` + 3 of the file, is the first whose t does not increase.
        body = lines[1:]
        body[first], body[first + 1] = body[first + 1], body[first]
        with pytest.raises(DataError, match=f"step-record line {first + 3}: t does not increase"):
            read_step_records_frame([lines[0], *body])

    def test_bad_header_json_is_data_error(self, lines):
        with pytest.raises(DataError, match="step-record line 1: "):
            read_step_records_frame([lines[0][:20], *lines[1:]])


def test_reader_memory_is_bounded_by_a_block_plus_the_frame(tmp_path):
    # A 5,000-tick CS run with all 64 cells tracked; at this size a reader that
    # keeps every record as a dict peaks near 6x the frame's array bytes.
    path = tmp_path / "records.jsonl"
    with open(path, "w") as fh:
        write_step_records(cs_run(5000), fh)
    tracemalloc.start()
    try:
        with open(path) as fh:
            frame = read_step_records_frame(fh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert frame.bid.shape == (5000, 64)
    assert peak <= 3 * sum(getattr(frame, name).nbytes for name in FRAME_FIELDS)


class TestDensityCsv:
    def test_round_trip(self):
        p = FPParams(k0=1.0, k_inf=0.3, k1=0.25, v0=1.0, n0=1.0)
        d = stationary_density(p, make_grid(p, points=801))
        buf = io.StringIO()
        write_density_csv(d, buf, meta={"label": "test"})
        lines = buf.getvalue().splitlines()
        meta = json.loads(lines[0].removeprefix("# "))
        assert lines[1] == "v,p"
        back = np.loadtxt(lines[2:], delimiter=",")
        assert np.array_equal(back[:, 0], d.grid)
        assert np.array_equal(back[:, 1], d.density)
        assert meta["normalization_check"] == d.normalization_check
        assert meta["label"] == "test"


class TestTableFormatting:
    """The table writers against per-cell ``format(x, ".17g")``, byte for byte."""

    SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1.7976931348623157e308]

    def values(self, rows, seed):
        rng = np.random.default_rng(seed)
        out = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
        k = min(rows, len(self.SPECIAL))
        out[:k] = self.SPECIAL[:k]
        return out

    @pytest.mark.parametrize("rows", [0, 1, 7, 2500])
    def test_write_csv_matches_per_cell_fmt(self, rows):
        assert 2500 > 2 * _CSV_BLOCK_ROWS  # the last case spans three blocks
        columns = {
            "bin_center": np.linspace(-1.0, 1.0, rows),
            "value": self.values(rows, rows),
            "count": np.random.default_rng(rows).integers(0, 2**62, rows),
        }
        meta = {"type": "test"}
        cols = [np.asarray(c) for c in columns.values()]
        lines = ["# " + json.dumps(meta), ",".join(columns)]
        lines += [",".join(format(float(c[i]), ".17g") for c in cols) for i in range(rows)]
        buf = io.StringIO()
        _write_csv(buf, meta, columns)
        assert buf.getvalue() == "".join(line + "\n" for line in lines)

    @pytest.mark.parametrize("rows", [0, 1, 2500])
    def test_write_market_orders_matches_per_record_fmt(self, rows):
        ts, buy, sell = (self.values(rows, seed) for seed in (1, 2, 3))
        recs = [MarketOrderRecord(ts=float(t), buy_volume=float(b), sell_volume=float(s))
                for t, b, s in zip(ts, np.abs(buy), np.abs(sell))]
        buf = io.StringIO()
        write_market_orders(recs, buf)
        assert buf.getvalue() == "ts,buy,sell\n" + "".join(
            f"{r.ts:.17g},{r.buy_volume:.17g},{r.sell_volume:.17g}\n" for r in recs)
