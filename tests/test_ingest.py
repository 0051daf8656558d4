import io
import json
import math

import numpy as np
import pytest

from bookfield import profiles
from bookfield.dynamics import simulate
from bookfield.errors import DataError
from bookfield.field import MarketOrderParams, ModelParams, new_field
from bookfield.fokker_planck import FPParams, make_grid, stationary_density
from bookfield.ingest import (
    MarketOrderRecord,
    ParseReport,
    SnapshotRecord,
    _CSV_BLOCK_ROWS,
    _write_csv,
    build_frame,
    fmt,
    parse_market_orders,
    parse_snapshots,
    read_density_csv,
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
        with pytest.raises(DataError):
            parse_market_orders(["1.0,-2.0,0.0"])


class TestToLogGrid:
    def test_bid_at_trade_price_lands_in_cell_zero(self):
        rec = SnapshotRecord(ts=0.0, trade_price=100.0, bids=[(100.0, 3.0)], asks=[])
        bid, ask, over = to_log_grid(rec, 0.001, 0.05)
        assert bid[0] == 3.0
        assert bid.sum() + over.bid == 3.0

    def test_cell_assignment_arithmetic(self):
        p = 100.0
        rec = SnapshotRecord(
            ts=0.0, trade_price=p,
            bids=[(p * math.exp(-0.0015), 2.0)], asks=[(p * math.exp(0.0025), 4.0)],
        )
        bid, ask, _ = to_log_grid(rec, 0.001, 0.05)
        assert bid[1] == pytest.approx(2.0)
        assert ask[2] == pytest.approx(4.0)

    def test_overflow_and_exact_conservation(self):
        recs = random_records(200, seed=9)
        for rec in recs:
            bid, ask, over = to_log_grid(rec, 0.002, 0.01)
            # brute-force per-order oracle, same summation order
            lp = math.log(rec.trade_price)
            n = int(round(0.01 / 0.002))
            want_bid = np.zeros(n)
            spill = 0.0
            for price, vol in rec.bids:
                i = int(math.floor(abs(lp - math.log(price)) / 0.002))
                if i < n:
                    want_bid[i] += vol
                else:
                    spill += vol
            assert np.array_equal(bid, want_bid)
            assert over.bid == spill


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


class TestStepRecordRoundTrip:
    def test_frame_statistics_survive_serialization(self):
        params = ModelParams(
            stable=StableParams(alpha=0.5, scale=1.0, truncation_quantile=0.99),
            sigma_in=profiles.exp_decay(0.05, 0.02),
            sigma_out=profiles.constant(0.004),
            diffusion=profiles.constant(2e-9),
            mo=MarketOrderParams(k0=2.0, k_inf=0.5, k1=0.5, v0=5e-5),
            n0_floor=5.0,
        )
        f = new_field(32, 2e-4, lambda x: 0.05 * np.exp(-x / 0.02) / 0.004)
        res = simulate(params, f, steps=2000, dt=1.0, seed=12)
        direct = res.to_frame()
        buf = io.StringIO()
        write_step_records(res, buf)
        back = read_step_records_frame(io.StringIO(buf.getvalue()))
        assert np.max(np.abs(back.velocities - direct.velocities)) <= 1e-9 * max(
            1.0, np.max(np.abs(direct.velocities))
        )
        assert np.array_equal(back.times, direct.times)
        assert np.array_equal(back.n0s, direct.n0s)
        assert np.array_equal(back.bid, direct.bid)
        assert np.array_equal(back.x_bins, direct.x_bins)

    def test_bad_header_rejected(self):
        with pytest.raises(DataError):
            read_step_records_frame(['{"type": "something-else"}'])


class TestDensityCsv:
    def test_round_trip(self):
        p = FPParams(k0=1.0, k_inf=0.3, k1=0.25, v0=1.0, n0=1.0)
        d = stationary_density(p, make_grid(p, points=801))
        buf = io.StringIO()
        write_density_csv(d, buf, meta={"label": "test"})
        back = read_density_csv(io.StringIO(buf.getvalue()))
        assert np.array_equal(back.grid, d.grid)
        assert np.array_equal(back.density, d.density)
        assert back.normalization_check == d.normalization_check


class TestTableFormatting:
    """The table writers against the per-cell ``fmt`` formula, byte for byte."""

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
        lines += [",".join(fmt(float(c[i])) for c in cols) for i in range(rows)]
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
            f"{fmt(r.ts)},{fmt(r.buy_volume)},{fmt(r.sell_volume)}\n" for r in recs)
