"""Snapshot ingestion and serialization of simulation/analysis outputs.

Wire formats:

* Order-book snapshots: line-delimited JSON objects
  ``{"ts": <sec>, "p": <trade price>, "bids": [[price, vol], ...], "asks": [[price, vol], ...]}``
  with bids sorted descending and asks ascending by price.
* Market-order flows: CSV ``ts,buy,sell`` (header line optional on input).
* Simulation tick records: JSONL with a single header object followed by one
  record per tick.
* Analysis tables and densities: CSV with a one-line JSON metadata header
  comment (``# {...}``).

All floating-point output uses 17 significant digits so that
serialize-then-parse is an exact round trip.  Parsing is streaming: memory
use is bounded by a single record, not the file size.  The CSV writers format
a block of rows per ``%`` call, so their memory is bounded by one block.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dataclass_field
from itertools import chain, islice
from typing import Iterable, Iterator, TextIO

import numpy as np

from .analyzers import Curve, HistogramFamily, ReturnDistribution, SeriesFrame
from .errors import DataError
from .fokker_planck import ReturnDensity

__all__ = [
    "SnapshotRecord",
    "MarketOrderRecord",
    "ParseReport",
    "OverflowTotals",
    "parse_snapshots",
    "write_snapshots",
    "parse_market_orders",
    "write_market_orders",
    "to_log_grid",
    "build_frame",
    "write_step_records",
    "read_step_records_frame",
    "write_density_csv",
    "read_density_csv",
    "write_curve_csv",
    "fmt",
]

_MALFORMED_HARD_LIMIT = 0.10
_GAP_FACTOR = 5.0  # a snapshot spacing above this many dt is a data gap
_CSV_BLOCK_ROWS = 1024  # rows a CSV writer formats per % call


def fmt(x: float) -> str:
    """17-significant-digit decimal form; round-trips float64 exactly."""
    return f"{x:.17g}"


def _write_rows(out: TextIO, width: int, values: tuple[float, ...]) -> None:
    """Row-major floats as CSV lines of ``width`` numbers, each number as ``fmt`` writes it.

    '%.17g' % x is format(x, '.17g') for every float, NaN, +-inf and -0.0 included.
    """
    row = ",".join(["%.17g"] * width) + "\n"
    out.write((row * (len(values) // width)) % values)


@dataclass
class SnapshotRecord:
    ts: float
    trade_price: float
    bids: list[tuple[float, float]]
    asks: list[tuple[float, float]]
    crossed: bool = False


@dataclass
class MarketOrderRecord:
    ts: float
    buy_volume: float
    sell_volume: float


@dataclass
class ParseReport:
    total_lines: int = 0
    failures: list[tuple[int, str]] = dataclass_field(default_factory=list)

    @property
    def malformed_fraction(self) -> float:
        return len(self.failures) / self.total_lines if self.total_lines else 0.0

    def summary(self) -> str:
        """The count of malformed lines and the first one's number and reason."""
        line, reason = self.failures[0]
        return f"{len(self.failures)} of {self.total_lines} lines malformed; first: line {line}: {reason}"


def _validate_snapshot(obj: dict) -> SnapshotRecord:
    ts = float(obj["ts"])
    price = float(obj["p"])
    if not (price > 0.0) or not math.isfinite(price):
        raise ValueError(f"trade price must be positive, got {price}")
    if not math.isfinite(ts):
        raise ValueError("ts is not finite")

    def ladder(key: str, descending: bool) -> list[tuple[float, float]]:
        out = []
        for pair in obj[key]:
            p, v = float(pair[0]), float(pair[1])
            if not (p > 0.0) or v < 0.0 or not math.isfinite(p) or not math.isfinite(v):
                raise ValueError(f"bad {key} level ({p}, {v})")
            out.append((p, v))
        out.sort(key=lambda pv: pv[0], reverse=descending)
        return out

    bids = ladder("bids", descending=True)
    asks = ladder("asks", descending=False)
    crossed = bool(bids and asks and bids[0][0] >= asks[0][0])
    return SnapshotRecord(ts=ts, trade_price=price, bids=bids, asks=asks, crossed=crossed)


def parse_snapshots(
    lines: Iterable[str], report: ParseReport | None = None
) -> Iterator[SnapshotRecord]:
    """Stream SnapshotRecords from JSONL lines.

    Malformed lines (bad JSON, bad values, non-increasing timestamps) are
    recorded in the report and skipped; crossed books are yielded with the
    ``crossed`` flag set.  Raises DataError at the end of the stream when more
    than 10% of nonempty lines were malformed.
    """
    rep = report if report is not None else ParseReport()
    last_ts = -math.inf
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        rep.total_lines += 1
        try:
            rec = _validate_snapshot(json.loads(line))
            if rec.ts <= last_ts:
                raise ValueError(f"timestamp {rec.ts} not increasing (previous {last_ts})")
        except (ValueError, KeyError, TypeError, IndexError, json.JSONDecodeError) as exc:
            rep.failures.append((lineno, str(exc)))
            continue
        last_ts = rec.ts
        yield rec
    if rep.total_lines and rep.malformed_fraction > _MALFORMED_HARD_LIMIT:
        raise DataError(f"too many malformed snapshot lines (limit {_MALFORMED_HARD_LIMIT:.0%}): "
                        f"{rep.summary()}")


def write_snapshots(records: Iterable[SnapshotRecord], out: TextIO) -> None:
    for r in records:
        obj = {
            "ts": float(r.ts),
            "p": float(r.trade_price),
            "bids": [[p, v] for p, v in r.bids],
            "asks": [[p, v] for p, v in r.asks],
        }
        out.write(json.dumps(obj) + "\n")


def parse_market_orders(lines: Iterable[str]) -> list[MarketOrderRecord]:
    """Parse ``ts,buy,sell`` CSV; a header line is tolerated."""
    out: list[MarketOrderRecord] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if lineno == 1 and parts[0].strip().lower() == "ts":
            continue
        if len(parts) != 3:
            raise DataError(f"market-order line {lineno}: expected 3 fields, got {len(parts)}")
        try:
            ts, buy, sell = (float(p) for p in parts)
        except ValueError as exc:
            raise DataError(f"market-order line {lineno}: {exc}") from None
        if buy < 0.0 or sell < 0.0:
            raise DataError(f"market-order line {lineno}: negative volume")
        out.append(MarketOrderRecord(ts=ts, buy_volume=buy, sell_volume=sell))
    return out


def write_market_orders(records: Iterable[MarketOrderRecord], out: TextIO) -> None:
    out.write("ts,buy,sell\n")
    it = iter(records)
    while block := [(r.ts, r.buy_volume, r.sell_volume) for r in islice(it, _CSV_BLOCK_ROWS)]:
        _write_rows(out, 3, tuple(chain.from_iterable(block)))


@dataclass
class OverflowTotals:
    bid: float = 0.0
    ask: float = 0.0


def to_log_grid(
    record: SnapshotRecord, dx: float, L: float
) -> tuple[np.ndarray, np.ndarray, OverflowTotals]:
    """Accumulate ladder volumes into log-distance cells of width dx over [0, L).

    Each order's distance is x = |ln(trade price) - ln(price)|, assigned to
    cell floor(x / dx); volume beyond L goes to the overflow totals.
    """
    if not (dx > 0.0) or not (L > dx):
        raise ValueError("need dx > 0 and L > dx")
    n_cells = int(round(L / dx))
    lp = math.log(record.trade_price)
    grids, spills = [], []
    for ladder in (record.bids, record.asks):
        cells = np.zeros(n_cells)
        spill = 0.0
        for price, vol in ladder:
            x = abs(lp - math.log(price))
            i = int(math.floor(x / dx))
            if i < n_cells:
                cells[i] += vol
            else:
                spill += vol
        grids.append(cells)
        spills.append(spill)
    return grids[0], grids[1], OverflowTotals(*spills)


def build_frame(
    snapshots: Iterable[SnapshotRecord],
    dt: float | None,
    dx: float,
    L: float,
    market_orders: Iterable[MarketOrderRecord] | None = None,
) -> SeriesFrame:
    """Grid snapshot series onto the model lattice and align the companion series.

    Velocities come from log trade-price differences; spacings larger than
    _GAP_FACTOR * dt (dt=None: the median spacing) split the series into
    segments so no lagged difference crosses a gap.  Crossed-book records are excluded.
    """
    recs = [r for r in snapshots if not r.crossed]
    if len(recs) < 2:
        raise DataError(f"need at least 2 uncrossed snapshots, got {len(recs)}")
    ts = np.array([r.ts for r in recs])
    spacing = float(np.median(np.diff(ts)))
    if dt is None:
        dt = spacing
    if dt < spacing:
        raise ValueError(f"dt={dt} is below the median snapshot spacing {spacing}")
    n_cells = int(round(L / dx))
    T = len(recs)
    bid = np.empty((T, n_cells))
    ask = np.empty((T, n_cells))
    prices = np.empty(T)
    for i, r in enumerate(recs):
        bid[i], ask[i], _ = to_log_grid(r, dx, L)
        prices[i] = r.trade_price
    logp = np.log(prices)
    gaps = np.diff(ts)
    breaks = np.flatnonzero(gaps > _GAP_FACTOR * dt)
    bounds = [0, *(breaks + 1), T]
    segments = tuple(
        (a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b - a >= 2
    )
    if not segments:
        raise DataError("every snapshot pair straddles a gap; no usable segment")
    velocities = np.zeros(T)
    for a, b in segments:
        velocities[a + 1 : b] = np.diff(logp[a:b]) / np.diff(ts[a:b])
    mo = None
    if market_orders is not None:
        mrec = sorted(market_orders, key=lambda m: m.ts)
        mts = np.array([m.ts for m in mrec])
        mbuy = np.array([m.buy_volume for m in mrec])
        msell = np.array([m.sell_volume for m in mrec])
        mo = np.zeros((T, 2))
        idx = np.searchsorted(ts, mts, side="left")
        for j, i in enumerate(idx):
            if i < T:
                mo[i, 0] += mbuy[j]
                mo[i, 1] += msell[j]
    return SeriesFrame(
        times=ts,
        velocities=velocities,
        n0s=bid[:, 0] + ask[:, 0],
        x_bins=np.arange(n_cells) * dx,
        bid=bid,
        ask=ask,
        mo_flows=mo,
        segments=segments,
    )


def write_step_records(result, out: TextIO) -> None:
    """Serialize a SimulationResult as header + one JSON record per tick."""
    header = {
        "type": "bookfield.steprecords",
        "version": 1,
        "dx": result.dx,
        "dt": result.dt,
        "tracked_cells": [int(c) for c in result.tracked_cells],
    }
    out.write(json.dumps(header) + "\n")
    for i in range(len(result.times)):
        rec = {
            "t": result.times[i],
            "v": result.velocities[i],
            "n0": result.n0s[i],
            "mo_buy": result.mo_buy[i],
            "mo_sell": result.mo_sell[i],
            "spill_bid": result.spill_bid[i],
            "spill_ask": result.spill_ask[i],
            "bid": list(result.bid_tracks[i]),
            "ask": list(result.ask_tracks[i]),
        }
        out.write(json.dumps(rec) + "\n")


def read_step_records_frame(lines: Iterable[str]) -> SeriesFrame:
    """Read a step-record JSONL stream back into a SeriesFrame."""
    it = iter(lines)
    try:
        header = json.loads(next(it))
    except StopIteration:
        raise DataError("empty step-record stream") from None
    if header.get("type") != "bookfield.steprecords":
        raise DataError("not a bookfield step-record stream (bad header)")
    dx = float(header["dx"])
    cells = np.asarray(header["tracked_cells"], dtype=int)
    rows = [json.loads(line) for line in it if line.strip()]
    if not rows:
        raise DataError("step-record stream has a header but no records")
    return SeriesFrame(
        times=np.array([r["t"] for r in rows]),
        velocities=np.array([r["v"] for r in rows]),
        n0s=np.array([r["n0"] for r in rows]),
        x_bins=cells * dx,
        bid=np.array([r["bid"] for r in rows]),
        ask=np.array([r["ask"] for r in rows]),
        mo_flows=np.column_stack(
            [np.array([r["mo_buy"] for r in rows]), np.array([r["mo_sell"] for r in rows])]
        ),
    )


def _write_csv(out: TextIO, meta: dict, columns: dict[str, np.ndarray]) -> None:
    out.write("# " + json.dumps(meta) + "\n")
    names = list(columns)
    out.write(",".join(names) + "\n")
    cols = [np.asarray(columns[n], dtype=float) for n in names]
    for start in range(0, len(cols[0]), _CSV_BLOCK_ROWS):
        block = np.column_stack([c[start : start + _CSV_BLOCK_ROWS] for c in cols])
        _write_rows(out, len(cols), tuple(block.ravel().tolist()))


def write_density_csv(density: ReturnDensity, out: TextIO, meta: dict | None = None) -> None:
    m = {"type": "bookfield.density", "normalization_check": density.normalization_check}
    if meta:
        m.update(meta)
    _write_csv(out, m, {"v": density.grid, "p": density.density})


def read_density_csv(lines: Iterable[str]) -> ReturnDensity:
    it = iter(lines)
    first = next(it).strip()
    if not first.startswith("#"):
        raise DataError("density CSV must start with a JSON metadata comment")
    meta = json.loads(first[1:].strip())
    header = next(it).strip().split(",")
    if header[:2] != ["v", "p"]:
        raise DataError(f"unexpected density CSV columns {header}")
    vs, ps = [], []
    for line in it:
        line = line.strip()
        if not line:
            continue
        a, b = line.split(",")[:2]
        vs.append(float(a))
        ps.append(float(b))
    return ReturnDensity(
        grid=np.array(vs), density=np.array(ps),
        normalization_check=float(meta.get("normalization_check", np.nan)),
    )


def write_curve_csv(curve: Curve, out: TextIO, name: str = "value") -> None:
    meta = {"type": "bookfield.curve", "bin_edges": [float(e) for e in curve.bin_edges]}
    meta.update(curve.meta)
    _write_csv(
        out, meta,
        {"bin_center": curve.bin_centers, name: curve.values, "count": curve.counts},
    )


def write_histogram_family_csv(fam: HistogramFamily, out: TextIO) -> None:
    meta = {
        "type": "bookfield.histogram_family",
        "n_edges": [float(e) for e in fam.n_edges],
        "delta_edges": [float(e) for e in fam.delta_edges],
        "counts": [int(c) for c in fam.counts],
        "kept": [bool(k) for k in fam.kept],
    }
    meta.update(fam.meta)
    cols = {"delta_center": fam.delta_centers}
    for i in range(fam.densities.shape[0]):
        cols[f"density_bin{i}"] = fam.densities[i]
    _write_csv(out, meta, cols)


def write_return_distribution_csv(dist: ReturnDistribution, out: TextIO) -> None:
    meta = {
        "type": "bookfield.return_distribution",
        "tail_exponent": dist.tail_exponent,
        "tail_exponent_ols": dist.tail_exponent_ols,
        "normalization": dist.normalization,
        "sample_count": dist.sample_count,
        "flags": dist.flags,
    }
    meta.update(dist.meta)
    _write_csv(out, meta, {"r": dist.bin_centers, "pdf": dist.density})
