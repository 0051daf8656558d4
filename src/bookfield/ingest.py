"""Snapshot ingestion and serialization of simulation/analysis outputs.

Wire formats:

* Order-book snapshots: line-delimited JSON objects
  ``{"ts": <sec>, "p": <trade price>, "bids": [[price, vol], ...], "asks": [[price, vol], ...]}``
  with bids sorted descending and asks ascending by price.
* Market-order flows: CSV ``ts,buy,sell`` (header line optional on input).
* Simulation tick records (``records.jsonl``, version 3): a JSON header,
  then per tick the row of little-endian float64 that its ``columns`` and
  ``tracked_cells`` lay out, as ``row.tobytes().hex()``: read one line by
  hand with ``np.frombuffer(bytes.fromhex(line), "<f8")``.  The file keeps
  its ``.jsonl`` name, which callers and perfbench look for.
* Analysis tables and densities: CSV with a one-line JSON metadata header
  comment (``# {...}``).

Text tables print 17 significant digits and step records the float64 bytes,
so serialize-then-parse is an exact round trip.  Parsing is streaming: the
snapshot parser holds one record at a time.  Step records are encoded and
decoded ``_RECORD_BLOCK_ROWS`` rows at a time, and the table writers format
a block of rows per ``%`` call, so none holds the whole table, the file's
text or a Python object per number.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dataclass_field
from itertools import islice
from typing import Iterable, Iterator, TextIO

import numpy as np

from .analyzers import Curve, HistogramFamily, ReturnDistribution, SeriesFrame
from .errors import DataError
from .fokker_planck import ReturnDensity

__all__ = [
    "SnapshotRecord",
    "MarketOrderRecord",
    "ParseReport",
    "parse_snapshots",
    "write_snapshots",
    "parse_market_orders",
    "write_market_orders",
    "to_log_grid",
    "build_frame",
    "write_step_records",
    "read_step_records_frame",
    "write_density_csv",
    "write_curve_csv",
    "write_histogram_family_csv",
    "write_return_distribution_csv",
]

_MALFORMED_HARD_LIMIT = 0.10
_GAP_FACTOR = 5.0  # a snapshot spacing above this many dt is a data gap
_BLOCK_VALUES = 8192  # floats a table writer formats per % call
_RECORD_BLOCK_ROWS = 64  # step records encoded per bytes.hex and decoded per bytes.fromhex call
# A step-record row: the per-tick numbers, then one number per tracked cell for bid and for ask.
_RECORD_COLUMNS = ("t", "v", "n0", "mo_buy", "mo_sell", "spill_bid", "spill_ask", "bid", "ask")


def _row_blocks(columns: list[np.ndarray], values: int) -> Iterator[np.ndarray]:
    """The rows of ``columns`` (1-D, or 2-D with one row per table row), ~``values`` floats a block."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    cols = [c[:, None] if c.ndim == 1 else c for c in cols]
    rows = max(1, values // sum(c.shape[1] for c in cols))
    for start in range(0, len(cols[0]), rows):
        yield np.hstack([c[start : start + rows] for c in cols])


def _write_table(out: TextIO, columns: list[np.ndarray]) -> None:
    """The rows of ``columns`` as CSV lines of floats.

    Each float is printed in 17 significant digits: '%.17g' % x is
    format(x, '.17g') for every float, NaN, +-inf and -0.0 included, and 17
    digits round-trip float64 exactly.  A block of rows holding about
    ``_BLOCK_VALUES`` floats is formatted per % call: 2,730 rows of a
    3-column table, 4,096 rows of a 2-column density.
    """
    for block in _row_blocks(columns, _BLOCK_VALUES):
        line = ",".join(["%.17g"] * block.shape[1]) + "\n"
        out.write((line * len(block)) % tuple(block.ravel().tolist()))


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
        if not all(map(math.isfinite, (ts, buy, sell))):
            raise DataError(f"market-order line {lineno}: non-finite value")
        if buy < 0.0 or sell < 0.0:
            raise DataError(f"market-order line {lineno}: negative volume")
        out.append(MarketOrderRecord(ts=ts, buy_volume=buy, sell_volume=sell))
    return out


def write_market_orders(records: Iterable[MarketOrderRecord], out: TextIO) -> None:
    out.write("ts,buy,sell\n")
    rows = np.array([(r.ts, r.buy_volume, r.sell_volume) for r in records], dtype=float)
    _write_table(out, [rows.reshape(-1, 3)])


def to_log_grid(record: SnapshotRecord, dx: float, L: float) -> tuple[np.ndarray, np.ndarray]:
    """Accumulate ladder volumes into log-distance cells of width dx over [0, L): (bid, ask).

    Each order's distance is x = |ln(trade price) - ln(price)|, assigned to
    cell floor(x / dx); volume beyond L is dropped.
    """
    if not (dx > 0.0) or not (L > dx):
        raise ValueError("need dx > 0 and L > dx")
    n_cells = int(round(L / dx))
    lp = math.log(record.trade_price)
    grids = []
    for ladder in (record.bids, record.asks):
        cells = np.zeros(n_cells)
        for price, vol in ladder:
            x = abs(lp - math.log(price))
            i = int(math.floor(x / dx))
            if i < n_cells:
                cells[i] += vol
        grids.append(cells)
    return grids[0], grids[1]


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
        bid[i], ask[i] = to_log_grid(r, dx, L)
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
    """Serialize a SimulationResult as a JSON header line and one hex float64 row per tick."""
    header = {
        "type": "bookfield.steprecords",
        "version": 3,
        "dx": result.dx,
        "dt": result.dt,
        "tracked_cells": [int(c) for c in result.tracked_cells],
        "columns": list(_RECORD_COLUMNS),
    }
    out.write(json.dumps(header) + "\n")
    columns = [result.times, result.velocities, result.n0s, result.mo_buy, result.mo_sell,
               result.spill_bid, result.spill_ask, result.bid_tracks, result.ask_tracks]
    width = len(_RECORD_COLUMNS) - 2 + 2 * len(result.tracked_cells)
    for block in _row_blocks(columns, _RECORD_BLOCK_ROWS * width):
        out.write(block.astype("<f8", copy=False).tobytes().hex("\n", 8 * width) + "\n")


def _record_rows(lines: list[str], width: int) -> np.ndarray:
    """Decode record lines as one float table; ValueError unless each is ``width`` hex float64s."""
    if not all(line.endswith("\n") for line in lines):
        raise ValueError("the line is cut short (it does not end in a newline)")
    if wrong := [len(line) - 1 for line in lines if len(line) != 16 * width + 1]:
        raise ValueError(f"a line must hold {width} numbers in hex, got {wrong[0] / 16:g}")
    data = bytes.fromhex("".join(lines))  # skips the newlines, and any other whitespace
    if len(data) != 8 * width * len(lines):
        raise ValueError("a line holds whitespace among its hex digits")
    return np.frombuffer(data, "<f8").reshape(len(lines), width)


def read_step_records_frame(lines: Iterable[str]) -> SeriesFrame:
    """Read a step-record stream back into a SeriesFrame.

    Records are decoded ``_RECORD_BLOCK_ROWS`` lines at a time, by one
    ``bytes.fromhex`` and one ``np.frombuffer``; only a block that fails is
    decoded again line by line, to name its first bad line.  Raises DataError
    for an empty stream, a header that is not a version-3 step-record header
    with ``dx``, ``tracked_cells`` and ``columns`` (an older file must be
    written again by ``simulate``), a stream without records, and a record
    line that is not ``len(columns) - 2 + 2 * len(tracked_cells)`` float64s
    in hex ending in a newline, or whose ``t`` is not above the previous
    record's; the message names the line's number, blank lines counted.
    """
    it = enumerate(lines, start=1)
    try:
        _, first = next(it)
    except StopIteration:
        raise DataError("empty step-record stream") from None
    try:
        header = json.loads(first)
    except json.JSONDecodeError as exc:
        raise DataError(f"step-record line 1: {exc.msg}") from None
    if not isinstance(header, dict) or header.get("type") != "bookfield.steprecords":
        raise DataError("not a bookfield step-record stream (bad header)")
    if header.get("version") != 3:
        raise DataError(f"step-record version {header.get('version')!r} is not supported "
                        "(only 3); run simulate again to write the records")
    if header.get("columns") != list(_RECORD_COLUMNS):
        raise DataError(f"step-record columns must be {list(_RECORD_COLUMNS)}")
    try:
        dx = float(header["dx"])
        cells = np.asarray(header["tracked_cells"], dtype=int)
        if cells.ndim != 1:
            raise ValueError("tracked_cells must be a list of cell indices")
    except KeyError as exc:
        raise DataError(f"step-record header lacks {exc.args[0]}") from None
    except (TypeError, ValueError) as exc:
        raise DataError(f"bad step-record header: {exc}") from None
    bid_at = len(_RECORD_COLUMNS) - 2  # the per-tick numbers come first
    ask_at, width = bid_at + len(cells), bid_at + 2 * len(cells)
    numbered = ((lineno, line) for lineno, line in it if not line.isspace())
    tables = []
    t_prev = -math.inf
    while block := list(islice(numbered, _RECORD_BLOCK_ROWS)):
        try:
            table = _record_rows([line for _, line in block], width)
        except ValueError:
            for lineno, line in block:
                try:
                    _record_rows([line], width)
                except ValueError as exc:
                    raise DataError(f"step-record line {lineno}: {exc}") from None
            raise
        t = table[:, 0]
        behind = np.flatnonzero(~(np.diff(t, prepend=t_prev) > 0.0))  # NaN t too
        if behind.size:
            raise DataError(f"step-record line {block[behind[0]][0]}: t does not increase")
        t_prev = t[-1]
        tables.append(table)
    if not tables:
        raise DataError("step-record stream has a header but no records")

    def column(index) -> np.ndarray:
        return np.concatenate([table[:, index] for table in tables])

    return SeriesFrame(
        times=column(0),
        velocities=column(1),
        n0s=column(2),
        x_bins=cells * dx,
        bid=column(slice(bid_at, ask_at)),
        ask=column(slice(ask_at, width)),
        mo_flows=column(slice(3, 5)),  # mo_buy, mo_sell
    )


def _write_csv(out: TextIO, meta: dict, columns: dict[str, np.ndarray]) -> None:
    out.write("# " + json.dumps(meta) + "\n")
    out.write(",".join(columns) + "\n")
    _write_table(out, list(columns.values()))


def write_density_csv(density: ReturnDensity, out: TextIO, meta: dict) -> None:
    m = {"type": "bookfield.density", "normalization_check": density.normalization_check, **meta}
    _write_csv(out, m, {"v": density.grid, "p": density.density})


def write_curve_csv(curve: Curve, out: TextIO, name: str) -> None:
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
