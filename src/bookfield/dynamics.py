"""One-tick evolution of the continuous-field order-book model.

Each tick applies, in a fixed operator-splitting order:

    (a) order modification as diffusion of D(x) n(x) with zero-flux ends,
    (b) order placement driven by one-sided stable noise,
    (c) order cancellation proportional to the resting volume,
    (d) market-order removal at the boundary cells,
    (e) the price velocity from the boundary continuity balance,
    (f) advection of the co-moving frame by v dt.

The velocity closure is explicit: the market-order imbalance is evaluated at
the previous tick's velocity and divided by the current boundary volume
(floored to keep the near-empty-book case finite).  The splitting order is
fixed for reproducibility; its error is quadratic in dt and immaterial at
tick scale.

The market-order response and the velocity-coupled placement activity are
one tanh/sech law, ``trend_response``; the CF engine, the comparison models
and the market-order fit all call it, and ``market_order_rate`` is its
reading for MarketOrderParams, the same algebra (``_trend``) on floats.

``run_ticks`` is the one run loop of the package: it records ``steps``
ticks of an engine -- the CF engine here, the CS/KSTT engine in
``baselines`` -- into a SimulationResult.  An engine's ``tick`` is steps
(a)-(e) of its model, with (d) the shared ``clear_boundary``; step (f) is
``_advance``, shared by ``run_ticks`` and ``step``.  ``simulate`` is the CF
engine plus ``run_ticks``; ``step`` is a one-tick CF engine that returns the
tick's scalars as a StepRecord (no per-cell volume changes).  Each engine
picks its model once, when it is built, not on every tick (CF: static or
velocity-coupled placement).

The CF engine draws the noise of ``NOISE_CHUNK`` ticks at a time.
``stable_noise`` fills a chunk with capped unit variates in the stream order
of one ``draw`` per tick (at alpha = 1/2, one standard-normal fill), and the
engine applies the per-cell noise scales to it once: sigma_out dt to the
cancellation noise and, on static placement, sigma_in and then dt to the
placement noise.  Each product keeps the operand order of the per-tick
expression it replaces, so a simulate() run is bit-for-bit the same
trajectory as repeated step() calls on one stream.

The noise stream, ``_noise_stream``, is one generator over two 64-tick
buffers, 2 MB at the reference grid (512 cells).  It fills the first chunk in
the calling thread; from then on, one worker thread of an executor fills the
next chunk into the other buffer while the current chunk's ticks run, so the
fill, which releases the interpreter lock, overlaps the tick loop.  The
stream does not change: only the worker touches the RNG while a later chunk
fills, the chunks are filled in order, each waits for the one before it, and
no fill reaches past the run's last tick, so the trajectory and the final RNG
state are those of one fill per chunk in the calling thread.  A run of one
chunk or less, and so step(), builds no executor.  A fill's error surfaces
when its chunk is due; closing the stream waits for a pending fill.  Each
chunk costs a fixed hand-over (the submit, the worker's wake-up and the wait
on its result), which 64 ticks pay half as often as 32.  In one 6 s timing
of the reference run, 128 was no faster than 64 (0.290 s against 0.292 s),
and its 4 MB of buffers added 3.1 MB (7.3 %) to the peak memory.

A velocity that would move the price by half the grid or more in one tick
ends the run with NumericError naming the tick.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import stable_noise
from .errors import NumericError
from .field import (
    MarketOrderParams,
    ModelParams,
    OrderBookField,
    shift_boundary,
)

__all__ = [
    "StepRecord",
    "SimulationResult",
    "trend_response",
    "market_order_rate",
    "clear_boundary",
    "step",
    "run_ticks",
    "simulate",
]

# Ticks of noise the CF engine draws and scales at once; see the module docstring.
NOISE_CHUNK = 64


@dataclass
class StepRecord:
    v: float
    n0: float
    mo_buy: float
    mo_sell: float


def _trend(th, e, k0, k_inf, k1, v0, clamp):
    """(up, down) of trend_response from th = tanh(v/v0) and e = e^-|v/v0|, each clamped at zero."""
    se = 2.0 * e / (1.0 + e * e)
    return clamp((k0 * th + k_inf - k1 * se) * v0, 0.0), clamp((-k0 * th + k_inf - k1 * se) * v0, 0.0)


def trend_response(v, k0, k_inf, k1, v0):
    """The tanh/sech response to velocity v, clamped at zero: (up, down) volumes.

    up = (k0 tanh(v/v0) + k_inf - k1 sech(v/v0)) v0 and down has -k0; the
    constants may be arrays over the grid.  sech(w) = 2 e^-|w| / (1 + e^-2|w|)
    cannot overflow at large |w|.
    """
    w = v / v0
    return _trend(np.tanh(w), np.exp(-abs(w)), k0, k_inf, k1, v0, np.maximum)


def market_order_rate(v: float, p: MarketOrderParams) -> tuple[float, float]:
    """trend_response of ``p`` at v, as floats: market-order (buy, sell) or KSTT (bid, ask) placement."""
    w = v / p.v0
    # np.tanh and np.exp, then float algebra: max agrees with np.maximum on -0.0 and a NaN first operand
    return _trend(float(np.tanh(w)), float(np.exp(-abs(w))), p.k0, p.k_inf, p.k1, p.v0, max)


def _velocity(book, n0, v_prev, p, d3, dx) -> float:
    """Boundary continuity balance: v = [J(v_prev) + dx(D n_ask)(0) - dx(D n_bid)(0)] / n0, n0 floored."""
    (b0, b1, b2), (a0, a1, a2) = book[:, :3].tolist()
    # J: buy-minus-sell market-order volume before clamping; d3: D at cells 0..2; n0: clear_boundary's
    j = 2.0 * p.mo.k0 * p.mo.v0 * float(np.tanh(v_prev / p.mo.v0))
    # One-sided second-order gradients of D*n at x = 0.
    gb = (-3.0 * d3[0] * b0 + 4.0 * d3[1] * b1 - d3[2] * b2) / (2.0 * dx)
    ga = (-3.0 * d3[0] * a0 + 4.0 * d3[1] * a1 - d3[2] * a2) / (2.0 * dx)
    return (j + ga - gb) / max(n0, p.n0_floor)


def _noise_stream(fill, steps: int, length: int):
    """Yield ``steps`` (4, length) noise rows, filled by ``fill`` NOISE_CHUNK ticks at a time."""
    sizes = [min(NOISE_CHUNK, steps - done) for done in range(0, steps, NOISE_CHUNK)]
    bufs = [np.empty((sizes[0], 4, length)) for _ in sizes[:2]]
    chunk = fill(bufs[0])
    if len(sizes) > 1:
        from concurrent.futures import ThreadPoolExecutor  # here, so importing bookfield skips it

        with ThreadPoolExecutor(1) as pool:
            for i, m in enumerate(sizes[1:], 1):
                ahead = pool.submit(fill, bufs[i % 2][:m])
                yield from chunk
                chunk = ahead.result()
    yield from chunk


def clear_boundary(book: np.ndarray, buy: float, sell: float) -> tuple[float, float, float]:
    """Take buys from the ask's cell 0 and sells from the bid's, each at most the cell, in place.

    Returns (eaten_ask, eaten_bid, n0 left), on Python floats: numpy's IEEE arithmetic, less overhead.
    """
    bid0, ask0 = book[:, 0].tolist()
    eaten_ask = min(buy, ask0)
    eaten_bid = min(sell, bid0)
    book[0, 0] = bid0 = bid0 - eaten_bid
    book[1, 0] = ask0 = ask0 - eaten_ask
    return eaten_ask, eaten_bid, bid0 + ask0


class _TickEngine:
    """Per-grid precomputation and the CF tick update.

    Building it checks, before any state changes: 0 < dt <= 1 tick; then
    sigma_in, sigma_out and diffusion, each evaluated once on x = i*dx, are
    finite and nonnegative; then c = max D dt/dx^2 < 0.5 on that diffusion (at
    c = 0.5 the explicit step multiplies the shortest mode by 1 - 4c = -1 each
    tick, so it never decays).
    ``tick`` is the run_ticks interface: it takes the next rows of ``noise``,
    the run's scaled (4, L) noise stream (see the module docstring), each
    chunk scaled once by the ``folds`` of its rows.  ``place(book, v, xi)``,
    fixed when the engine is built, adds the placement of the (2, L) noise
    rows ``xi`` to the book.  Diffusion, static placement and cancellation
    each act on both sides of the book at once, in two work arrays allocated
    here; each element keeps the operand order of the per-side expressions
    they replace.  ``close`` ends the stream.
    """

    def __init__(self, params: ModelParams, length: int, dx: float, dt: float,
                 rng: np.random.Generator, steps: int):
        if not (dt > 0.0):
            raise ValueError(f"dt must be positive, got {dt}")
        if dt > 1.0:
            raise ValueError(f"dt={dt} exceeds one tick, the unit of time")
        x = np.arange(length) * dx
        on_grid = []
        for name in ("sigma_in", "sigma_out", "diffusion"):
            vals = np.asarray(getattr(params, name)(x), dtype=float)
            if not np.all(np.isfinite(vals) & (vals >= 0.0)):
                raise ValueError(f"{name}(x) must be finite and nonnegative over the grid")
            on_grid.append(vals)
        sigma_in, sigma_out, self.d_arr = on_grid
        ratio = float(np.max(self.d_arr)) * dt / dx**2
        if ratio >= 0.5 - 1e-12:
            raise ValueError(f"diffusion stability bound violated: max D*dt/dx^2 = {ratio:.3g}, not < 0.5")
        self.p = params
        self.d3 = self.d_arr[:3].tolist()
        self.dx = dx
        self.c_diff = dt / dx**2
        self.dt = dt
        scale_out = sigma_out * dt
        # Applied to each chunk in order: scale_out * zeta, and (sigma_in * xi) * dt
        # for static placement, the operand order of the per-tick products they replace.
        folds = [(slice(2, 4), scale_out)]
        if params.activity is None:
            folds += [(slice(0, 2), sigma_in), (slice(0, 2), dt)]

            def place(book, v, xi):
                book += xi
        else:
            activity = params.activity.evaluate(x)

            def place(book, v, xi):
                s_bid, s_ask = trend_response(v, *activity)
                book[0] += s_bid * xi[0] * dt
                book[1] += s_ask * xi[1] * dt

        def fill(chunk):
            stable_noise._fill_unit(params.stable, rng, chunk)
            for rows, factor in folds:
                chunk[:, rows] *= factor
            return chunk

        self.place = place
        # fill holds no reference to the engine, so an engine that is not closed is not
        # kept alive by a cycle through its generator
        self.noise = _noise_stream(fill, steps, length)
        self.work = np.empty((2, length))
        self.flux = np.empty((2, length - 1))

    def close(self) -> None:
        """End the noise stream, waiting for a pending fill."""
        self.noise.close()

    def tick(self, field: OrderBookField, v_prev: float):
        """Steps (a)-(e) of one tick on the next noise rows: (v, n0, eaten_ask, eaten_bid)."""
        noise = next(self.noise)
        p, book, work, flux = self.p, field.book, self.work, self.flux
        # diffusion of D n with zero-flux ends, both sides at once
        np.multiply(self.d_arr, book, out=work)
        np.subtract(work[:, 1:], work[:, :-1], out=flux)
        flux *= self.c_diff
        book[:, :-1] += flux
        book[:, 1:] -= flux
        self.place(book, v_prev, noise[:2])
        # cancellation: n -= min(zeta n, n)
        np.multiply(noise[2:], book, out=work)
        np.minimum(work, book, out=work)
        book -= work
        mo_buy, mo_sell = market_order_rate(v_prev, p.mo)
        eaten_ask, eaten_bid, n0 = clear_boundary(book, mo_buy * self.dt, mo_sell * self.dt)
        v = _velocity(book, n0, v_prev, p, self.d3, self.dx)
        return v, n0, eaten_ask, eaten_bid


def _advance(engine, field: OrderBookField, v_prev: float, dt: float):
    """One tick of ``engine``, the frame shift by v dt and the time advance: the tick's scalars and spill.

    A shift too large for the grid raises NumericError and leaves the frame and the time unmoved.
    """
    v, n0, eaten_ask, eaten_bid = engine.tick(field, v_prev)
    try:
        spill = shift_boundary(field, v * dt)
    except ValueError as exc:
        raise NumericError(f"velocity {v:.6g} outgrew the grid: {exc}") from None
    field.t += dt
    return v, n0, eaten_ask, eaten_bid, spill


def step(
    field: OrderBookField,
    v_prev: float,
    params: ModelParams,
    dt: float,
    rng: np.random.Generator,
) -> tuple[OrderBookField, StepRecord]:
    """Advance the field one tick in place, returning it with the tick's StepRecord."""
    engine = _TickEngine(params, field.length, field.dx, dt, rng, steps=1)
    v, n0, mo_buy, mo_sell, _ = _advance(engine, field, v_prev, dt)
    return field, StepRecord(v=v, n0=n0, mo_buy=mo_buy, mo_sell=mo_sell)


@dataclass
class SimulationResult:
    """Per-tick scalars plus per-cell volume tracks at selected cells."""

    times: np.ndarray
    velocities: np.ndarray
    n0s: np.ndarray
    mo_buy: np.ndarray
    mo_sell: np.ndarray
    spill_bid: np.ndarray
    spill_ask: np.ndarray
    tracked_cells: np.ndarray
    bid_tracks: np.ndarray
    ask_tracks: np.ndarray
    dx: float
    dt: float

    def to_frame(self):
        """View the run as a SeriesFrame for the analyzers."""
        from .analyzers import SeriesFrame

        return SeriesFrame(
            times=self.times,
            velocities=self.velocities,
            n0s=self.n0s,
            x_bins=self.tracked_cells * self.dx,
            bid=self.bid_tracks,
            ask=self.ask_tracks,
            mo_flows=np.column_stack([self.mo_buy, self.mo_sell]),
            segments=((0, len(self.times)),),
        )


def run_ticks(engine, field: OrderBookField, steps: int, dt: float,
              tracked_cells=None) -> SimulationResult:
    """Run and record ``steps`` ticks of ``engine``, from v = 0, on the field (mutated in place).

    ``engine.tick(field, v)`` applies the engine's model for one tick from
    velocity ``v`` and returns ``(v, n0, eaten_ask, eaten_bid)``; ``_advance``
    then shifts the frame by v dt and advances ``field.t`` by ``dt``.
    tracked_cells: cell indices whose bid/ask volumes are recorded every tick
    (defaults to 8 cells spread log-evenly across the grid).

    steps < 1 raises ValueError before the field changes.  A tick that
    fails -- the velocity outgrowing the grid -- raises NumericError naming
    the tick; the field then holds the state reached at that tick.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if field.t == 0.0 and field.fractional_offset == 0.0:
        # register the price mid-cell so sign jitter of the first ticks does
        # not straddle a cell edge and shuttle volume across the boundary
        field.fractional_offset = 0.5 * field.dx
    if tracked_cells is None:
        tracked_cells = np.unique(np.geomspace(1, field.length - 1, 8).astype(int))
    tracked_cells = np.asarray(tracked_cells, dtype=int)
    times = field.t + dt * (1.0 + np.arange(steps))
    out_v, out_n0, out_mob, out_mos, out_spb, out_spa = np.empty((6, steps))
    out_book = np.empty((steps, 2, len(tracked_cells)))
    v = 0.0
    for t in range(steps):
        try:
            v, n0, mob, mos, spill = _advance(engine, field, v, dt)
        except (NumericError, ValueError) as exc:
            raise NumericError(f"tick {t} of {steps}: {exc}") from None
        out_v[t] = v
        out_n0[t] = n0
        out_mob[t] = mob
        out_mos[t] = mos
        out_spb[t] = spill.bid
        out_spa[t] = spill.ask
        field.book.take(tracked_cells, 1, out_book[t])
    return SimulationResult(
        times=times, velocities=out_v, n0s=out_n0, mo_buy=out_mob, mo_sell=out_mos,
        spill_bid=out_spb, spill_ask=out_spa, tracked_cells=tracked_cells,
        bid_tracks=out_book[:, 0], ask_tracks=out_book[:, 1], dx=field.dx, dt=dt,
    )


def simulate(
    params: ModelParams,
    field: OrderBookField,
    steps: int,
    dt: float,
    seed: int,
    tracked_cells=None,
) -> SimulationResult:
    """Run ``steps`` ticks of the CF model from the given field (mutated in place).

    tracked_cells: as in run_ticks.  Raises NumericError naming the tick
    index if the velocity outgrows the grid; the field then holds the state
    reached at that tick.
    """
    engine = _TickEngine(params, field.length, field.dx, dt, np.random.default_rng(seed), steps)
    try:
        return run_ticks(engine, field, steps, dt, tracked_cells)
    finally:
        engine.close()  # a failed run can leave the next chunk's fill pending
