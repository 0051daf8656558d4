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
one tanh/sech law, ``trend_response``; ``market_order_rate`` and
``placement_scale`` are its two readings, and the comparison models and the
market-order fit use it too.

``step`` advances a field once and reports a full StepRecord (including
per-cell volume changes).  ``run_ticks`` is the one run loop of the package:
it records ``steps`` ticks of an engine -- the CF engine here, the CS/KSTT
engine in ``baselines`` -- into a SimulationResult.  ``simulate`` is the CF
engine plus ``run_ticks``.  The CF engine has the same arithmetic as ``step``
and consumes the RNG stream identically, so a simulate() run is bit-for-bit
the same trajectory as repeated step() calls on one stream.

The CF engine draws the noise of ``NOISE_CHUNK`` ticks at a time: it fills the
uniforms and exponentials tick by tick in the order ``step`` draws them,
transforms the whole chunk in place, then runs the chunk's ticks.  At the
reference grid (512 cells) a chunk array is 1 MB, small enough that filling,
transforming and consuming it stay in cache.

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
    PlacementActivityParams,
    shift_boundary,
)

__all__ = [
    "StepRecord",
    "SimulationResult",
    "trend_response",
    "market_order_rate",
    "order_imbalance",
    "placement_scale",
    "compute_velocity",
    "step",
    "run_ticks",
    "simulate",
    "check_stability",
]

# Ticks of noise the CF engine draws and transforms at once; see the module docstring.
NOISE_CHUNK = 64


@dataclass
class StepRecord:
    t: float
    v: float
    n0: float
    mo_buy: float
    mo_sell: float
    delta_bid: np.ndarray
    delta_ask: np.ndarray
    spill_bid: float = 0.0
    spill_ask: float = 0.0


def trend_response(v, k0, k_inf, k1, v0):
    """The tanh/sech response to velocity v, clamped at zero: (up, down) volumes.

    up = (k0 tanh(v/v0) + k_inf - k1 sech(v/v0)) v0 and down has -k0; the
    constants may be arrays over the grid.  sech(w) = 2 e^-|w| / (1 + e^-2|w|)
    cannot overflow at large |w|.
    """
    w = v / v0
    th = np.tanh(w)
    e = np.exp(-abs(w))  # builtin abs: ~2 us cheaper than np.abs on a float
    se = 2.0 * e / (1.0 + e * e)
    up = np.maximum((k0 * th + k_inf - k1 * se) * v0, 0.0)
    down = np.maximum((-k0 * th + k_inf - k1 * se) * v0, 0.0)
    return up, down


def market_order_rate(v: float, p: MarketOrderParams) -> tuple[float, float]:
    """Market-order volumes (buy, sell) per tick at velocity v, clamped at zero."""
    buy, sell = trend_response(v, p.k0, p.k_inf, p.k1, p.v0)
    return float(buy), float(sell)


def order_imbalance(v: float, p: MarketOrderParams) -> float:
    """Buy-minus-sell market-order volume before clamping: 2 k0 v0 tanh(v/v0)."""
    return 2.0 * p.k0 * p.v0 * float(np.tanh(v / p.v0))


def placement_scale(x, v: float, side: str, p: PlacementActivityParams):
    """Velocity-coupled placement activity; trend term positive for bids, negative for asks."""
    if side not in ("bid", "ask"):
        raise ValueError(f"side must be 'bid' or 'ask', got {side!r}")
    bid, ask = trend_response(v, *p.evaluate(np.asarray(x, dtype=float)))
    return bid if side == "bid" else ask


def compute_velocity(field: OrderBookField, v_prev: float, p: ModelParams) -> float:
    """Boundary continuity balance: v = [J(v_prev) + dx(D n_ask)(0) - dx(D n_bid)(0)] / n0."""
    d = np.asarray(p.diffusion(field.x[:3]), dtype=float)
    return _velocity(field.bid, field.ask, v_prev, p, d, field.dx)


def _velocity(bid, ask, v_prev, p, d3, dx) -> float:
    n0 = float(bid[0] + ask[0])
    j = order_imbalance(v_prev, p.mo)
    # One-sided second-order gradients of D*n at x = 0.
    gb = (-3.0 * d3[0] * bid[0] + 4.0 * d3[1] * bid[1] - d3[2] * bid[2]) / (2.0 * dx)
    ga = (-3.0 * d3[0] * ask[0] + 4.0 * d3[1] * ask[1] - d3[2] * ask[2]) / (2.0 * dx)
    return (j + ga - gb) / max(n0, p.n0_floor)


def check_stability(params: ModelParams, length: int, dx: float, dt: float) -> None:
    """Raise before any mutation if the diffusion bound or tick bound is violated."""
    if not (dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt}")
    if dt > params.tau:
        raise ValueError(f"dt={dt} exceeds the tick tau={params.tau}")
    x = np.arange(length) * dx
    dmax = float(np.max(np.asarray(params.diffusion(x), dtype=float)))
    if dmax * dt / dx**2 > 0.5 + 1e-12:
        raise ValueError(
            f"diffusion stability bound violated: max D*dt/dx^2 = {dmax * dt / dx**2:.3g} > 0.5"
        )


class _TickEngine:
    """Per-grid precomputation and the CF tick update.

    ``update`` advances one tick on given unit-scale noise (``step`` draws it).
    ``tick`` is the run_ticks interface: it takes the noise from the stream of
    ``rng``, drawn NOISE_CHUNK ticks at a time for a run of ``steps`` ticks.
    """

    def __init__(self, params: ModelParams, length: int, dx: float, dt: float,
                 rng: np.random.Generator | None = None, steps: int = 0):
        check_stability(params, length, dx, dt)
        params.validate_on(np.arange(length) * dx)
        self.p = params
        self.dx = dx
        self.dt = dt
        x = np.arange(length) * dx
        self.d_arr = np.asarray(params.diffusion(x), dtype=float)
        self.sigma_out_arr = np.asarray(params.sigma_out(x), dtype=float)
        self.c_diff = dt / dx**2
        self.mo_frac = dt / params.tau
        alpha = params.stable.alpha
        power = 1.0 if params.noise_time_scaling == "linear" else 1.0 / alpha
        self.dt_noise = params.tau * (dt / params.tau) ** power
        self.scale_in = params.stable.scale * self.dt_noise
        self.scale_out = self.sigma_out_arr * self.dt_noise * params.stable.scale
        if params.activity is None:
            s = np.asarray(params.sigma_in(x), dtype=float)
            self._static_scales = (s, s)
        else:
            self._static_scales = None
            self.activity = params.activity.evaluate(x)
        self.diffusive = bool(np.any(self.d_arr > 0.0))
        self.rng = rng
        self.cap = params.stable.unit_cap
        self.steps_left = steps
        self.u_buf = np.empty((min(NOISE_CHUNK, steps), 4, length))
        self.w_buf = np.empty_like(self.u_buf)
        self.noise = self.u_buf[:0]
        self.next = 0

    def placement_scales(self, v: float) -> tuple[np.ndarray, np.ndarray]:
        if self._static_scales is not None:
            return self._static_scales
        return trend_response(v, *self.activity)

    def _draw_chunk(self) -> None:
        m = min(NOISE_CHUNK, self.steps_left)
        self.steps_left -= m
        u, w = self.u_buf[:m], self.w_buf[:m]
        # Per-tick draw order matches step(): uniforms then exponentials, (4, L)
        # each.  uniform(0, pi) is pi * random() bit for bit on the same stream.
        for j in range(m):
            self.rng.random(out=u[j])
            self.rng.standard_exponential(out=w[j])
        u *= np.pi
        self.noise = stable_noise._kanter_unit(self.p.stable.alpha, u, w)
        if self.cap != np.inf:
            np.minimum(self.noise, self.cap, out=self.noise)
        self.next = 0

    def tick(self, field: OrderBookField, v_prev: float):
        """Advance one tick on the next noise of the chunked stream."""
        if self.next == len(self.noise):
            self._draw_chunk()
        xi_b, xi_a, ze_b, ze_a = self.noise[self.next]
        self.next += 1
        return self.update(field, v_prev, xi_b, xi_a, ze_b, ze_a)

    def update(self, field: OrderBookField, v_prev: float, xi_b, xi_a, ze_b, ze_a):
        """Advance one tick in place. Noise arrays are unit-scale stable draws."""
        p = self.p
        bid, ask = field.bid, field.ask
        if self.diffusive:
            db = self.d_arr * bid
            da = self.d_arr * ask
            fb = db[1:] - db[:-1]
            fa = da[1:] - da[:-1]
            bid[:-1] += self.c_diff * fb
            bid[1:] -= self.c_diff * fb
            ask[:-1] += self.c_diff * fa
            ask[1:] -= self.c_diff * fa
        s_bid, s_ask = self.placement_scales(v_prev)
        bid += s_bid * xi_b * self.scale_in
        ask += s_ask * xi_a * self.scale_in
        np.subtract(bid, np.minimum(self.scale_out * ze_b * bid, bid), out=bid)
        np.subtract(ask, np.minimum(self.scale_out * ze_a * ask, ask), out=ask)
        mo_buy, mo_sell = market_order_rate(v_prev, p.mo)
        mo_buy *= self.mo_frac
        mo_sell *= self.mo_frac
        eaten_ask = min(mo_buy, float(ask[0]))
        eaten_bid = min(mo_sell, float(bid[0]))
        ask[0] -= eaten_ask
        bid[0] -= eaten_bid
        n0 = float(bid[0] + ask[0])
        v = _velocity(bid, ask, v_prev, p, self.d_arr[:3], self.dx)
        try:
            _, spill = shift_boundary(field, v * self.dt)
        except ValueError as exc:
            raise NumericError(f"velocity {v:.6g} outgrew the grid: {exc}") from None
        field.t += self.dt
        return v, n0, eaten_ask, eaten_bid, spill


def step(
    field: OrderBookField,
    v_prev: float,
    params: ModelParams,
    dt: float,
    rng: np.random.Generator,
) -> tuple[OrderBookField, StepRecord]:
    """Advance the field one tick, returning it with a complete StepRecord."""
    engine = _TickEngine(params, field.length, field.dx, dt)
    bid0 = field.bid.copy()
    ask0 = field.ask.copy()
    xi_b, xi_a, ze_b, ze_a = _draw_tick_noise(params.stable, field.length, rng)
    v, n0, mo_buy, mo_sell, spill = engine.update(field, v_prev, xi_b, xi_a, ze_b, ze_a)
    rec = StepRecord(
        t=field.t,
        v=v,
        n0=n0,
        mo_buy=mo_buy,
        mo_sell=mo_sell,
        delta_bid=field.bid - bid0,
        delta_ask=field.ask - ask0,
        spill_bid=spill.bid,
        spill_ask=spill.ask,
    )
    return field, rec


def _draw_tick_noise(stable: stable_noise.StableParams, length: int, rng: np.random.Generator):
    """Unit-scale noise for one tick: rows are (xi_bid, xi_ask, zeta_bid, zeta_ask)."""
    unit = stable_noise.StableParams(
        alpha=stable.alpha, scale=1.0, truncation_quantile=stable.truncation_quantile
    )
    block = stable_noise.draw(unit, (4, length), rng)
    return block[0], block[1], block[2], block[3]


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
    final_field: OrderBookField

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
              tracked_cells=None, v0: float = 0.0) -> SimulationResult:
    """Run and record ``steps`` ticks of ``engine`` from the given field (mutated in place).

    ``engine.tick(field, v)`` advances the field one tick of length ``dt``
    from velocity ``v`` and returns ``(v, n0, eaten_ask, eaten_bid, spill)``.
    tracked_cells: cell indices whose bid/ask volumes are recorded every tick
    (defaults to 8 cells spread log-evenly across the grid).

    A tick that fails -- the velocity outgrowing the grid -- raises
    NumericError naming the tick; the field then holds the state reached at
    that tick.
    """
    if field.t == 0.0 and field.fractional_offset == 0.0:
        # register the price mid-cell so sign jitter of the first ticks does
        # not straddle a cell edge and shuttle volume across the boundary
        field.fractional_offset = 0.5 * field.dx
    if tracked_cells is None:
        tracked_cells = np.unique(np.geomspace(1, field.length - 1, 8).astype(int))
    tracked_cells = np.asarray(tracked_cells, dtype=int)
    times = field.t + dt * (1.0 + np.arange(steps))
    out_v, out_n0, out_mob, out_mos, out_spb, out_spa = np.empty((6, steps))
    out_bid = np.empty((steps, len(tracked_cells)))
    out_ask = np.empty_like(out_bid)
    tick = engine.tick
    v = v0
    for t in range(steps):
        try:
            v, n0, mob, mos, spill = tick(field, v)
        except (NumericError, ValueError) as exc:
            raise NumericError(f"tick {t} of {steps}: {exc}") from None
        out_v[t] = v
        out_n0[t] = n0
        out_mob[t] = mob
        out_mos[t] = mos
        out_spb[t] = spill.bid
        out_spa[t] = spill.ask
        out_bid[t] = field.bid[tracked_cells]
        out_ask[t] = field.ask[tracked_cells]
    return SimulationResult(
        times=times,
        velocities=out_v,
        n0s=out_n0,
        mo_buy=out_mob,
        mo_sell=out_mos,
        spill_bid=out_spb,
        spill_ask=out_spa,
        tracked_cells=tracked_cells,
        bid_tracks=out_bid,
        ask_tracks=out_ask,
        dx=field.dx,
        dt=dt,
        final_field=field,
    )


def simulate(
    params: ModelParams,
    field: OrderBookField,
    steps: int,
    dt: float,
    seed: int,
    tracked_cells=None,
    v0: float = 0.0,
) -> SimulationResult:
    """Run ``steps`` ticks of the CF model from the given field (mutated in place).

    tracked_cells: as in run_ticks.  Raises NumericError naming the tick
    index if the velocity outgrows the grid; the field then holds the state
    reached at that tick.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    engine = _TickEngine(params, field.length, field.dx, dt, np.random.default_rng(seed), steps)
    return run_ticks(engine, field, steps, dt, tracked_cells, v0)
