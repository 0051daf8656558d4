"""Minimal CS- and KSTT-style comparison models.

Both baselines reuse the co-moving lattice but replace the stable-noise field
updates with finite-variance point processes of unit-size orders (Poisson
placement and market-order arrivals, binomial cancellation), which is what
makes their return distributions thin-tailed:

* CS: placement and cancellation rates ignore the velocity entirely, and
  market orders arrive at a constant rate on both sides -- no reaction to the
  changing price.  The velocity noise is then additive with
  velocity-independent variance, so returns come out Gaussian.
* KSTT: every trader is a trend follower.  Market-order arrival means follow
  the tanh/sech response, and the placement trend coupling is uniform in x
  (no decay away from the price), so the velocity-volume correlation does not
  taper off at large x.  Order modification (diffusion) is absent.

Each model is a tick engine for ``dynamics.run_ticks``, the run loop the
continuous-field simulator uses, so every run emits the same per-tick records
and every analyzer applies unchanged.  The engine picks CS or KSTT once, when
it is built: KSTT's placement and market-order means are the one tanh/sech law
``dynamics.trend_response``, with the activity profiles evaluated once per run.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import SimulationResult, market_order_rate, run_ticks, trend_response
from .field import MarketOrderParams, OrderBookField, PlacementActivityParams, shift_boundary
from .profiles import Profile

__all__ = ["CSParams", "KSTTParams", "run_baseline"]


@dataclass(frozen=True)
class CSParams:
    """Point-process order book with no velocity feedback anywhere."""

    placement_rate: Profile  # expected orders per cell per tick
    cancel_prob: float  # per-order cancellation probability per tick
    mo_volume: float  # mean market-order volume per side per tick (velocity-independent)
    n0_floor: float = 1e-6

    def __post_init__(self) -> None:
        if not (0.0 <= self.cancel_prob <= 1.0):
            raise ValueError(f"cancel_prob must be in [0, 1], got {self.cancel_prob}")
        if self.mo_volume < 0.0 or self.n0_floor <= 0.0:
            raise ValueError("mo_volume >= 0 and n0_floor > 0 required")


@dataclass(frozen=True)
class KSTTParams:
    """Trend-following point-process book: uniform trend coupling, no diffusion."""

    activity: PlacementActivityParams  # k0_in must be constant in x
    cancel_prob: float
    mo: MarketOrderParams  # market-order arrival means follow the velocity response
    n0_floor: float = 1e-6

    def __post_init__(self) -> None:
        if not (0.0 <= self.cancel_prob <= 1.0):
            raise ValueError(f"cancel_prob must be in [0, 1], got {self.cancel_prob}")
        if self.n0_floor <= 0.0:
            raise ValueError(f"n0_floor must be positive, got {self.n0_floor}")


class _PointProcessEngine:
    """The CS/KSTT tick on a unit-tick lattice, for run_ticks.

    ``means(v)`` is the model's (bid, ask, buy, sell) Poisson means at velocity v.
    Per tick it draws, in this order: Poisson bid and ask placements, binomial
    bid and ask cancellations, Poisson buy and sell market orders.
    """

    def __init__(self, params: CSParams | KSTTParams, x: np.ndarray, rng: np.random.Generator):
        self.p = params
        self.rng = rng
        if isinstance(params, CSParams):
            rate = np.maximum(np.asarray(params.placement_rate(x), dtype=float), 0.0)
            self.means = lambda v: (rate, rate, params.mo_volume, params.mo_volume)
        else:
            params.activity.validate_on(x)
            activity = params.activity.evaluate(x)
            self.means = lambda v: (*trend_response(v, *activity), *market_order_rate(v, params.mo))

    def tick(self, field: OrderBookField, v: float):
        p, rng = self.p, self.rng
        bid, ask = field.bid, field.ask
        lam_bid, lam_ask, mean_buy, mean_sell = self.means(v)
        # placement: Poisson counts of unit orders
        bid += rng.poisson(lam_bid)
        ask += rng.poisson(lam_ask)
        # cancellation: binomial thinning of resting orders
        if p.cancel_prob > 0.0:
            nb = np.floor(bid).astype(np.int64)
            na = np.floor(ask).astype(np.int64)
            bid -= rng.binomial(nb, p.cancel_prob)
            ask -= rng.binomial(na, p.cancel_prob)
            np.maximum(bid, 0.0, out=bid)
            np.maximum(ask, 0.0, out=ask)
        # market orders: Poisson volumes
        buy = float(rng.poisson(mean_buy))
        sell = float(rng.poisson(mean_sell))
        eaten_ask = min(buy, float(ask[0]))
        eaten_bid = min(sell, float(bid[0]))
        ask[0] -= eaten_ask
        bid[0] -= eaten_bid
        n0 = float(bid[0] + ask[0])
        v = (eaten_ask - eaten_bid) / max(n0, p.n0_floor)
        _, spill = shift_boundary(field, v)
        field.t += 1.0
        return v, n0, eaten_ask, eaten_bid, spill


def run_baseline(
    params: CSParams | KSTTParams,
    field: OrderBookField,
    steps: int,
    seed: int,
    tracked_cells=None,
) -> SimulationResult:
    """Run the comparison model of ``params`` (CS or KSTT) on the given field (mutated in place).

    Raises NumericError naming the tick if the velocity outgrows the grid.
    """
    if not isinstance(params, (CSParams, KSTTParams)):
        raise ValueError(f"params must be CSParams or KSTTParams, got {type(params).__name__}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    engine = _PointProcessEngine(params, field.x, np.random.default_rng(seed))
    return run_ticks(engine, field, steps, 1.0, tracked_cells)
