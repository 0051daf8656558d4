"""Minimal CS- and KSTT-style comparison models.

Both baselines reuse the co-moving lattice but replace the stable-noise field
updates with finite-variance point processes (Poisson order placement and
market-order arrivals, binomial cancellation), which is what makes their
return distributions thin-tailed:

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
and every analyzer applies unchanged.  KSTT's placement and market-order means
are the one tanh/sech law ``dynamics.trend_response``, with the activity
profiles evaluated once per run.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .dynamics import SimulationResult, market_order_rate, run_ticks, trend_response
from .field import MarketOrderParams, OrderBookField, PlacementActivityParams, shift_boundary
from .profiles import Profile

__all__ = ["BaselineKind", "CSParams", "KSTTParams", "run_baseline"]


class BaselineKind(str, enum.Enum):
    CS = "cs"
    KSTT = "kstt"


@dataclass(frozen=True)
class CSParams:
    """Point-process order book with no velocity feedback anywhere."""

    placement_rate: Profile  # expected orders per cell per tick
    cancel_prob: float  # per-order cancellation probability per tick
    mo_volume: float  # mean market-order volume per side per tick (velocity-independent)
    order_size: float = 1.0
    n0_floor: float = 1e-6

    def __post_init__(self) -> None:
        if not (0.0 <= self.cancel_prob <= 1.0):
            raise ValueError(f"cancel_prob must be in [0, 1], got {self.cancel_prob}")
        if self.mo_volume < 0.0 or self.order_size <= 0.0 or self.n0_floor <= 0.0:
            raise ValueError("mo_volume >= 0, order_size > 0, n0_floor > 0 required")


@dataclass(frozen=True)
class KSTTParams:
    """Trend-following point-process book: uniform trend coupling, no diffusion."""

    activity: PlacementActivityParams  # k0_in must be constant in x
    cancel_prob: float
    mo: MarketOrderParams  # market-order arrival means follow the velocity response
    order_size: float = 1.0
    n0_floor: float = 1e-6

    def __post_init__(self) -> None:
        if not (0.0 <= self.cancel_prob <= 1.0):
            raise ValueError(f"cancel_prob must be in [0, 1], got {self.cancel_prob}")
        if self.order_size <= 0.0 or self.n0_floor <= 0.0:
            raise ValueError("order_size > 0 and n0_floor > 0 required")


class _PointProcessEngine:
    """The CS/KSTT tick on a unit-tick lattice, for run_ticks.

    Per tick it draws, in this order: Poisson bid and ask placements, binomial
    bid and ask cancellations, Poisson buy and sell market orders.
    """

    def __init__(self, params: CSParams | KSTTParams, x: np.ndarray, rng: np.random.Generator):
        self.p = params
        self.rng = rng
        if isinstance(params, CSParams):
            self.rate = np.maximum(np.asarray(params.placement_rate(x), dtype=float), 0.0)
        else:
            self.activity = params.activity.evaluate(x)

    def tick(self, field: OrderBookField, v: float):
        p, rng, os_ = self.p, self.rng, self.p.order_size
        bid, ask = field.bid, field.ask
        # placement: Poisson counts of unit orders; KSTT means follow the trend response
        if isinstance(p, CSParams):
            lam_bid = lam_ask = self.rate
            mean_buy = mean_sell = p.mo_volume
        else:
            mb, ma = trend_response(v, *self.activity)
            lam_bid, lam_ask = mb / os_, ma / os_
            mean_buy, mean_sell = market_order_rate(v, p.mo)
        bid += os_ * rng.poisson(lam_bid)
        ask += os_ * rng.poisson(lam_ask)
        # cancellation: binomial thinning of resting orders
        if p.cancel_prob > 0.0:
            nb = np.floor(bid / os_).astype(np.int64)
            na = np.floor(ask / os_).astype(np.int64)
            bid -= os_ * rng.binomial(nb, p.cancel_prob)
            ask -= os_ * rng.binomial(na, p.cancel_prob)
            np.maximum(bid, 0.0, out=bid)
            np.maximum(ask, 0.0, out=ask)
        # market orders: Poisson volumes
        buy = os_ * rng.poisson(mean_buy / os_)
        sell = os_ * rng.poisson(mean_sell / os_)
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
    kind: BaselineKind | str,
    params: CSParams | KSTTParams,
    field: OrderBookField,
    steps: int,
    seed: int,
    tracked_cells=None,
) -> SimulationResult:
    """Run a comparison model on the given field (mutated in place).

    Raises NumericError naming the tick if the velocity outgrows the grid.
    """
    kind = BaselineKind(kind)
    if kind is BaselineKind.CS and not isinstance(params, CSParams):
        raise ValueError("CS baseline requires CSParams")
    if kind is BaselineKind.KSTT and not isinstance(params, KSTTParams):
        raise ValueError("KSTT baseline requires KSTTParams")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    engine = _PointProcessEngine(params, field.x, np.random.default_rng(seed))
    return run_ticks(engine, field, steps, 1.0, tracked_cells)
