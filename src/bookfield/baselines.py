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
and every analyzer applies unchanged; a tick clears cells 0 with
``dynamics.clear_boundary`` and leaves the frame shift to ``run_ticks``.  The
engine picks CS or KSTT once, when it is built: KSTT's placement and
market-order means are the one tanh/sech law, each read from a
MarketOrderParams by ``dynamics.market_order_rate``.  A tick draws on the
(2, L) ``field.book`` in C order, bid cells then ask cells, as per-side calls
would.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import SimulationResult, clear_boundary, market_order_rate, run_ticks
from .field import MarketOrderParams, OrderBookField
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

    placement: MarketOrderParams  # (bid, ask) placement means per cell: numbers, so uniform in x
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

    ``place(book, v)`` adds the Poisson placements at velocity v to the book and
    returns the (buy, sell) market-order means.  Per tick it draws, in order:
    placements in one call (CS: per-cell rates; KSTT: one mean per side), one
    binomial call for the cancellations (none at cancel_prob 0), then buy and
    sell market orders as scalar calls.
    """

    def __init__(self, params: CSParams | KSTTParams, x: np.ndarray, rng: np.random.Generator):
        self.p = params
        self.rng = rng
        if isinstance(params, CSParams):
            rates = np.stack([np.maximum(np.asarray(params.placement_rate(x), dtype=float), 0.0)] * 2)

            def place(book, v):
                book += rng.poisson(rates)
                return params.mo_volume, params.mo_volume
        else:
            def place(book, v):
                up, down = market_order_rate(v, params.placement)
                book += rng.poisson([[up], [down]], book.shape)
                return market_order_rate(v, params.mo)

        self.place = place

    def tick(self, field: OrderBookField, v: float):
        """One unit tick of the model from velocity v: (v, n0, eaten_ask, eaten_bid)."""
        rng, book = self.rng, field.book
        mean_buy, mean_sell = self.place(book, v)
        # cancellation: binomial thinning of floor(volume) orders (book >= 0, so truncation is
        # floor); at most floor(n) of them leave, so n stays >= 0
        book -= rng.binomial(book.astype(np.int64), self.p.cancel_prob)
        # market orders: Poisson volumes
        buy = float(rng.poisson(mean_buy))
        sell = float(rng.poisson(mean_sell))
        eaten_ask, eaten_bid, n0 = clear_boundary(book, buy, sell)
        return (eaten_ask - eaten_bid) / max(n0, self.p.n0_floor), n0, eaten_ask, eaten_bid


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
    engine = _PointProcessEngine(params, field.x, np.random.default_rng(seed))
    return run_ticks(engine, field, steps, 1.0, tracked_cells)
