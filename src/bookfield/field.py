"""Bid/ask volume fields on a uniform log-price lattice anchored at the trading price.

Cell i of each side holds the order volume at log-price distance x = i*dx from
the current trading price (bid side: price below, ask side: price above).  The
book is one (2, L) array, ``OrderBookField.book``, whose rows are the bid and
the ask; ``bid`` and ``ask`` are views of those rows, so an engine updates
both sides in one numpy or RNG call and a reader of one side sees it.  The
lattice co-moves with the price: a price change is a rigid translation of both
sides relative to the x = 0 boundary, which keeps transport exact and free of
numerical diffusion.  Sub-cell price motion accumulates in ``fractional_offset``
and is applied as integer-cell shifts once a full cell is crossed.

Sign convention for translations (from the chain-rule advection terms): a
price *rise* moves ask cells toward x = 0 -- ask volume crossing the boundary
is returned to the caller as spill (those orders are consumed by the moving
price) -- and moves bid cells away from it, injecting empty cells at the bid
boundary.  A price fall is the mirror image.  Volume pushed past the far end
of the grid piles up in the last cell so translation conserves volume exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .profiles import Profile
from .stable_noise import StableParams

__all__ = [
    "OrderBookField",
    "MarketOrderParams",
    "PlacementActivityParams",
    "ModelParams",
    "BoundarySpill",
    "check_trend_constants",
    "new_field",
    "shift_boundary",
]


class BoundarySpill(NamedTuple):
    """Volume advected past x = 0, per side, during one translation."""

    bid: float
    ask: float


@dataclass
class OrderBookField:
    """Copies ``bid`` and ``ask`` into the (2, L) ``book``; ``bid`` and ``ask`` view its rows."""

    bid: np.ndarray
    ask: np.ndarray
    dx: float
    t: float = 0.0
    fractional_offset: float = 0.0

    def __post_init__(self) -> None:
        bid, ask = np.asarray(self.bid, dtype=float), np.asarray(self.ask, dtype=float)
        if bid.shape != ask.shape or bid.ndim != 1:
            raise ValueError("bid and ask must be 1-d arrays of equal length")
        if len(bid) < 4:
            raise ValueError(f"length must be >= 4, got {len(bid)}")
        if not (self.dx > 0.0):
            raise ValueError(f"dx must be positive, got {self.dx}")
        self.book = np.stack((bid, ask))
        self.bid, self.ask = self.book
        if not np.all(np.isfinite(self.book) & (self.book >= 0.0)):
            raise ValueError("order volumes must be finite and nonnegative")
        if not (0.0 <= self.fractional_offset < self.dx):
            raise ValueError("fractional_offset must lie in [0, dx)")

    @property
    def length(self) -> int:
        return len(self.bid)

    @property
    def extent(self) -> float:
        """Domain extent L = length * dx in log-price units."""
        return self.length * self.dx

    @property
    def x(self) -> np.ndarray:
        """Cell coordinates i*dx."""
        return np.arange(self.length) * self.dx


def check_trend_constants(k0, k_inf, k1, v0, where: str) -> None:
    """Require v0 > 0, k0 >= 0, k1 >= 0, k_inf >= k1 of numbers or grid arrays; NaN fails.

    The ValueError names ``where`` and the failed condition, never the values.
    """
    for holds, condition in ((v0 > 0.0, "v0 > 0"), (k0 >= 0.0, "k0 >= 0"),
                             (k1 >= 0.0, "k1 >= 0"), (k_inf >= k1, "k_inf >= k1")):
        if not np.all(holds):
            raise ValueError(f"{where}: {condition} required (NaN fails it)")


@dataclass(frozen=True)
class MarketOrderParams:
    """Constants of a tanh/sech response to velocity: market orders, or KSTT's placement, per tick."""

    k0: float
    k_inf: float
    k1: float
    v0: float

    def __post_init__(self) -> None:
        check_trend_constants(self.k0, self.k_inf, self.k1, self.v0, "market-order constants")


@dataclass(frozen=True)
class PlacementActivityParams:
    """Spatial profiles of the velocity-coupled limit-order placement activity."""

    k0_in: Profile
    k_inf_in: Profile
    k1_in: Profile
    v0_in: Profile

    def evaluate(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(k0, k_inf, k1, v0) at x, in the argument order of dynamics.trend_response.

        They pass check_trend_constants, so no caller runs on unchecked constants.
        """
        consts = tuple(np.asarray(f(x), dtype=float)
                       for f in (self.k0_in, self.k_inf_in, self.k1_in, self.v0_in))
        check_trend_constants(*consts, "activity profiles on the grid")
        return consts


@dataclass(frozen=True)
class ModelParams:
    """All constants of the continuous-field model.

    ``sigma_in`` is the static placement scale used when ``activity`` is None;
    with activity present the placement scale is the velocity-coupled activity
    function evaluated per side.  A step of dt scales the stable placement and
    cancellation increments by dt: the tick is the native unit of the
    empirical fits.

    Only the scalars are checked here; the CF engine in ``dynamics`` checks
    the profiles on the grid of its run.
    """

    stable: StableParams
    sigma_in: Profile
    sigma_out: Profile
    diffusion: Profile
    mo: MarketOrderParams
    tau: float = 1.0
    n0_floor: float = 1e-6
    activity: PlacementActivityParams | None = None

    def __post_init__(self) -> None:
        if not (self.tau > 0.0):
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not (self.n0_floor > 0.0):
            raise ValueError(f"n0_floor must be positive, got {self.n0_floor}")


def new_field(length: int, dx: float, init_profile: Callable[[np.ndarray], np.ndarray]) -> OrderBookField:
    """Create a field with both sides initialized to init_profile(x) at the cells x = i*dx."""
    vals = init_profile(np.arange(length) * dx)
    return OrderBookField(bid=vals, ask=vals, dx=dx)


def _shift_toward_boundary(arr: np.ndarray, k: int) -> float:
    """Translate arr k cells toward x=0; cells crossing x=0 spill. Returns spill."""
    spill = float(arr[:k].sum())
    arr[:-k] = arr[k:]
    arr[-k:] = 0.0
    return spill


def _shift_away_from_boundary(arr: np.ndarray, k: int) -> None:
    """Translate arr k cells away from x=0; far-end volume piles up in the last cell."""
    pile = float(arr[-k:].sum())
    arr[k:] = arr[:-k]
    arr[:k] = 0.0
    arr[-1] += pile


def shift_boundary(field: OrderBookField, d_logprice: float) -> BoundarySpill:
    """Advect both sides by a log-price change, mutating the field in place.

    Returns the volume spilled past x = 0 on each side, for market-order
    accounting by the caller.  A change too large for the grid raises
    ValueError and leaves the field as it was.
    """
    half = field.extent / 2.0
    if not (abs(d_logprice) < half):
        raise ValueError(
            f"|d_logprice|={abs(d_logprice):.6g} exceeds half the grid extent {half:.6g}"
        )
    total = field.fractional_offset + d_logprice
    k = math.floor(total / field.dx)
    offset = total - k * field.dx
    # Float roundoff can put the offset on dx (carry a cell) or just below 0 (clamp).
    if offset >= field.dx:
        offset -= field.dx
        k += 1
    elif offset < 0.0:
        offset = 0.0
    if abs(k) >= field.length // 2:
        raise ValueError(f"shift of {abs(k)} cells exceeds half the grid ({field.length} cells)")
    field.fractional_offset = offset
    spill = [0.0, 0.0]
    if k:
        toward = 1 if k > 0 else 0  # a rise moves the ask (row 1) toward x = 0
        spill[toward] = _shift_toward_boundary(field.book[toward], abs(k))
        _shift_away_from_boundary(field.book[1 - toward], abs(k))
    return BoundarySpill(*spill)
