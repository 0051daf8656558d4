"""Bid/ask volume fields on a uniform log-price lattice anchored at the trading price.

Cell i of each side holds the order volume at log-price distance x = i*dx from
the current trading price (bid side: price below, ask side: price above).  The
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

from dataclasses import dataclass, field as dataclass_field
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
    "new_field",
    "boundary_volume",
    "shift_boundary",
]


class BoundarySpill(NamedTuple):
    """Volume advected past x = 0, per side, during one translation."""

    bid: float
    ask: float


@dataclass
class OrderBookField:
    bid: np.ndarray
    ask: np.ndarray
    dx: float
    t: float = 0.0
    log_price: float = 0.0
    fractional_offset: float = 0.0

    def __post_init__(self) -> None:
        self.bid = np.asarray(self.bid, dtype=float)
        self.ask = np.asarray(self.ask, dtype=float)
        if self.bid.shape != self.ask.shape or self.bid.ndim != 1:
            raise ValueError("bid and ask must be 1-d arrays of equal length")
        if len(self.bid) < 4:
            raise ValueError(f"field needs at least 4 cells, got {len(self.bid)}")
        if not (self.dx > 0.0):
            raise ValueError(f"dx must be positive, got {self.dx}")
        if np.any(self.bid < 0.0) or np.any(self.ask < 0.0):
            raise ValueError("order volumes must be nonnegative")
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

    def copy(self) -> "OrderBookField":
        return OrderBookField(
            bid=self.bid.copy(),
            ask=self.ask.copy(),
            dx=self.dx,
            t=self.t,
            log_price=self.log_price,
            fractional_offset=self.fractional_offset,
        )


@dataclass(frozen=True)
class MarketOrderParams:
    """Constants of the market-order response to velocity (volume per tick at scale v0)."""

    k0: float
    k_inf: float
    k1: float
    v0: float

    def __post_init__(self) -> None:
        if not (self.v0 > 0.0):
            raise ValueError(f"v0 must be positive, got {self.v0}")
        if self.k0 < 0.0 or self.k1 < 0.0:
            raise ValueError("k0 and k1 must be nonnegative")
        if not (self.k_inf >= self.k1):
            raise ValueError(f"k_inf >= k1 required for nonnegative volume, got {self.k_inf} < {self.k1}")


@dataclass(frozen=True)
class PlacementActivityParams:
    """Spatial profiles of the velocity-coupled limit-order placement activity."""

    k0_in: Profile
    k_inf_in: Profile
    k1_in: Profile
    v0_in: Profile

    def evaluate(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(k0, k_inf, k1, v0) at x, in the argument order of dynamics.trend_response."""
        return tuple(np.asarray(f(x), dtype=float)
                     for f in (self.k0_in, self.k_inf_in, self.k1_in, self.v0_in))

    def validate_on(self, x: np.ndarray) -> None:
        k0, ki, k1, v0 = self.evaluate(x)
        if np.any(v0 <= 0.0):
            raise ValueError("v0_in(x) must be positive everywhere on the grid")
        if np.any(ki < k1):
            raise ValueError("k_inf_in(x) >= k1_in(x) required everywhere on the grid")
        if np.any(k0 < 0.0) or np.any(k1 < 0.0):
            raise ValueError("activity constants must be nonnegative")


@dataclass(frozen=True)
class ModelParams:
    """All constants of the continuous-field model.

    ``sigma_in`` is the static placement scale used when ``activity`` is None;
    with activity present the placement scale is the velocity-coupled activity
    function evaluated per side.  ``noise_time_scaling`` selects how stable
    increments scale for sub-tick steps: "linear" multiplies the increment by
    dt (the tick is the native unit of the empirical fits), "levy" uses the
    self-similar dt^(1/alpha) scaling of a stable subordinator.
    """

    stable: StableParams
    sigma_in: Profile
    sigma_out: Profile
    diffusion: Profile
    mo: MarketOrderParams
    tau: float = 1.0
    n0_floor: float = 1e-6
    activity: PlacementActivityParams | None = None
    noise_time_scaling: str = "linear"

    def __post_init__(self) -> None:
        if not (self.tau > 0.0):
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not (self.n0_floor > 0.0):
            raise ValueError(f"n0_floor must be positive, got {self.n0_floor}")
        if self.noise_time_scaling not in ("linear", "levy"):
            raise ValueError(f"noise_time_scaling must be 'linear' or 'levy', got {self.noise_time_scaling!r}")

    def validate_on(self, x: np.ndarray) -> None:
        """Check profile nonnegativity over the grid the simulation will use."""
        for name in ("sigma_in", "sigma_out", "diffusion"):
            vals = np.asarray(getattr(self, name)(x), dtype=float)
            if np.any(vals < 0.0):
                raise ValueError(f"{name}(x) must be nonnegative over the grid")
        if self.activity is not None:
            self.activity.validate_on(x)


def new_field(length: int, dx: float, init_profile: Callable[[float], float]) -> OrderBookField:
    """Create a field with both sides initialized to init_profile(i*dx)."""
    if length < 4:
        raise ValueError(f"length must be >= 4, got {length}")
    if not (dx > 0.0):
        raise ValueError(f"dx must be positive, got {dx}")
    x = np.arange(length) * dx
    vals = np.asarray(init_profile(x), dtype=float)
    if vals.shape != x.shape:
        vals = np.array([float(init_profile(xi)) for xi in x])
    if np.any(vals < 0.0):
        raise ValueError("init_profile must be nonnegative on the grid")
    return OrderBookField(bid=vals.copy(), ask=vals.copy(), dx=dx)


def boundary_volume(field: OrderBookField) -> float:
    """Total volume at the trading-price boundary, bid[0] + ask[0]."""
    return float(field.bid[0] + field.ask[0])


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


def shift_boundary(field: OrderBookField, d_logprice: float) -> tuple[OrderBookField, BoundarySpill]:
    """Advect both sides by a log-price change, mutating the field in place.

    Returns the (possibly unchanged) field and the volume spilled past x = 0
    on each side, for market-order accounting by the caller.
    """
    half = field.extent / 2.0
    if not (abs(d_logprice) < half):
        raise ValueError(
            f"|d_logprice|={abs(d_logprice):.6g} exceeds half the grid extent {half:.6g}"
        )
    total = field.fractional_offset + d_logprice
    k = int(np.floor(total / field.dx))
    field.fractional_offset = total - k * field.dx
    # Guard against float roundoff pushing the offset onto dx exactly.
    if field.fractional_offset >= field.dx:
        field.fractional_offset -= field.dx
        k += 1
    field.log_price += d_logprice
    spill_bid = 0.0
    spill_ask = 0.0
    if k > 0:
        if k >= field.length // 2:
            raise ValueError(f"shift of {k} cells exceeds half the grid ({field.length} cells)")
        spill_ask = _shift_toward_boundary(field.ask, k)
        _shift_away_from_boundary(field.bid, k)
    elif k < 0:
        kk = -k
        if kk >= field.length // 2:
            raise ValueError(f"shift of {kk} cells exceeds half the grid ({field.length} cells)")
        spill_bid = _shift_toward_boundary(field.bid, kk)
        _shift_away_from_boundary(field.ask, kk)
    return field, BoundarySpill(bid=spill_bid, ask=spill_ask)
