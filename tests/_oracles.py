"""Independent numerical oracles shared by the test suite.

These deliberately avoid the package's own quadrature/density code paths: the
Euler-Maruyama integrator checks the stationary density, and plain empirical
CDF comparison replaces any library KS helper.  ``per_side_point_process``
is the CS/KSTT tick on two separate side arrays, one RNG call per side, which
pins the stream order of the engine that draws over the stacked (2, L) book.
"""
from __future__ import annotations

import numpy as np

from bookfield.dynamics import market_order_rate
from bookfield.fokker_planck import FPParams, diffusion_coefficient


def em_velocity_samples(
    p: FPParams,
    total_steps: int = 2_000_000,
    n_paths: int = 200,
    dt_frac: float = 0.02,
    burn_frac: float = 0.3,
    thin: int = 25,
    seed: int = 0,
) -> np.ndarray:
    """Euler-Maruyama sampling of dv = -v dt + sigma(v) dW at stationarity, time in ticks."""
    rng = np.random.default_rng(seed)
    dt = dt_frac
    n_steps = int(total_steps // n_paths)
    v = np.zeros(n_paths)
    burn = int(burn_frac * n_steps)
    keep = []
    sq = np.sqrt(dt)
    for i in range(n_steps):
        s2 = diffusion_coefficient(v, p)
        v = v - v * dt + np.sqrt(s2) * sq * rng.standard_normal(n_paths)
        if i >= burn and (i - burn) % thin == 0:
            keep.append(v.copy())
    return np.concatenate(keep)


def ks_distance_vs_density(samples: np.ndarray, grid: np.ndarray, density: np.ndarray) -> float:
    """Sup distance between the empirical CDF and the tabulated density's CDF."""
    widths = np.diff(grid)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * widths)])
    cdf /= cdf[-1]
    xs = np.sort(samples)
    emp = np.arange(1, len(xs) + 1) / len(xs)
    theo = np.interp(xs, grid, cdf)
    return float(np.max(np.abs(emp - theo)))


def per_side_point_process(params, bid, ask, dx: float, steps: int, rng: np.random.Generator):
    """CS (``placement_rate``) or KSTT (``placement``) ticks on separate bid and ask arrays.

    Per tick: Poisson bid then ask placements, binomial bid then ask
    cancellations of floor(volume), Poisson buy then sell market orders, then
    the co-moving shift (price registered mid-cell at the start).  Returns the
    per-tick (v, n0, eaten_ask, eaten_bid, spill_bid, spill_ask) rows, the
    per-tick bid and ask volumes, and the final bid, ask and fractional offset.
    """
    bid, ask = np.array(bid, dtype=float), np.array(ask, dtype=float)
    x = np.arange(len(bid)) * dx
    if hasattr(params, "placement_rate"):
        rate = np.maximum(np.asarray(params.placement_rate(x), dtype=float), 0.0)
        means = lambda v: (rate, rate, params.mo_volume, params.mo_volume)
    else:
        def means(v):
            up, down = market_order_rate(v, params.placement)
            return np.full(len(x), up), np.full(len(x), down), *market_order_rate(v, params.mo)
    scalars, bids, asks = [], [], []
    offset, v = 0.5 * dx, 0.0
    for _ in range(steps):
        lam_bid, lam_ask, mean_buy, mean_sell = means(v)
        bid += rng.poisson(lam_bid)
        ask += rng.poisson(lam_ask)
        if params.cancel_prob > 0.0:
            nb, na = np.floor(bid).astype(np.int64), np.floor(ask).astype(np.int64)
            bid -= rng.binomial(nb, params.cancel_prob)
            ask -= rng.binomial(na, params.cancel_prob)
            np.maximum(bid, 0.0, out=bid)
            np.maximum(ask, 0.0, out=ask)
        buy, sell = float(rng.poisson(mean_buy)), float(rng.poisson(mean_sell))
        eaten_ask, eaten_bid = min(buy, float(ask[0])), min(sell, float(bid[0]))
        ask[0] -= eaten_ask
        bid[0] -= eaten_bid
        n0 = float(bid[0] + ask[0])
        v = (eaten_ask - eaten_bid) / max(n0, params.n0_floor)
        total = offset + v
        k = int(np.floor(total / dx))
        offset = total - k * dx
        if offset >= dx:
            offset -= dx
            k += 1
        elif offset < 0.0:
            offset = 0.0
        spill = {"bid": 0.0, "ask": 0.0}
        if k:
            near, arr, other, kk = ("ask", ask, bid, k) if k > 0 else ("bid", bid, ask, -k)
            spill[near] = float(arr[:kk].sum())
            arr[:-kk] = arr[kk:].copy()
            arr[-kk:] = 0.0
            pile = float(other[-kk:].sum())
            other[kk:] = other[:-kk].copy()
            other[:kk] = 0.0
            other[-1] += pile
        scalars.append((v, n0, eaten_ask, eaten_bid, spill["bid"], spill["ask"]))
        bids.append(bid.copy())
        asks.append(ask.copy())
    return np.array(scalars), np.array(bids), np.array(asks), bid, ask, offset
