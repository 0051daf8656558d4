"""Stationary return distribution of the velocity process.

The one-tick velocity dynamics reduce to the Ito SDE

    dv = mu(v) dt + sigma(v) dW,    mu(v) = -v / tau,
    sigma^2(v) = (v0^2 / (n0^2 tau^2)) * [k0^2 tanh^2(v/v0) + (k_inf - k1 sech^2(v/v0))],

whose stationary density is

    p(v) proportional to (2 / sigma^2(v)) * exp(2 * int_0^v mu(u)/sigma^2(u) du).

The sigma^2 bracket is the one written above (note the first power of k_inf
against squared tanh/sech terms), evaluated through sech^2 = 1 - tanh^2 as
(k0^2 + k1) tanh^2 + (k_inf - k1) so that no cosh overflows at large |v|; see
diffusion_coefficient.

Asymptotically the density has a Gaussian core inside |v| <~ v_c (the core
width, nonzero only when k_inf > k1), a power-law mid regime v_c << |v| << v0
with pdf exponent near 2 + 2 n0^2/k0^2 when k1 is small against k0^2, and a
Gaussian far tail.  ``tail_exponent`` returns the idealized mid-regime
exponent; with n0 = k0 it equals 4, the quartic law of returns.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import NumericError

__all__ = [
    "FPParams",
    "ReturnDensity",
    "drift",
    "diffusion_coefficient",
    "stationary_density",
    "tail_exponent",
    "variance_given_n0",
    "gaussian_core_width",
    "make_grid",
    "log_log_slope",
    "regime_report",
]


@dataclass(frozen=True)
class FPParams:
    k0: float
    k_inf: float
    k1: float
    v0: float
    n0: float
    tau: float = 1.0

    def __post_init__(self) -> None:
        if not (self.v0 > 0.0):
            raise ValueError(f"v0 must be positive, got {self.v0}")
        if not (self.n0 > 0.0):
            raise ValueError(f"n0 must be positive, got {self.n0}")
        if not (self.tau > 0.0):
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.k0 < 0.0 or self.k1 < 0.0:
            raise ValueError("k0 and k1 must be nonnegative")
        if not (self.k_inf >= self.k1):
            raise ValueError(f"k_inf >= k1 required, got {self.k_inf} < {self.k1}")


@dataclass
class ReturnDensity:
    """Tabulated stationary density with its grid and normalization diagnostic."""

    grid: np.ndarray
    density: np.ndarray
    normalization_check: float


def drift(v, tau: float):
    """Mean-reversion drift -v/tau."""
    if not (tau > 0.0):
        raise ValueError(f"tau must be positive, got {tau}")
    return -np.asarray(v, dtype=float) / tau if np.ndim(v) else -v / tau


def _bracket(w, p: FPParams):
    # k_inf - k1 sech^2 = (k_inf - k1) + k1 tanh^2: no cosh, so no overflow at large |w|.
    return (p.k0**2 + p.k1) * np.tanh(w) ** 2 + (p.k_inf - p.k1)


def diffusion_coefficient(v, p: FPParams):
    """sigma^2(v), as printed in the model: prefactor v0^2/(n0^2 tau^2) times the bracket."""
    w = np.asarray(v, dtype=float) / p.v0
    br = _bracket(w, p)
    if np.any(br < -1e-15):
        raise ValueError("negative diffusion bracket: k1 exceeds k_inf at small v")
    out = (p.v0**2 / (p.n0**2 * p.tau**2)) * np.maximum(br, 0.0)
    return out if np.ndim(v) else float(out)


def gaussian_core_width(p: FPParams) -> float:
    """Velocity scale below which the density is Gaussian: v0 sqrt((k_inf-k1)/(k0^2+k1))."""
    return p.v0 * math.sqrt((p.k_inf - p.k1) / (p.k0**2 + p.k1))


def tail_exponent(p: FPParams) -> float:
    """Positive pdf decay exponent of the mid power-law regime: 2 + 2 n0^2/k0^2."""
    if p.k0 == 0.0:
        raise ValueError("k0 = 0: no power-law regime exists")
    return 2.0 + 2.0 * p.n0**2 / p.k0**2


def _exponent_profile(pos: np.ndarray, p: FPParams) -> np.ndarray:
    """Cumulative 2*int mu/sigma^2 along the positive grid points."""
    def integrand(u):
        return 2.0 * drift(u, p.tau) / diffusion_coefficient(u, p)

    sigma0 = diffusion_coefficient(0.0, p)
    start = 0.0 if sigma0 > 0.0 else 1e-8 * p.v0
    vals = np.empty(len(pos))
    acc = 0.0
    prev = start
    for i, v in enumerate(pos):
        lo, hi = min(prev, v), max(prev, v)
        if hi > lo:
            seg, _ = integrate.quad(integrand, lo, hi, limit=400)
            acc += seg if v >= prev else -seg
        vals[i] = acc
        prev = v
    return vals


def stationary_density(p: FPParams, grid: np.ndarray) -> ReturnDensity:
    """Tabulate the stationary density on a symmetric velocity grid and normalize it.

    The grid must be strictly increasing and symmetric about 0; it must
    exclude 0 itself when sigma^2(0) = 0 (the prefactor is singular there).
    Raises NumericError when the mass near the inner cutoff diverges, which
    happens when k1 = k_inf exactly (no Gaussian core regularizes the origin).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 8:
        raise ValueError("grid must be a 1-d array with at least 8 points")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    scale = float(np.max(np.abs(grid)))
    if np.max(np.abs(grid + grid[::-1])) > 1e-9 * scale:
        raise ValueError("grid must be symmetric about 0")
    sigma0 = diffusion_coefficient(0.0, p)
    if sigma0 == 0.0 and np.any(grid == 0.0):
        raise ValueError("grid must exclude 0 when sigma^2(0) = 0")
    pos = grid[grid > 0.0]
    has_zero = bool(np.any(grid == 0.0))
    expo = _exponent_profile(pos, p)
    ln_pref = -np.log(diffusion_coefficient(pos, p) / 2.0)
    ln_dens = ln_pref + expo
    if has_zero:
        ln_zero = math.log(2.0 / sigma0)
        ln_dens = np.concatenate([[ln_zero], ln_dens])
    ln_dens -= ln_dens.max()
    dens_half = np.exp(ln_dens)
    # Mirror onto the negative half; the density is even in v.
    dens = np.concatenate([dens_half[:0:-1], dens_half]) if has_zero else np.concatenate(
        [dens_half[::-1], dens_half]
    )
    # Diverging mass toward the inner cutoff: local log-log slope <= -1 there.
    inner = dens_half[0] if not has_zero else None
    if inner is not None and len(pos) >= 3:
        s = (math.log(dens_half[1]) - math.log(dens_half[0])) / (
            math.log(pos[1]) - math.log(pos[0])
        )
        if s <= -1.0:
            raise NumericError(
                "non-normalizable stationary density: small-|v| regime has "
                f"log-log slope {s:.2f} <= -1 (k1 = k_inf leaves no Gaussian core)"
            )
    mass = float(np.trapezoid(dens, grid))
    if not np.isfinite(mass) or mass <= 0.0:
        raise NumericError("stationary density mass is not finite on the grid")
    dens /= mass
    return ReturnDensity(grid=grid, density=dens, normalization_check=float(np.trapezoid(dens, grid)))


def make_grid(p: FPParams, v_max_mult: float = 8.0, points: int = 2001) -> np.ndarray:
    """Symmetric log-spaced grid resolving the Gaussian core and the far tail."""
    vc = gaussian_core_width(p)
    sigma0 = diffusion_coefficient(0.0, p)
    lo = max(vc / 100.0, 1e-7 * p.v0) if sigma0 > 0.0 else 1e-6 * p.v0
    hi = v_max_mult * p.v0
    half = points // 2
    pos = np.geomspace(lo, hi, half)
    if sigma0 > 0.0:
        return np.concatenate([-pos[::-1], [0.0], pos])
    return np.concatenate([-pos[::-1], pos])


def variance_given_n0(n0: float, p: FPParams) -> float:
    """Second moment of the stationary density conditioned on boundary volume n0.

    Raises NumericError when the idealized power-law exponent makes the second
    moment divergent (tail exponent <= 3).
    """
    if not (n0 > 0.0):
        raise ValueError(f"n0 must be positive, got {n0}")
    pc = dataclasses.replace(p, n0=n0)
    if pc.k0 > 0.0 and tail_exponent(pc) <= 3.0:
        raise NumericError(
            f"divergent second moment: tail exponent {tail_exponent(pc):.3f} <= 3"
        )
    v_max = 8.0 * pc.v0
    prev = None
    for _ in range(24):
        grid = make_grid(pc, v_max_mult=v_max / pc.v0, points=4001)
        dens = stationary_density(pc, grid)
        m2 = float(np.trapezoid(dens.density * dens.grid**2, dens.grid))
        if prev is not None and abs(m2 - prev) <= 1e-9 * max(m2, 1e-300):
            return m2
        prev = m2
        v_max *= 2.0
    return prev


def log_log_slope(grid: np.ndarray, density: np.ndarray, lo: float, hi: float) -> float:
    """OLS slope of log density vs log v over the window lo < v < hi (positive side)."""
    m = (grid > lo) & (grid < hi) & (density > 0.0)
    if m.sum() < 4:
        raise ValueError(f"fewer than 4 grid points in window ({lo:.3g}, {hi:.3g})")
    return float(np.polyfit(np.log(grid[m]), np.log(density[m]), 1)[0])


def regime_report(p: FPParams) -> dict:
    """Summary of the asymptotic regimes for the given parameters."""
    rep: dict = {
        "gaussian_core_width": gaussian_core_width(p),
        "saturation_scale": p.v0,
    }
    if p.k0 == 0.0:
        rep["power_law"] = False
        rep["note"] = "no power-law regime (k0 = 0)"
    else:
        rep["power_law"] = True
        rep["tail_exponent"] = tail_exponent(p)
    try:
        rep["variance"] = variance_given_n0(p.n0, p)
    except NumericError as exc:
        rep["variance"] = None
        rep["variance_note"] = str(exc)
    return rep
