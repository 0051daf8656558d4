"""Stationary return distribution of the velocity process.

The one-tick velocity dynamics reduce to the Ito SDE, in ticks,

    dv = mu(v) dt + sigma(v) dW,    mu(v) = -v,
    sigma^2(v) = (v0^2 / n0^2) * [k0^2 tanh^2(v/v0) + (k_inf - k1 sech^2(v/v0))],

whose stationary density is

    p(v) proportional to (2 / sigma^2(v)) * exp(2 * int_0^v mu(u)/sigma^2(u) du).

The sigma^2 bracket is the one written above (note the first power of k_inf
against squared tanh/sech terms), evaluated through sech^2 = 1 - tanh^2 as
(k0^2 + k1) tanh^2 + (k_inf - k1) so that no cosh overflows at large |v|; see
diffusion_coefficient.

The exponent integral is tabulated by an 8-node Gauss-Legendre rule on every
grid segment, in ln|v| away from 0, summed cumulatively; see _exponent_profile.
A segment too long for one rule is split first: the one from 0 at a hundredth
of the core width, one in ln|v| into pieces of ratio at most 2.  The rule is
evaluated over blocks of segments, so its temporaries stay small.

Asymptotically the density has a Gaussian core inside |v| <~ v_c (the core
width, nonzero only when k_inf > k1), a power-law mid regime v_c << |v| << v0
with pdf exponent 2 + 2 n0^2/(k0^2 + k1), near 2 + 2 n0^2/k0^2 when k1 is
small against k0^2, and a Gaussian far tail.  ``tail_exponent`` returns the
idealized mid-regime exponent; with n0 = k0 it equals 4, the quartic law of
returns.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .field import check_trend_constants

__all__ = [
    "FPParams",
    "ReturnDensity",
    "diffusion_coefficient",
    "stationary_density",
    "tail_exponent",
    "variance_given_n0",
    "gaussian_core_width",
    "make_grid",
    "log_log_slope",
    "regime_report",
]

# The 8-point Gauss-Legendre rule on [-1, 1] for the exponent integral over one grid segment,
# as numpy's leggauss(8) gives it; written out because computing it starts LAPACK (~0.75 MB RSS).
_GL_NODES = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
                      0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362])
_GL_WEIGHTS = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
                        0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706])
# Segments per block of the rule: a (rows, 8) float64 temporary then stays at 64 KB, below
# glibc's 128 KB mmap and trim thresholds, so the allocator reuses its memory instead of
# returning each 128 KB temporary of a 4001-point grid to the OS and faulting it back in.
_GL_BLOCK_ROWS = 1024
# Widest ln u piece: the integrand's poles sit pi/2 off the real s = ln u axis, so the rule is
# exact to rounding on a piece of ratio 2.  make_grid's segments span ratios below 1.04 at
# 2001 points and over (v_max up to 8 * 2^23 v0, every doubling of variance_given_n0).
_MAX_LN_WIDTH = math.log(2.0)


@dataclass(frozen=True)
class FPParams:
    k0: float
    k_inf: float
    k1: float
    v0: float
    n0: float

    def __post_init__(self) -> None:
        check_trend_constants(self.k0, self.k_inf, self.k1, self.v0, "Fokker-Planck constants")
        if not (self.n0 > 0.0):
            raise ValueError(f"n0 must be positive, got {self.n0}")
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        # The scales the solver derives, as it computes them; numpy gives inf or 0 where a float ** raises.
        k0, v0, n0 = np.float64([self.k0, self.v0, self.n0])
        with np.errstate(all="ignore"):
            scales = {"k0^2 + k1": k0**2 + self.k1, "v0^2/n0^2": v0**2 / n0**2}
            if k0 > 0.0:  # tail_exponent's ratio
                scales["n0^2/k0^2"] = n0**2 / k0**2
        for name, scale in scales.items():
            if not (0.0 < scale < math.inf):
                raise ValueError(f"{name} must be finite and positive, got {float(scale)}")


@dataclass
class ReturnDensity:
    """Tabulated stationary density with its grid and normalization diagnostic."""

    grid: np.ndarray
    density: np.ndarray
    normalization_check: float


def _bracket(w, p: FPParams):
    # k_inf - k1 sech^2 = (k_inf - k1) + k1 tanh^2: no cosh, so no overflow at large |w|.
    return (p.k0**2 + p.k1) * np.tanh(w) ** 2 + (p.k_inf - p.k1)


def diffusion_coefficient(v, p: FPParams):
    """sigma^2(v), as printed in the model: prefactor v0^2/n0^2 times the bracket."""
    w = np.asarray(v, dtype=float) / p.v0
    out = (p.v0**2 / p.n0**2) * _bracket(w, p)  # >= 0: FPParams holds k_inf >= k1
    return out if np.ndim(v) else float(out)


def gaussian_core_width(p: FPParams) -> float:
    """Velocity scale below which the density is Gaussian: v0 sqrt((k_inf-k1)/(k0^2+k1))."""
    return p.v0 * math.sqrt((p.k_inf - p.k1) / (p.k0**2 + p.k1))


def tail_exponent(p: FPParams) -> float:
    """Idealized mid-regime pdf exponent 2 + 2 n0^2/k0^2; the exact one is 2 + 2 n0^2/(k0^2 + k1).

    This returns the k1-free form because perfbench's fp check pins that value exactly."""
    if p.k0 == 0.0:
        raise ValueError("k0 = 0: no power-law regime exists")
    return 2.0 + 2.0 * p.n0**2 / p.k0**2


def _exponent_profile(half: np.ndarray, p: FPParams) -> np.ndarray:
    """Cumulative 2*int mu/sigma^2 from half[0] to each point of the increasing grid half >= 0.

    Each piece of a segment gets one fixed-order Gauss-Legendre rule.  A piece
    that starts at u > 0 is integrated in s = ln u, where the 1/u integrand of
    sigma^2(0) = 0 is smooth; the piece from 0 in u.  The segment from 0 is cut
    at a hundredth of the Gaussian core width, and a segment in ln u wider than
    _MAX_LN_WIDTH into equal ln pieces; the pieces are summed back per segment.
    make_grid's grids are cut only when the core is narrower than 1e-5 v0, so
    that their first point, 1e-7 v0, lies past the cut.  The pieces are
    evaluated _GL_BLOCK_ROWS at a time.
    """
    def integral(u, du):
        # a sum, not a matrix product: the fp command never starts BLAS
        return (2.0 * -u / diffusion_coefficient(u, p) * du * _GL_WEIGHTS).sum(axis=-1)

    ln_pos = np.log(half[half > 0.0])
    a, b = ln_pos[:-1], ln_pos[1:]
    if half[0] == 0.0:
        # [0, cut] in u, then [cut, half[1]] in ln u, which is empty and integrates to 0
        # when cut = half[1]
        cut = min(gaussian_core_width(p) / 100.0, half[1])
        h = cut / 2.0
        zero = integral(h * (1.0 + _GL_NODES), h)
        a, b = np.concatenate([[math.log(cut)], a]), np.concatenate([[ln_pos[0]], b])
    # piece k of segment (a, b) starts at a + (b - a) k/n and the last one ends at b; a segment
    # of one piece keeps its ends exactly, and one of zero width gets one empty piece
    n = np.maximum(np.ceil((b - a) / _MAX_LN_WIDTH), 1.0).astype(int)
    first = np.cumsum(n) - n
    owner = np.repeat(np.arange(len(a)), n)
    lo = a[owner] + (b - a)[owner] * ((np.arange(len(owner)) - first[owner]) / n[owner])
    hi = np.append(lo[1:], 0.0)
    hi[first + n - 1] = b
    pieces = np.empty(len(lo))
    for i in range(0, len(lo), _GL_BLOCK_ROWS):
        s0, s1 = lo[i : i + _GL_BLOCK_ROWS, None], hi[i : i + _GL_BLOCK_ROWS, None]
        half_width = (s1 - s0) / 2.0
        u = np.exp((s1 + s0) / 2.0 + half_width * _GL_NODES)
        pieces[i : i + _GL_BLOCK_ROWS] = integral(u, half_width * u)
    seg = np.add.reduceat(pieces, first)
    if half[0] == 0.0:
        seg[0] += zero
    return np.concatenate([[0.0], np.cumsum(seg)])


def stationary_density(p: FPParams, grid: np.ndarray) -> ReturnDensity:
    """Tabulate the stationary density on a symmetric velocity grid and normalize it.

    The grid must be strictly increasing and symmetric about 0; it must
    exclude 0 itself when sigma^2(0) = 0 (the prefactor is singular there).
    The exponent integral is exact to rounding on make_grid's grids and on coarse
    grids alike: _exponent_profile splits a segment too long for its rule.
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
    if diffusion_coefficient(0.0, p) == 0.0 and np.any(grid == 0.0):
        raise ValueError("grid must exclude 0 when sigma^2(0) = 0")
    half = grid[grid >= 0.0]
    ln_dens = _exponent_profile(half, p) - np.log(diffusion_coefficient(half, p) / 2.0)
    # Diverging mass toward the inner cutoff: local log-log slope <= -1 there.
    if half[0] > 0.0:
        s = (ln_dens[1] - ln_dens[0]) / math.log(half[1] / half[0])
        if s <= -1.0:
            raise NumericError(
                "non-normalizable stationary density: small-|v| regime has "
                f"log-log slope {s:.2f} <= -1 (k1 = k_inf leaves no Gaussian core)"
            )
    dens_half = np.exp(ln_dens - ln_dens.max())
    # Mirror onto the negative half; the density is even in v.
    dens = np.concatenate([dens_half[::-1][: len(grid) - len(half)], dens_half])
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
