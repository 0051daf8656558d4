"""One-sided alpha-stable random variates driving order placement and cancellation.

The sampler produces maximally skewed stable variates supported on the
nonnegative reals (stability index 0 < alpha < 1) whose unit variate has
Laplace transform exp(-s**alpha).  Every alpha but 1/2 uses the
Chambers-Mallows-Stuck transformation in Kanter's positive-stable form,

    X = (a(U) / W) ** ((1 - alpha) / alpha),
    a(u) = sin((1-alpha) u) * sin(alpha u)**(alpha/(1-alpha)) / sin(u)**(1/(1-alpha)),

with U uniform on (0, pi) and W unit exponential, evaluated in log space.

At alpha = 1/2 the unit law is exactly Levy with location 0 and scale
c = 1/2, CDF erfc(sqrt(1/(4x))).  There the Kanter form is
X = 1/(4 W cos(U/2)**2), and 2 W cos(U/2)**2 = Z**2 for a standard normal Z
(Box-Muller), so the sampler draws X = 1/(2 Z**2): one standard normal per
variate, where every other alpha takes one uniform and one exponential.

Draws can be capped at a configurable quantile of the unit law to keep a
single astronomically large variate from destroying a lattice cell.  At
alpha = 1/2 the cap is the closed-form quantile 1/(4 erfcinv(q)**2); every
other alpha bisects the unit survival function, an integral over the Kanter
angle summed by adaptive Gauss-Legendre quadrature to ~1e-14 relative.
"""
from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "StableParams",
    "sample_one_sided_stable",
    "draw",
    "unit_survival",
    "unit_quantile",
]

@dataclass(frozen=True)
class StableParams:
    """Parameters of the one-sided stable law used for noise generation.

    alpha: stability index, must lie in (0, 1) for one-sided support.
    truncation_quantile: draws above this quantile of the law are capped;
        1.0 disables truncation.
    """

    alpha: float = 0.5
    truncation_quantile: float = 1.0 - 1e-6
    scale = 1.0  # a constant, not a field: draws are unit scale, and sigma_in and sigma_out scale them

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not (0.0 < self.truncation_quantile <= 1.0):
            raise ValueError(
                f"truncation_quantile must be in (0, 1], got {self.truncation_quantile}"
            )

    @property
    def unit_cap(self) -> float:
        """Truncation cap for unit-scale draws (inf when quantile is 1)."""
        if self.truncation_quantile >= 1.0:
            return math.inf
        return unit_quantile(self.alpha, self.truncation_quantile)


def _ln_kanter_a(alpha: float, theta):
    """ln of Zolotarev's A(theta), the angular factor of the Kanter representation."""
    r = 1.0 / (1.0 - alpha)
    return (
        np.log(np.sin((1.0 - alpha) * theta))
        + (alpha * r) * np.log(np.sin(alpha * theta))
        - r * np.log(np.sin(theta))
    )


def unit_survival(alpha: float, x: float) -> float:
    """P(X > x) for the unit one-sided stable law (Laplace transform e^{-s^alpha}).

    From the Kanter representation X = (A(theta)/W)^((1-alpha)/alpha) with theta
    uniform on (0, pi) and W unit exponential,

        P(X > x) = (1/pi) int_0^pi -expm1(-A(theta) x^(-alpha/(1-alpha))) dtheta,

    a smooth positive integrand with no cancellation at any x.  It is summed in
    s = pi - theta, where A ~ [sin(pi alpha)/s]^(1/(1-alpha)) keeps its relative
    precision, by an 8-node Gauss-Legendre rule that halves each piece until the
    piece and its halves agree to 1e-14 of the total.  The first pieces grow by
    e from the boundary layer at s ~ sin(pi alpha) x^-alpha up to pi.
    """
    if x <= 0.0:
        return 1.0
    from .fokker_planck import _GL_NODES, _GL_WEIGHTS
    r = 1.0 / (1.0 - alpha)
    ln_y = -alpha * r * math.log(x)

    def rule(lo, hi):
        half = 0.5 * (hi - lo)
        s = (lo + half)[:, None] + half[:, None] * _GL_NODES
        ln_a = (np.log(np.sin(alpha * math.pi + (1.0 - alpha) * s))
                + alpha * r * np.log(np.sin(alpha * (math.pi - s))) - r * np.log(np.sin(s)))
        # exp stays finite below 700, and -expm1(-e^700) is already 1
        return half * (-np.expm1(-np.exp(np.minimum(ln_a + ln_y, 700.0))) @ _GL_WEIGHTS)

    k = max(0, math.ceil(math.log(math.pi / math.sin(math.pi * alpha)) + alpha * math.log(x)))
    ends = np.append(0.0, math.pi * np.exp(-np.arange(k, -1.0, -1.0)))
    lo, hi = ends[:-1], ends[1:]
    whole, total, splits = rule(lo, hi), 0.0, 0
    while splits < 10_000:
        mid = 0.5 * (lo + hi)
        left, right = rule(lo, mid), rule(mid, hi)
        halves = left + right
        done = np.abs(halves - whole) <= 1e-14 * (total + halves.sum())
        total += halves[done].sum()
        if done.all():
            return min(total / math.pi, 1.0)
        splits += len(lo)
        keep = ~done
        lo, hi = np.append(lo[keep], mid[keep]), np.append(mid[keep], hi[keep])
        whole = np.append(left[keep], right[keep])
    raise ArithmeticError(f"unit_survival({alpha}, {x}) did not converge in {splits} splits")


@lru_cache(maxsize=256)
def unit_quantile(alpha: float, q: float) -> float:
    """Unit-law quantile: 1/(4 erfcinv(q)**2) at alpha = 1/2, else by bisecting the survival in ln x."""
    if not (0.0 < q < 1.0):
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    if alpha == 0.5:
        z = statistics.NormalDist().inv_cdf(q / 2.0)  # erfcinv(q) = -z / sqrt(2)
        return 1.0 / (2.0 * z * z)
    target = 1.0 - q
    # Bracket around the Pareto-tail estimate x ~ (Gamma(1-alpha) * (1-q))^(-1/alpha).
    guess = (math.gamma(1.0 - alpha) * target) ** (-1.0 / alpha)
    lo, hi = guess, guess
    while unit_survival(alpha, lo) < target:
        lo /= 4.0
        if lo < 1e-12:
            break
    while unit_survival(alpha, hi) > target:
        hi *= 4.0
        if hi > 1e300:
            raise ArithmeticError(f"failed to bracket quantile {q} for alpha={alpha}")
    while True:  # until the geometric midpoint rounds to an endpoint
        mid = min(max(math.sqrt(lo) * math.sqrt(hi), lo), hi)
        if mid in (lo, hi):
            return mid
        if unit_survival(alpha, mid) > target:
            lo = mid
        else:
            hi = mid


def _fill_unit(params: StableParams, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill ``out``, shaped (k, *shape), with capped unit variates and return it.

    The stream is consumed as by k ``draw(params, shape, rng)`` calls in turn:
    at alpha = 1/2 one normal fill, else per row the uniforms, then the exponentials.
    """
    alpha = params.alpha
    if alpha == 0.5:
        rng.standard_normal(out=out)
        np.multiply(out, out, out=out)
        with np.errstate(divide="ignore"):  # z = 0 gives +inf, which the cap clips
            np.divide(0.5, out, out=out)
    else:
        w = np.empty_like(out)
        for row, w_row in zip(out, w):
            rng.random(out=row)  # uniform(0, pi) is pi * random() bit for bit
            rng.standard_exponential(out=w_row)
        out *= np.pi
        # Log-space evaluation avoids three separate pow calls per draw.
        np.exp(((1.0 - alpha) / alpha) * (_ln_kanter_a(alpha, out) - np.log(w)), out=out)
    return np.minimum(out, params.unit_cap, out=out)  # the cap is inf with truncation off


def draw(params: StableParams, shape, rng: np.random.Generator) -> np.ndarray:
    """Draw truncated one-sided stable variates from an explicit RNG stream.

    At alpha = 1/2 each variate is min(1/(2 Z**2), cap) from one
    standard normal Z; every other alpha consumes one uniform and one
    exponential per variate.  The draws do not depend on the truncation
    setting, so draw sequences are reproducible from the stream state alone.
    """
    return _fill_unit(params, rng, np.empty(shape)[np.newaxis])[0]


def sample_one_sided_stable(params: StableParams, count: int, seed: int) -> np.ndarray:
    """Generate ``count`` nonnegative stable variates, bit-identical per (params, seed)."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return draw(params, count, np.random.default_rng(seed))
