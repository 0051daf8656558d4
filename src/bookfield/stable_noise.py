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
variate, where every other alpha takes one uniform and one exponential.  A
draw at scale ``c`` is exactly ``c`` times a unit draw under matching seeds.

Draws can be capped at a configurable quantile of the unit law to keep a
single astronomically large variate from destroying a lattice cell.  At
alpha = 1/2 the cap is the closed-form quantile 1/(4 erfcinv(q)**2); every
other alpha inverts the convergent series for the unit survival function, not
an asymptotic, and only that path imports scipy.
"""
from __future__ import annotations

import math
import statistics
import warnings
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
    scale: multiplicative scale in order-volume units; 0 forces all draws to 0.
    truncation_quantile: draws above this quantile of the law are capped;
        1.0 disables truncation.
    """

    alpha: float = 0.5
    scale: float = 1.0
    truncation_quantile: float = 1.0 - 1e-6

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not (self.scale >= 0.0):
            raise ValueError(f"scale must be >= 0, got {self.scale}")
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

        P(X <= x) = (1/pi) int_0^pi exp(-A(theta) x^(-alpha/(1-alpha))) dtheta,

    a smooth positive integrand with no cancellation at any x.
    """
    if x <= 0.0:
        return 1.0
    from scipy import integrate, special
    y = x ** (-alpha / (1.0 - alpha))

    def integrand(theta):
        return -math.expm1(-float(np.exp(_ln_kanter_a(alpha, theta))) * y)

    # A(theta) ~ [sin(pi alpha)/(pi - theta)]^(1/(1-alpha)) near theta = pi, so
    # for large x the integrand lives in a boundary layer of width ~ y^(1-alpha).
    layer = math.sin(math.pi * alpha) * y ** (1.0 - alpha)
    pieces = [0.0, math.pi]
    if layer < 0.1:
        pieces = [0.0, math.pi - 30.0 * layer, math.pi]
    # absolute tolerance tied to the Pareto-tail estimate of the result
    est = min(x ** (-alpha) / special.gamma(1.0 - alpha), 1.0)
    epsabs = max(1e-280, 1e-6 * est * math.pi)
    total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for lo, hi in zip(pieces[:-1], pieces[1:]):
            val, _ = integrate.quad(integrand, lo, hi, limit=400, epsabs=epsabs, epsrel=1e-10)
            total += val
    return min(max(total / math.pi, 0.0), 1.0)


@lru_cache(maxsize=256)
def unit_quantile(alpha: float, q: float) -> float:
    """Unit-law quantile: 1/(4 erfcinv(q)**2) at alpha = 1/2, else by inverting the survival series."""
    if not (0.0 < q < 1.0):
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    if alpha == 0.5:
        z = statistics.NormalDist().inv_cdf(q / 2.0)  # erfcinv(q) = -z / sqrt(2)
        return 1.0 / (2.0 * z * z)
    from scipy import optimize, special
    target = 1.0 - q
    # Bracket around the Pareto-tail estimate x ~ (Gamma(1-alpha) * (1-q))^(-1/alpha).
    guess = (special.gamma(1.0 - alpha) * target) ** (-1.0 / alpha)
    lo, hi = guess, guess
    while unit_survival(alpha, lo) < target:
        lo /= 4.0
        if lo < 1e-12:
            break
    while unit_survival(alpha, hi) > target:
        hi *= 4.0
        if hi > 1e300:
            raise ArithmeticError(f"failed to bracket quantile {q} for alpha={alpha}")
    if lo == hi:
        return lo
    return float(optimize.brentq(lambda x: unit_survival(alpha, x) - target, lo, hi, xtol=1e-12, rtol=1e-12))


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

    At alpha = 1/2 each variate is min(1/(2 Z**2), cap) * scale from one
    standard normal Z; every other alpha consumes one uniform and one
    exponential per variate.  The draws do not depend on the truncation
    setting, so draw sequences are reproducible from the stream state alone.
    """
    x = _fill_unit(params, rng, np.empty(shape)[np.newaxis])[0]
    return np.zeros(shape) if params.scale == 0.0 else np.multiply(x, params.scale, out=x)


def sample_one_sided_stable(params: StableParams, count: int, seed: int) -> np.ndarray:
    """Generate ``count`` nonnegative stable variates, bit-identical per (params, seed)."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return draw(params, count, np.random.default_rng(seed))
