"""One-sided alpha-stable random variates driving order placement and cancellation.

The sampler produces maximally skewed stable variates supported on the
nonnegative reals (stability index 0 < alpha < 1), using the
Chambers-Mallows-Stuck transformation in Kanter's positive-stable form:

    X = (a(U) / W) ** ((1 - alpha) / alpha),
    a(u) = sin((1-alpha) u) * sin(alpha u)**(alpha/(1-alpha)) / sin(u)**(1/(1-alpha)),

with U uniform on (0, pi) and W unit exponential.  The unit variate has
Laplace transform exp(-s**alpha); at alpha = 1/2 it is exactly the Levy
distribution with location 0 and scale c = 1/2, i.e. CDF erfc(sqrt(1/(4x))).
A draw at scale ``c`` is exactly ``c`` times a unit draw, so the scaling
property is exact under matching seeds.

At alpha = 1/2 Zolotarev's factor reduces exactly to a(u) = 1/(4 cos(u/2)**2)
and the exponent to 1, so the transform runs in the closed form
X = 1/(4 W cos(U/2)**2): one cos and a few multiplies per variate instead of
three sin, four log and an exp.  Every other alpha runs the log-space Kanter
form above.  Both paths consume the same (U, W) pair per variate, so the RNG
stream, and hence every seeded draw sequence, is the same for either path.

Draws can be capped at a configurable quantile of the unit law to keep a
single astronomically large variate from destroying a lattice cell.  The cap
is computed from the convergent series for the unit survival function, not
from an asymptotic.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate, optimize, special

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


def _kanter_a(alpha: float, theta):
    """Zolotarev's A(theta): the angular factor of the Kanter representation."""
    r = 1.0 / (1.0 - alpha)
    return np.exp(
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
    y = x ** (-alpha / (1.0 - alpha))

    def integrand(theta):
        return -math.expm1(-float(_kanter_a(alpha, theta)) * y)

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
    """Quantile of the unit one-sided stable law, by inverting the survival series."""
    if not (0.0 < q < 1.0):
        raise ValueError(f"quantile must be in (0, 1), got {q}")
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


def _kanter_unit(alpha: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Unit variates from U on (0, pi) and W unit exponential; overwrites ``u`` at alpha = 1/2."""
    if alpha == 0.5:
        # a(u) = sin(u/2)**2 / sin(u)**2 = 1 / (4 cos(u/2)**2), in place in u.
        x = np.multiply(u, 0.5, out=u)
        np.cos(x, out=x)
        x *= x
        x *= w
        return np.divide(0.25, x, out=x)
    # Log-space evaluation avoids three separate pow calls per draw.
    r = 1.0 / (1.0 - alpha)
    ln_a = (
        np.log(np.sin((1.0 - alpha) * u))
        + (alpha * r) * np.log(np.sin(alpha * u))
        - r * np.log(np.sin(u))
    )
    return np.exp(((1.0 - alpha) / alpha) * (ln_a - np.log(w)))


def draw(params: StableParams, shape, rng: np.random.Generator) -> np.ndarray:
    """Draw truncated one-sided stable variates from an explicit RNG stream.

    Consumes exactly two underlying variates per sample regardless of the
    truncation setting, so draw sequences are reproducible from the stream
    state alone.
    """
    u = rng.uniform(0.0, np.pi, shape)
    w = rng.standard_exponential(shape)
    if params.scale == 0.0:
        return np.zeros(shape)
    x = _kanter_unit(params.alpha, u, w)
    cap = params.unit_cap
    if cap != math.inf:
        np.minimum(x, cap, out=x)
    x *= params.scale
    return x


def sample_one_sided_stable(params: StableParams, count: int, seed: int) -> np.ndarray:
    """Generate ``count`` nonnegative stable variates, bit-identical per (params, seed)."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = np.random.default_rng(seed)
    return draw(params, count, rng)
