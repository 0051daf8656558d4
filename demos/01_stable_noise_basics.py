"""One-sided stable noise: sampling, exact checks, truncation.

The order-flow noise of the model is maximally skewed alpha-stable with
0 < alpha < 1, so every draw is nonnegative and the law has a Pareto tail of
index alpha.  At alpha = 1/2 the law is exactly Levy, which gives closed
forms to check the sampler against.
"""
import math
from statistics import NormalDist

import numpy as np

from bookfield.stable_noise import StableParams, sample_one_sided_stable, unit_quantile

# --- draw a million variates at the Levy point -----------------------------
params = StableParams(alpha=0.5, truncation_quantile=1.0)
x = sample_one_sided_stable(params, 10**6, seed=42)
print(f"alpha=0.5, 1e6 draws: median {np.median(x):.4f}, "
      f"90th pct {np.quantile(x, 0.9):.2f}, max {x.max():.3g}")

# the unit law at alpha = 1/2 is Levy with c = 1/2: CDF erfc(sqrt(1/(4x))), so its
# median is 1/(4 erfcinv(1/2)^2) = 1/(2 z^2) with z the standard normal 1/4-quantile
z = NormalDist().inv_cdf(0.25)
med_exact = 1.0 / (2.0 * z * z)
print(f"analytic median {med_exact:.4f} (sampler is exact up to MC error)")

xs = np.sort(x)
emp = np.arange(1, len(xs) + 1) / len(xs)
sup = np.max(np.abs(emp - np.vectorize(math.erfc)(np.sqrt(0.25 / xs))))
print(f"sup distance empirical vs analytic CDF: {sup:.5f}")

# --- the tail index equals alpha -------------------------------------------
for alpha in (0.4, 0.6, 0.8):
    y = sample_one_sided_stable(StableParams(alpha=alpha, truncation_quantile=1.0),
                                10**6, seed=7)
    ys = np.sort(y)
    k = int(0.01 * len(ys))
    hill = 1.0 / np.mean(np.log(ys[-k:] / ys[-k - 1]))
    print(f"alpha={alpha}: Hill tail index on top 1% = {hill:.3f}")

# --- truncation keeps single draws from nuking a lattice cell --------------
q = 0.99
print(f"\nunit-law quantiles: q=0.9 -> {unit_quantile(0.5, 0.9):.1f}, "
      f"q=0.99 -> {unit_quantile(0.5, 0.99):.1f}, q=1-1e-6 -> {unit_quantile(0.5, 1 - 1e-6):.3g}")
capped = sample_one_sided_stable(StableParams(alpha=0.5, truncation_quantile=q),
                                 10**6, seed=42)
print(f"with truncation at q={q}: max draw {capped.max():.1f} "
      f"(vs {x.max():.3g} untruncated), {np.mean(capped >= capped.max() * (1 - 1e-12)):.4%} at cap")
