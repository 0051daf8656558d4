"""Why the comparison models miss the heavy tail.

The CS-style baseline places and cancels orders with no reaction to the
price velocity; the KSTT-style baseline makes every trader a trend follower,
uniformly at all price distances.  Both end up with a velocity-independent
innovation variance, hence Gaussian returns, and each fails a different
spatial signature that the continuous-field model reproduces.
"""
import numpy as np
from scipy import stats

from bookfield import configs
from bookfield.analyzers import (
    return_distribution,
    rms_delta_vs_velocity,
    velocity_volume_correlation,
)
from bookfield.baselines import run_baseline
from bookfield.dynamics import simulate

STEPS = 150_000

print("running cf / cs / kstt with a shared seed ...")
cf_field = configs.GridSpec(length=256, dx=2e-4).new_field(configs.reference_init_profile())
cf = simulate(configs.reference_model_params(), cf_field, steps=STEPS, dt=1.0, seed=11)

cs_field = configs.cs_reference_field()
cs = run_baseline(configs.cs_reference(), cs_field, steps=STEPS, seed=11,
                  tracked_cells=np.arange(cs_field.length))

kstt_field = configs.kstt_reference_field()
kstt = run_baseline(configs.kstt_reference(), kstt_field, steps=STEPS,
                    seed=11, tracked_cells=np.arange(kstt_field.length))

print(f"\n{'model':6s} {'kurtosis(v)':>12s} {'tail exponent':>14s}")
for name, res in (("cf", cf), ("cs", cs), ("kstt", kstt)):
    v = res.velocities[STEPS // 5:]
    rd = return_distribution(v, tau=1.0)
    tail = f"{rd.tail_exponent:.2f}" if rd.tail_exponent else "n/a"
    flagged = " (no stable power law)" if "no_stable_power_law" in rd.flags else ""
    print(f"{name:6s} {stats.kurtosis(v):12.2f} {tail:>14s}{flagged}")
print("cf is heavy-tailed near exponent 4; the baselines are near-Gaussian")

print("\nvelocity-volume correlation far from the price (x = 0.8 L):")
for name, res in (("cf", cf), ("kstt", kstt)):
    frame = res.to_frame()
    cor = velocity_volume_correlation(frame, 1.0)
    far = int(0.8 * len(frame.x_bins))
    print(f"  {name}: corr(v, dn_bid) = {cor['bid'].values[far]:+.3f}")
print("the uniform trend coupling of kstt keeps the correlation from decaying")

print("\nrms of the total volume change, |v| = v0 bin against v = 0 bin:")
v0 = configs.kstt_reference().mo.v0
edges = np.array([-1.2 * v0, -0.8 * v0, -0.2 * v0, 0.2 * v0, 0.8 * v0, 1.2 * v0])
for name, res in (("cs", cs), ("kstt", kstt)):
    r = rms_delta_vs_velocity(res.to_frame(), edges)["bid"].values
    print(f"  {name}: ratio {r[0] / r[2]:.3f} (down-move) {r[4] / r[2]:.3f} (up-move)")
print("both baselines stay flat: neither carries the market-activity coupling")
