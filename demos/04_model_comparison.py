"""The continuous-field model next to the CS and KSTT comparison models.

Runs the three models with a shared seed and prints, for each: the kurtosis
and tail exponent of the velocity, the correlation of v with the bid volume
change near the price and far from it, and the rms of the total bid volume
change per velocity bin, each bin over the central one, with bin edges at
±0.3, ±1.5 and ±3 times that model's std(v).

At 150,000 ticks and seed 11 (the CF run tracks 8 log-spaced cells):
- cf's velocity has excess kurtosis 70 and a Hill pdf tail exponent of 3.45;
  cs and kstt have 0.09 and 0.19, and their tail fits are flagged as no
  stable power law.
- corr(v, dn_bid) is +0.019 and -0.023 for cf and within 0.004 of 0 for cs:
  neither has a velocity-volume correlation.  kstt's is +0.098 at cell 0 and
  +0.084 at cell 12; its uniform trend coupling barely lets it decay.
- The rms ratios of cs stay within 1 % of 1.  kstt's read 1.04-1.16 and cf's
  1.04-1.25; whether cf's rise comes from the frame shift alone is not checked.
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
runs = (("cf", cf), ("cs", cs), ("kstt", kstt))

print(f"\n{'model':6s} {'kurtosis(v)':>12s} {'tail exponent':>14s}")
for name, res in runs:
    v = res.velocities[STEPS // 5:]
    rd = return_distribution(v, tau=1.0)
    tail = f"{rd.tail_exponent:.2f}" if rd.tail_exponent else "n/a"
    print(f"{name:6s} {stats.kurtosis(v):12.2f} {tail:>14s}  flags={rd.flags}")

print("\ncorr(v, dn_bid) at the first tracked cell and at the one nearest 0.8 of the last:")
for name, res in runs:
    frame = res.to_frame()
    cor = velocity_volume_correlation(frame, 1.0)["bid"].values
    far = int(np.argmin(np.abs(frame.x_bins - 0.8 * frame.x_bins[-1])))
    print(f"  {name:5s} cell {res.tracked_cells[0]:3d}: {cor[0]:+.3f}   "
          f"cell {res.tracked_cells[far]:3d}: {cor[far]:+.3f}")

print("\nrms of the total bid volume change per velocity bin, over the |v| < 0.3 std(v) bin:")
print(f"{'model':6s} {'-3..-1.5':>9s} {'-1.5..-0.3':>11s} {'0.3..1.5':>9s} {'1.5..3':>7s}")
for name, res in runs:
    edges = np.std(res.velocities) * np.array([-3.0, -1.5, -0.3, 0.3, 1.5, 3.0])
    r = rms_delta_vs_velocity(res.to_frame(), edges)["bid"].values
    print(f"{name:6s} {r[0] / r[2]:9.3f} {r[1] / r[2]:11.3f} {r[3] / r[2]:9.3f} {r[4] / r[2]:7.3f}")
