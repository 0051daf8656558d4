"""Fat return tails from the continuous-field order-book model.

Runs the reference configuration on 256 cells and measures the pdf of
normalized absolute returns, next to the stationary-theory exponent
2 + 2 n0^2/k0^2 at the mean boundary volume.  The reference trend-following
constant is not matched to the boundary volume: a seed-1 run of 1e5 ticks
(first 2e4 dropped) had n0/k0 of about 41 and a Hill pdf exponent of 3.35,
a fat tail that tracks the n0 floor rather than the Fokker-Planck mechanism,
whose exponent at that ratio is in the thousands.  The quartic law (exponent
4 at n0 = k0) is not reproduced at this config.  Longer runs sharpen the
estimate; this demo stays short enough to finish in about a minute.
"""
import numpy as np

from bookfield import configs
from bookfield.analyzers import return_distribution, velocity_variance_vs_n0
from bookfield.dynamics import simulate
from bookfield.fokker_planck import FPParams, tail_exponent

STEPS = 300_000

params = configs.reference_model_params()
grid = configs.GridSpec(length=256, dx=configs.reference_grid().dx)
field = grid.new_field(configs.reference_init_profile())

print(f"simulating {STEPS} ticks on {grid.length} cells ...")
res = simulate(params, field, steps=STEPS, dt=1.0, seed=1)

burn = STEPS // 5
v = res.velocities[burn:]
n0 = res.n0s[burn:]
print(f"mean boundary volume n0 = {n0.mean():.1f}  (k0 = {params.mo.k0:.1f}, "
      f"ratio {n0.mean() / params.mo.k0:.2f})")

rd = return_distribution(v, tau=res.dt)
# a run too short for a tail fit has no exponents; its flags say why
hill, ols = ("none" if e is None else f"{e:.2f}" for e in (rd.tail_exponent, rd.tail_exponent_ols))
print(f"normalized |return| pdf tail exponent: Hill {hill}, log-log OLS {ols}  flags={rd.flags}")

fp = FPParams(k0=params.mo.k0, k_inf=params.mo.k_inf, k1=params.mo.k1,
              v0=params.mo.v0, n0=float(n0.mean()))
print(f"stationary-theory exponent 2 + 2 n0^2/k0^2 = {tail_exponent(fp):.2f}")

# plot-ready data: log-log pdf columns
hdr = "r_normalized,pdf"
rows = "\n".join(f"{c:.8g},{d:.8g}" for c, d in zip(rd.bin_centers, rd.density) if d > 0)
out = "quartic_returns_pdf.csv"
with open(out, "w") as fh:
    fh.write(hdr + "\n" + rows + "\n")
print(f"wrote {out}; plot log-log and compare against a slope -4 guide line")

# variance of v against boundary volume: the anticorrelation of Fig-4b type
curve = velocity_variance_vs_n0(res.to_frame(), 10)
ok = ~np.isnan(curve.values)
slope = np.polyfit(np.log(curve.bin_centers[ok][-5:]), np.log(curve.values[ok][-5:]), 1)[0]
print(f"large-n0 slope of <v^2> vs n0: {slope:.2f} (theory: -2)")
