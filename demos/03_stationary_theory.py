"""The stationary return density and its three regimes.

The velocity follows dv = -v dt + sigma(v) dW, time in ticks, with a
velocity-dependent diffusion built from the market-order response constants.
Solving the stationary Fokker-Planck problem gives a density with a Gaussian
core, a power-law mid regime whose exponent is 2 + 2 n0^2/(k0^2 + k1), near
2 + 2 n0^2/k0^2 at these k1, and a Gaussian far tail.  When the boundary
volume matches the trend constant (n0 = k0) the mid-regime exponent is about
4: the quartic law.
"""
import numpy as np

from bookfield.fokker_planck import (
    FPParams,
    diffusion_coefficient,
    gaussian_core_width,
    log_log_slope,
    make_grid,
    stationary_density,
    tail_exponent,
    variance_given_n0,
)

p = FPParams(k0=1.0, k_inf=2e-4, k1=1e-4, v0=1.0, n0=1.0)
print(f"params: n0/k0 = {p.n0 / p.k0:.3f} -> theoretical exponent {tail_exponent(p):.2f}")
print(f"sigma^2(0) = {diffusion_coefficient(0.0, p):.3g}, "
      f"Gaussian core width v_c = {gaussian_core_width(p):.3g}, saturation v0 = {p.v0}")

grid = make_grid(p, points=4001)
dens = stationary_density(p, grid)
print(f"density normalized on the grid: integral = {dens.normalization_check:.6f}")

vc = gaussian_core_width(p)
slope = log_log_slope(dens.grid, dens.density, 3.0 * vc, p.v0 / 3.0)
print(f"measured mid-regime log-log slope: {slope:.3f} (theory {-tail_exponent(p):.3f})")

for ratio in (1.0, np.sqrt(2.0), 2.0):
    q = FPParams(k0=1.0, k_inf=2e-4, k1=1e-4, v0=1.0, n0=ratio)
    d = stationary_density(q, make_grid(q, points=4001))
    s = log_log_slope(d.grid, d.density, 3.0 * gaussian_core_width(q), q.v0 / 3.0)
    print(f"  n0/k0 = {ratio:.3f}: slope {s:.3f}  vs  -(2 + 2 n0^2/k0^2) = {-tail_exponent(q):.3f}")

# <v^2 | n0> decays like n0^-2 at large n0
p2 = FPParams(k0=1.0, k_inf=0.3, k1=0.25, v0=1.0, n0=1.0)
n0s = np.geomspace(4.0, 64.0, 7)
vals = [variance_given_n0(n, p2) for n in n0s]
s = np.polyfit(np.log(n0s), np.log(vals), 1)[0]
print(f"\n<v^2> vs n0 slope at large n0: {s:.3f} (theory -2)")

with open("stationary_density.csv", "w") as fh:
    fh.write("v,p\n")
    for v, d in zip(dens.grid, dens.density):
        fh.write(f"{v:.8g},{d:.8g}\n")
print("wrote stationary_density.csv (plot |v| vs p on log-log axes)")
