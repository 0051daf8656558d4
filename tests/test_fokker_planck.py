import mpmath as mp
import numpy as np
import pytest

from bookfield.errors import NumericError
from bookfield.fokker_planck import (
    _exponent_profile,
    FPParams,
    diffusion_coefficient,
    gaussian_core_width,
    log_log_slope,
    make_grid,
    regime_report,
    stationary_density,
    tail_exponent,
    variance_given_n0,
)

from _oracles import em_velocity_samples, ks_distance_vs_density


BASE = FPParams(k0=1.0, k_inf=0.3, k1=0.25, v0=1.0, n0=1.0)


class TestDiffusionCoefficient:
    def test_zero_velocity_k1_equals_kinf(self):
        p = FPParams(k0=1.0, k_inf=0.3, k1=0.3, v0=1.0, n0=1.0)
        assert diffusion_coefficient(0.0, p) == 0.0

    def test_large_velocity_limit(self):
        val = diffusion_coefficient(80.0 * BASE.v0, BASE)
        expected = BASE.v0**2 * (BASE.k0**2 + BASE.k_inf) / BASE.n0**2
        assert val == pytest.approx(expected, rel=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_no_overflow_at_large_velocity(self):
        val = diffusion_coefficient(1e3 * BASE.v0, BASE)
        expected = BASE.v0**2 * (BASE.k0**2 + BASE.k_inf) / BASE.n0**2
        assert val == pytest.approx(expected, rel=1e-12)

    def test_even_function(self):
        for v in np.linspace(0.0, 4.0, 17):
            assert diffusion_coefficient(v, BASE) == pytest.approx(
                diffusion_coefficient(-v, BASE), rel=1e-14
            )

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            FPParams(k0=1.0, k_inf=0.2, k1=0.3, v0=1.0, n0=1.0)
        with pytest.raises(ValueError):
            FPParams(k0=1.0, k_inf=0.3, k1=0.2, v0=1.0, n0=0.0)

    def test_k0_and_k1_both_zero_rejected(self):
        # k0^2 + k1 = 0 leaves the Gaussian core width a division by zero
        with pytest.raises(ValueError, match="k0.*k1"):
            FPParams(k0=0.0, k_inf=0.3, k1=0.0, v0=1.0, n0=1.0)


class TestTailExponent:
    def test_quartic_at_matched_volumes(self):
        assert tail_exponent(FPParams(k0=2.0, k_inf=0.1, k1=0.0, v0=1.0, n0=2.0)) == pytest.approx(4.0)

    def test_sqrt_two_ratio(self):
        p = FPParams(k0=1.0, k_inf=0.1, k1=0.0, v0=1.0, n0=np.sqrt(2.0))
        assert tail_exponent(p) == pytest.approx(6.0)

    def test_large_k0_limit(self):
        p = FPParams(k0=1e9, k_inf=0.1, k1=0.0, v0=1.0, n0=1.0)
        assert tail_exponent(p) == pytest.approx(2.0, abs=1e-9)

    def test_k0_zero_rejected(self):
        with pytest.raises(ValueError):
            tail_exponent(FPParams(k0=0.0, k_inf=0.1, k1=0.0, v0=1.0, n0=1.0))
        p = FPParams(k0=0.0, k_inf=0.3, k1=0.25, v0=1.0, n0=1.0)  # valid: the guard is tail_exponent's
        with pytest.raises(ValueError, match="no power-law regime"):
            tail_exponent(p)

    def test_monotone_in_n0(self):
        vals = [tail_exponent(FPParams(k0=1.0, k_inf=0.1, k1=0.0, v0=1.0, n0=n)) for n in (0.5, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestStationaryDensity:
    def test_normalized_and_symmetric(self):
        grid = make_grid(BASE)
        d = stationary_density(BASE, grid)
        assert 0.99 <= d.normalization_check <= 1.01
        assert np.allclose(d.density, d.density[::-1], rtol=1e-6)

    def test_mid_regime_slope(self):
        p = FPParams(k0=1.0, k_inf=2e-8, k1=1e-8, v0=1.0, n0=1.0)
        grid = make_grid(p, points=4001)
        d = stationary_density(p, grid)
        vc = gaussian_core_width(p)
        slope = log_log_slope(d.grid, d.density, 3.0 * vc, p.v0 / 3.0)
        assert slope == pytest.approx(-4.0, abs=0.15)

    def test_small_v_regime_is_gaussian(self):
        # the exponent integral contributes exp(-n0^2 v^2 / (v0^2 (k_inf-k1)))
        # and the 2/sigma^2 prefactor adds (k0^2+k1)/(v0^2 (k_inf-k1)) to the
        # quadratic coefficient, so the core is Gaussian with variance
        # v0^2 (k_inf - k1) / (2 (n0^2 + k0^2 + k1))
        p = FPParams(k0=1.0, k_inf=0.5, k1=0.2, v0=1.0, n0=1.5)
        grid = make_grid(p, points=4001)
        d = stationary_density(p, grid)
        vc = gaussian_core_width(p)
        m = (d.grid > 0) & (d.grid < vc / 3.0)
        x = d.grid[m] ** 2
        y = np.log(d.density[m])
        coef = np.polyfit(x, y, 1)
        resid = y - np.polyval(coef, x)
        r2 = 1.0 - np.sum(resid**2) / np.sum((y - y.mean()) ** 2)
        assert r2 > 0.99
        var_pred = p.v0**2 * (p.k_inf - p.k1) / (
            2.0 * (p.n0**2 + p.k0**2 + p.k1)
        )
        assert -coef[0] == pytest.approx(1.0 / (2.0 * var_pred), rel=0.05)

    def test_matches_euler_maruyama_oracle(self):
        grid = make_grid(BASE, points=3001)
        d = stationary_density(BASE, grid)
        samples = em_velocity_samples(BASE, total_steps=2_000_000, seed=42)
        assert ks_distance_vs_density(samples, d.grid, d.density) < 0.02

    def test_non_normalizable_when_core_absent(self):
        p = FPParams(k0=1.0, k_inf=0.3, k1=0.3, v0=1.0, n0=1.0)
        with pytest.raises(NumericError, match="non-normalizable"):
            stationary_density(p, make_grid(p))
        # a grid deep in the Gaussian far tail: the density underflows to 0
        # beyond its first point, so the inner slope is taken from log density
        p = FPParams(k0=1.0, k_inf=0.3, k1=0.3, v0=5e-5, n0=1.0)
        pos = np.linspace(1e-3, 5.0, 500)
        with pytest.raises(NumericError, match="non-normalizable"):
            stationary_density(p, np.concatenate([-pos[::-1], pos]))

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            stationary_density(BASE, np.linspace(-1.0, 2.0, 100))
        with pytest.raises(ValueError, match="increasing"):
            stationary_density(BASE, np.zeros(100))
        p0 = FPParams(k0=1.0, k_inf=0.3, k1=0.3, v0=1.0, n0=1.0)
        with pytest.raises(ValueError, match="exclude 0"):
            stationary_density(p0, np.linspace(-1, 1, 101))


class TestExponentProfile:
    """The cumulative exponent 2 int mu/sigma^2 against a 30-digit mpmath quadrature."""

    @staticmethod
    def exact(p: FPParams, half: np.ndarray, i: int) -> float:
        """2 int mu/sigma^2 from half[0] to half[i], sigma^2 in its printed sech form."""
        def integrand(u):
            w = u / p.v0
            bracket = p.k0**2 * mp.tanh(w) ** 2 + (p.k_inf - p.k1 * mp.sech(w) ** 2)
            return 2 * -u / (p.v0**2 / p.n0**2 * bracket)

        # breakpoints a factor ~e apart resolve the core and the 1/u regime
        start = half[1] if half[0] > 0.0 else min(half[1], gaussian_core_width(p))
        pts = [half[0], *np.geomspace(start, half[i], 2 + int(np.log(half[i] / start)))]
        with mp.workdps(30):
            return float(mp.quad(integrand, [mp.mpf(x) for x in pts]))

    @pytest.mark.parametrize("p, grid", [
        (BASE, None),
        (FPParams(k0=1.0, k_inf=0.5, k1=0.2, v0=1.0, n0=1.5), None),
        (FPParams(k0=2.0, k_inf=0.5, k1=0.1, v0=0.3, n0=3.0), None),
        (FPParams(k0=1.0, k_inf=0.3, k1=0.3, v0=1.0, n0=1.0), None),  # sigma^2(0) = 0
        # a coarse grid: [0, 0.02] spans ~200 core widths (1e-4), [0.02, 0.04] a ratio of 2
        (FPParams(k0=1.0, k_inf=2e-8, k1=1e-8, v0=1.0, n0=1.0), np.linspace(-5, 5, 501)),
    ], ids=[f"p{i}" for i in range(5)])
    def test_matches_mpmath(self, p, grid):
        grid = make_grid(p) if grid is None else grid
        half = grid[grid >= 0.0]
        profile = _exponent_profile(half, p)
        assert profile[0] == 0.0
        for i in (1, 2, 10, 200, 700, len(half) - 1):
            if i < len(half):
                assert profile[i] == pytest.approx(self.exact(p, half, i), rel=1e-12)

    @pytest.mark.parametrize("where", ["middle", "end"])
    def test_segment_of_zero_ln_width_adds_nothing(self, where):
        # two adjacent points whose logs round to the same double, beside a segment that is split
        x = 1e10
        y = np.nextafter(x, np.inf)
        assert np.log(x) == np.log(y)
        tail = [x, y, 2e10] if where == "middle" else [x, y]
        half = np.array([0.0, 1e-3, 1.0, 50.0, *tail])
        profile = _exponent_profile(half, BASE)
        assert np.all(np.isfinite(profile))
        k = half.tolist().index(y)
        assert profile[k] == profile[k - 1]
        without = _exponent_profile(np.delete(half, k), BASE)
        assert np.array_equal(np.delete(profile, k), without)


class TestVarianceGivenN0:
    def test_mean_velocity_is_zero(self):
        grid = make_grid(BASE)
        d = stationary_density(BASE, grid)
        m1 = np.trapezoid(d.density * d.grid, d.grid)
        m2 = np.trapezoid(d.density * d.grid**2, d.grid)
        assert abs(m1) < 1e-12 * m2 ** 0.5

    def test_large_n0_scaling_slope(self):
        p = FPParams(k0=1.0, k_inf=0.3, k1=0.25, v0=1.0, n0=1.0)
        n0s = np.geomspace(8.0, 64.0, 5)
        var = [variance_given_n0(n, p) for n in n0s]
        slope = np.polyfit(np.log(n0s), np.log(var), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.1)

    def test_quadrature_vs_sde_oracle(self):
        var_q = variance_given_n0(BASE.n0, BASE)
        samples = em_velocity_samples(BASE, total_steps=3_000_000, seed=7)
        var_mc = float(np.mean(samples**2))
        assert abs(var_q - var_mc) / var_mc < 0.03

    def test_divergent_second_moment_flagged(self):
        p = FPParams(k0=2.0, k_inf=0.3, k1=0.25, v0=1.0, n0=1.0)
        assert tail_exponent(p) <= 3.0
        with pytest.raises(NumericError, match="divergent"):
            variance_given_n0(p.n0, p)

    def test_bad_n0(self):
        with pytest.raises(ValueError):
            variance_given_n0(-1.0, BASE)


def test_regime_report_no_power_law_when_k0_zero():
    p = FPParams(k0=0.0, k_inf=0.3, k1=0.25, v0=1.0, n0=1.0)
    rep = regime_report(p)
    assert rep["power_law"] is False
    assert "no power-law regime" in rep["note"]


def test_regime_report_quartic():
    p = FPParams(k0=1.0, k_inf=0.3, k1=0.25, v0=1.0, n0=1.0)
    rep = regime_report(p)
    assert rep["tail_exponent"] == pytest.approx(4.0)
