import numpy as np
import pytest

from bookfield import profiles
from bookfield.analyzers import (
    SeriesFrame,
    conditional_delta_distribution,
    fit_market_order_response,
    hill_tail_index,
    mean_delta_vs_n,
    return_distribution,
    rms_delta_vs_velocity,
    spatial_correlation,
    velocity_variance_vs_n0,
    velocity_volume_correlation,
)
from bookfield.dynamics import market_order_rate, simulate
from bookfield.errors import DataError
from bookfield.field import MarketOrderParams, ModelParams, PlacementActivityParams, new_field
from bookfield.stable_noise import StableParams


def synthetic_frame(T=5000, K=6, seed=0, vol_fn=None, vel_fn=None, n0_fn=None, segments=()):
    rng = np.random.default_rng(seed)
    times = np.arange(T, dtype=float)
    x_bins = np.arange(K) * 0.01
    if vol_fn is None:
        bid = rng.uniform(1.0, 2.0, (T, K))
        ask = rng.uniform(1.0, 2.0, (T, K))
    else:
        bid, ask = vol_fn(rng, T, K)
    velocities = vel_fn(rng, T) if vel_fn else rng.normal(0.0, 1e-4, T)
    n0s = n0_fn(rng, T) if n0_fn else bid[:, 0] + ask[:, 0]
    return SeriesFrame(
        times=times, velocities=velocities, n0s=n0s, x_bins=x_bins,
        bid=bid, ask=ask, segments=segments,
    )


def cf_run(steps=40_000, length=64, D=2e-9, sigma_out=0.004, seed=3, k0=2.0,
           quantile=0.99, sigma_in=0.05, n0_floor=5.0):
    params = ModelParams(
        stable=StableParams(alpha=0.5, scale=1.0, truncation_quantile=quantile),
        sigma_in=profiles.exp_decay(sigma_in, 0.02),
        sigma_out=profiles.constant(sigma_out),
        diffusion=profiles.constant(D),
        mo=MarketOrderParams(k0=k0, k_inf=0.5, k1=0.5, v0=5e-5),
        tau=1.0,
        n0_floor=n0_floor,
    )
    f = new_field(length, 2e-4, lambda x: sigma_in * np.exp(-x / 0.02) / sigma_out)
    return simulate(params, f, steps=steps, dt=1.0, seed=seed,
                    tracked_cells=np.arange(length))


class TestConditionalDeltaDistribution:
    def test_constant_series_point_mass_at_zero(self):
        frame = synthetic_frame(vol_fn=lambda rng, T, K: (np.ones((T, K)), np.ones((T, K))))
        fam = conditional_delta_distribution(frame, 0.0, np.array([0.5, 1.5]), 1.0,
                                             min_samples=100)
        assert fam.kept[0]
        row = fam.densities[0]
        inner = (fam.delta_edges[:-1] < 0) & (fam.delta_edges[1:] > 0)
        assert row[inner].sum() > 0.0
        assert np.all(row[~inner] == 0.0)

    def test_gaussian_deltas_match_gaussian_cdf(self):
        def vol(rng, T, K):
            steps = rng.normal(0.0, 1.0, (T, K))
            base = 1000.0 + np.cumsum(steps, axis=0)
            return base, base.copy()

        frame = synthetic_frame(T=60_000, vol_fn=vol, seed=4)
        fam = conditional_delta_distribution(frame, 0.0, 1, 1.0, min_samples=1000)
        i = np.argmax(fam.kept)
        dens = fam.densities[i]
        edges = fam.delta_edges
        emp_cdf = np.concatenate([[0.0], np.cumsum(dens * np.diff(edges))])
        from scipy.stats import norm

        ks = np.max(np.abs(emp_cdf - norm.cdf(edges)))
        assert ks < 0.01

    def test_histograms_integrate_to_one(self):
        frame = synthetic_frame(T=20_000, seed=5)
        fam = conditional_delta_distribution(frame, 0.0, 3, 1.0, min_samples=200)
        for i in range(len(fam.kept)):
            if fam.kept[i]:
                mass = np.sum(fam.densities[i] * np.diff(fam.delta_edges))
                assert mass == pytest.approx(1.0, abs=1e-6)

    def test_cf_run_has_fat_tails(self):
        # pure placement/cancellation statistics; loose truncation so the Hill
        # window stays clear of the cap
        res = cf_run(steps=30_000, D=0.0, quantile=0.999)
        frame = res.to_frame()
        series = frame.bid[:, 1]
        delta = series[1:] - series[:-1]
        idx = hill_tail_index(np.abs(delta[delta != 0.0]), 0.02)
        assert idx < 3.0

    def test_empty_frame_rejected(self):
        frame = synthetic_frame(T=0)
        with pytest.raises(DataError):
            conditional_delta_distribution(frame, 0.0, 3, 1.0)


class TestMeanDeltaVsN:
    def test_synthetic_slope_recovered_within_5pct(self):
        slope_true = -0.3

        def vol(rng, T, K):
            n = np.empty((T, K))
            n[0] = 10.0
            for t in range(1, T):
                n[t] = np.maximum(
                    n[t - 1] + slope_true * n[t - 1] + 2.0 + rng.normal(0, 0.3, K), 0.0
                )
            return n, n.copy()

        frame = synthetic_frame(T=40_000, vol_fn=vol, seed=6)
        fit = mean_delta_vs_n(frame, 0.0, 1.0)
        assert fit.slope == pytest.approx(slope_true, rel=0.05)

    def test_no_cancellation_gives_zero_slope(self):
        # pure placement: delta independent of n
        def vol(rng, T, K):
            inc = rng.exponential(1.0, (T, K))
            n = np.cumsum(inc, axis=0)
            return n, n.copy()

        frame = synthetic_frame(T=20_000, vol_fn=vol, seed=7)
        fit = mean_delta_vs_n(frame, 0.0, 1.0)
        assert abs(fit.slope) <= 2.0 * fit.slope_stderr + 1e-12

    def test_cf_run_negative_slope(self):
        res = cf_run(steps=30_000, sigma_out=0.008)
        frame = res.to_frame()
        fit = mean_delta_vs_n(frame, frame.x_bins[1], 1.0)
        assert fit.slope < 0.0

    def test_too_few_bins_rejected(self):
        frame = synthetic_frame(T=10)
        with pytest.raises((DataError, ValueError)):
            mean_delta_vs_n(frame, 0.0, 1.0)


class TestSpatialCorrelation:
    def test_self_correlation_is_one(self):
        frame = synthetic_frame(T=5000, seed=8)
        c = spatial_correlation(frame, frame.x_bins[2], 1.0)
        assert c.values[2] == pytest.approx(1.0, abs=1e-12)

    def test_independent_noise_uncorrelated(self):
        res = cf_run(steps=25_000, D=0.0)
        frame = res.to_frame()
        c = spatial_correlation(frame, frame.x_bins[4], 1.0)
        n = len(frame.times) - 1
        off = np.delete(c.values, 4)
        assert np.nanmax(np.abs(off)) < 2.0 / np.sqrt(n) + 0.02

    def test_diffusion_gives_negative_adjacent_correlation(self):
        res = cf_run(steps=25_000, D=8e-9)
        frame = res.to_frame()
        ref = 4
        c = spatial_correlation(frame, frame.x_bins[ref], 1.0)
        assert c.values[ref - 1] < -0.02 or c.values[ref + 1] < -0.02

    def test_time_reversal_invariance(self):
        frame = synthetic_frame(T=4000, seed=9)
        rev = SeriesFrame(
            times=frame.times,
            velocities=frame.velocities[::-1].copy(),
            n0s=frame.n0s[::-1].copy(),
            x_bins=frame.x_bins,
            bid=frame.bid[::-1].copy(),
            ask=frame.ask[::-1].copy(),
        )
        a = spatial_correlation(frame, frame.x_bins[1], 1.0)
        b = spatial_correlation(rev, frame.x_bins[1], 1.0)
        assert np.allclose(a.values, b.values, atol=1e-10)


class TestReturnDistribution:
    def test_gaussian_returns_flagged_as_no_power_law(self):
        rng = np.random.default_rng(10)
        rd = return_distribution(rng.normal(0.0, 1e-4, 300_000), tau=1.0)
        assert "no_stable_power_law" in rd.flags or "estimator_discrepancy" in rd.flags

    def test_student_t3_tail_recovered(self):
        rng = np.random.default_rng(11)
        rd = return_distribution(rng.standard_t(3, 500_000) * 1e-4, tau=1.0)
        assert rd.tail_exponent is not None
        # pdf exponent of |t_3| is 4 = ccdf 3 + 1
        assert rd.tail_exponent == pytest.approx(4.0, abs=0.3)
        assert "no_stable_power_law" not in rd.flags

    def test_insufficient_samples_flagged(self):
        rng = np.random.default_rng(12)
        rd = return_distribution(rng.standard_t(3, 5000), tau=1.0)
        assert rd.tail_exponent is None
        assert any(f.startswith("insufficient_samples") for f in rd.flags)

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(13)
        rd = return_distribution(rng.standard_t(3, 200_000), tau=1.0)
        mass = np.sum(rd.density * np.diff(np.asarray(rd.meta["bin_edges"])))
        assert mass == pytest.approx(1.0, abs=1e-9)


class TestVelocityVarianceVsN0:
    def test_constant_velocity_flat_curve(self):
        frame = synthetic_frame(
            T=20_000,
            vel_fn=lambda rng, T: np.full(T, 3e-4),
            n0_fn=lambda rng, T: rng.uniform(1.0, 100.0, T),
        )
        c = velocity_variance_vs_n0(frame, 8)
        vals = c.values[~np.isnan(c.values)]
        assert np.allclose(vals, 9e-8, rtol=1e-12)


class TestVelocityVolumeCorrelation:
    def test_no_trend_term_gives_zero_correlation(self):
        frame = synthetic_frame(T=30_000, seed=14)
        out = velocity_volume_correlation(frame, 1.0)
        n = len(frame.times) - 1
        for side in ("bid", "ask"):
            assert np.nanmax(np.abs(out[side].values)) < 3.0 / np.sqrt(n) + 0.02

    def test_mirrored_run_antisymmetry(self):
        frame = synthetic_frame(T=10_000, seed=15)
        mirrored = SeriesFrame(
            times=frame.times,
            velocities=-frame.velocities,
            n0s=frame.n0s,
            x_bins=frame.x_bins,
            bid=frame.ask.copy(),
            ask=frame.bid.copy(),
        )
        a = velocity_volume_correlation(frame, 1.0)
        b = velocity_volume_correlation(mirrored, 1.0)
        assert np.allclose(a["bid"].values, -b["ask"].values, atol=1e-12)
        assert np.allclose(a["ask"].values, -b["bid"].values, atol=1e-12)


def activity_frame(k0_in, k_inf_in, k1_in, v0_in, T=60_000, seed=16):
    """Pure-placement synthetic: delta n driven by the activity function."""
    rng = np.random.default_rng(seed)
    K = 5
    times = np.arange(T + 1, dtype=float)
    v = rng.normal(0.0, 3.0 * v0_in, T + 1)
    act = PlacementActivityParams(
        k0_in=profiles.constant(k0_in),
        k_inf_in=profiles.constant(k_inf_in),
        k1_in=profiles.constant(k1_in),
        v0_in=profiles.constant(v0_in),
    )
    from bookfield.dynamics import placement_scale

    bid = np.zeros((T + 1, K))
    ask = np.zeros((T + 1, K))
    for t in range(T):
        sb = placement_scale(0.0, v[t], "bid", act)
        sa = placement_scale(0.0, v[t], "ask", act)
        bid[t + 1] = bid[t] + sb * rng.exponential(1.0, K)
        ask[t + 1] = ask[t] + sa * rng.exponential(1.0, K)
    return SeriesFrame(
        times=times, velocities=v, n0s=bid[:, 0] + ask[:, 0],
        x_bins=np.arange(K) * 0.01, bid=bid, ask=ask,
    )


class TestRmsDeltaVsVelocity:
    def test_velocity_independent_activity_is_flat(self):
        frame = activity_frame(k0_in=0.0, k_inf_in=1.0, k1_in=0.0, v0_in=1e-4)
        out = rms_delta_vs_velocity(frame, 9)
        vals = out["bid"].values
        ok = ~np.isnan(vals)
        assert vals[ok].max() / vals[ok].min() < 1.15

    def test_planted_v0_recovered_within_10pct(self):
        v0_true = 2e-4
        # k0 < k_inf keeps both sides unclamped at every v, so all four
        # constants stay identifiable from the curve
        frame = activity_frame(k0_in=1.2, k_inf_in=2.0, k1_in=1.2, v0_in=v0_true, T=100_000)
        out = rms_delta_vs_velocity(frame, 21)
        centers = out["bid"].bin_centers
        ok = ~(np.isnan(out["bid"].values) | np.isnan(out["ask"].values))
        flows = np.column_stack([out["bid"].values[ok], out["ask"].values[ok]])
        rep = fit_market_order_response(centers[ok], flows)
        assert rep.converged
        assert rep.parameters["v0"][0] == pytest.approx(v0_true, rel=0.10)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFitMarketOrderResponse:
    def test_noiseless_recovery_exact(self):
        p = MarketOrderParams(k0=3.0, k_inf=2.0, k1=1.5, v0=2e-4)
        v = np.linspace(-8e-4, 8e-4, 400)
        flows = np.array([market_order_rate(vi, p) for vi in v])
        rep = fit_market_order_response(v, flows)
        assert rep.converged
        for name, truth in [("k0", 3.0), ("k_inf", 2.0), ("k1", 1.5), ("v0", 2e-4)]:
            assert rep.parameters[name][0] == pytest.approx(truth, rel=1e-6)

    def test_noisy_recovery_within_5pct(self):
        rng = np.random.default_rng(17)
        p = MarketOrderParams(k0=3.0, k_inf=2.0, k1=1.5, v0=2e-4)
        v = rng.uniform(-8e-4, 8e-4, 5000)
        flows = np.array([market_order_rate(vi, p) for vi in v])
        flows *= 1.0 + 0.05 * rng.standard_normal(flows.shape)
        rep = fit_market_order_response(v, flows)
        assert rep.converged
        # a warning raised as an error would only drop a start, so check none was lost
        assert not any("error" in t for t in rep.diagnostics["residual_trace"])
        for name, truth in [("k0", 3.0), ("k_inf", 2.0), ("k1", 1.5), ("v0", 2e-4)]:
            assert rep.parameters[name][0] == pytest.approx(truth, rel=0.05)

    def test_n0_diagnostic_ratio(self):
        p = MarketOrderParams(k0=3.0, k_inf=2.0, k1=1.5, v0=2e-4)
        v = np.linspace(-8e-4, 8e-4, 200)
        flows = np.array([market_order_rate(vi, p) for vi in v])
        rep = fit_market_order_response(v, flows, n0s=np.full(200, 3.3))
        assert rep.diagnostics["n0_over_k0"] == pytest.approx(1.1, rel=1e-3)

    def test_deterministic(self):
        rng = np.random.default_rng(18)
        p = MarketOrderParams(k0=1.0, k_inf=0.5, k1=0.2, v0=1e-4)
        v = rng.uniform(-4e-4, 4e-4, 500)
        flows = np.array([market_order_rate(vi, p) for vi in v])
        flows *= 1.0 + 0.03 * rng.standard_normal(flows.shape)
        r1 = fit_market_order_response(v, flows)
        r2 = fit_market_order_response(v, flows)
        assert r1.parameters == r2.parameters
        assert not any("error" in t for t in r1.diagnostics["residual_trace"])
