import numpy as np
import pytest

from bookfield import analyzers, profiles
from bookfield.cli import main
from bookfield.analyzers import (
    SeriesFrame,
    conditional_delta_distribution,
    excess_kurtosis,
    fit_market_order_response,
    hill_tail_index,
    mean_delta_vs_n,
    return_distribution,
    rms_delta_vs_velocity,
    spatial_correlation,
    velocity_variance_vs_n0,
    velocity_volume_correlation,
)
from bookfield.dynamics import market_order_rate, simulate, trend_response
from bookfield.errors import DataError
from bookfield.field import MarketOrderParams, ModelParams, PlacementActivityParams, new_field
from bookfield.ingest import read_step_records_frame
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
        stable=StableParams(alpha=0.5, truncation_quantile=quantile),
        sigma_in=profiles.exp_decay(sigma_in, 0.02),
        sigma_out=profiles.constant(sigma_out),
        diffusion=profiles.constant(D),
        mo=MarketOrderParams(k0=k0, k_inf=0.5, k1=0.5, v0=5e-5),
        n0_floor=n0_floor,
    )
    f = new_field(length, 2e-4, lambda x: sigma_in * np.exp(-x / 0.02) / sigma_out)
    return simulate(params, f, steps=steps, dt=1.0, seed=seed,
                    tracked_cells=np.arange(length))


class TestConditionalDeltaDistribution:
    def test_constant_series_point_mass_at_zero(self):
        frame = synthetic_frame(vol_fn=lambda rng, T, K: (np.ones((T, K)), np.ones((T, K))))
        fam = conditional_delta_distribution(frame, 0.0, 1.0)
        assert fam.kept.sum() == 1  # every sample sits in one conditioning bin
        row = fam.densities[fam.kept][0]
        inner = (fam.delta_edges[:-1] < 0) & (fam.delta_edges[1:] > 0)
        assert row[inner].sum() > 0.0
        assert np.all(row[~inner] == 0.0)

    def test_gaussian_deltas_match_gaussian_cdf(self):
        def vol(rng, T, K):
            steps = rng.normal(0.0, 1.0, (T, K))
            base = 1000.0 + np.cumsum(steps, axis=0)
            return base, base.copy()

        frame = synthetic_frame(T=60_000, vol_fn=vol, seed=4)
        fam = conditional_delta_distribution(frame, 0.0, 1.0)
        i = np.argmax(fam.kept)
        dens = fam.densities[i]
        edges = fam.delta_edges
        emp_cdf = np.concatenate([[0.0], np.cumsum(dens * np.diff(edges))])
        from scipy.stats import norm

        ks = np.max(np.abs(emp_cdf - norm.cdf(edges)))
        assert ks < 0.01

    def test_histograms_integrate_to_one(self):
        frame = synthetic_frame(T=20_000, seed=5)
        fam = conditional_delta_distribution(frame, 0.0, 1.0)
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
            conditional_delta_distribution(frame, 0.0, 1.0)


def slope_at(curve, x):
    """The mean-delta slope the curve lists at x (which it lists once)."""
    (i,) = np.flatnonzero(curve.bin_centers == x)
    return curve.values[i]


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
        curve = mean_delta_vs_n(frame, 1.0)
        assert slope_at(curve, 0.0) == pytest.approx(slope_true, rel=0.05)

    def test_no_cancellation_gives_zero_slope(self):
        # pure placement: delta independent of n, with mean 1
        def vol(rng, T, K):
            inc = rng.exponential(1.0, (T, K))
            n = np.cumsum(inc, axis=0)
            return n, n.copy()

        frame = synthetic_frame(T=20_000, vol_fn=vol, seed=7)
        curve = mean_delta_vs_n(frame, 1.0)
        # across the whole volume range each fit moves <Delta n> by under a tenth of its mean
        assert np.all(np.abs(curve.values) * frame.bid.max() < 0.1)

    def test_cf_run_negative_slope(self):
        res = cf_run(steps=30_000, sigma_out=0.008)
        frame = res.to_frame()
        assert slope_at(mean_delta_vs_n(frame, 1.0), frame.x_bins[1]) < 0.0

    def test_only_bins_with_varying_volume_are_listed(self):
        # Bins 1 and 3 cycle through 1, 2, 4, 8, one value per log bin, so every
        # sample enters the fit and the slope is the OLS slope through
        # (1, 1), (2, 2), (4, 4), (8, -7): -35 / 28.75.  Bin 0 is empty, bin 2 constant.
        T = 400

        def vol(rng, T, K):
            cycle = np.array([1.0, 2.0, 4.0, 8.0])
            bid = np.zeros((T, K))
            bid[:, 1] = np.resize(cycle, T)
            bid[:, 2] = 5.0
            bid[:, 3] = np.resize(np.roll(cycle, 1), T)
            return bid, bid.copy()

        frame = synthetic_frame(T=T, K=4, vol_fn=vol)
        curve = mean_delta_vs_n(frame, 1.0)
        assert np.array_equal(curve.bin_centers, frame.x_bins[[1, 3]])
        assert np.array_equal(curve.bin_edges, frame.x_bins[[1, 3]])
        assert np.array_equal(curve.counts, [T - 1, T - 1])
        assert np.allclose(curve.values, -35.0 / 28.75, rtol=1e-12)
        assert curve.meta == {"statistic": "mean_delta_slope", "dt": 1.0}

    def test_too_few_bins_rejected(self):
        frame = synthetic_frame(T=10)  # no volume bin can hold 30 samples
        with pytest.raises(DataError, match="no x bin had enough volume samples for mean-delta"):
            mean_delta_vs_n(frame, 1.0)


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

    def test_hill_ties_at_the_threshold_rejected(self):
        # a point mass above the bulk: the top k + 1 samples are equal and
        # every log ratio of the Hill mean is 0
        rng = np.random.default_rng(14)
        samples = np.concatenate([np.full(5000, 2.0), rng.uniform(0.0, 1.0, 1000)])
        with pytest.raises(DataError, match="tie"):
            hill_tail_index(samples, 0.01)

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(13)
        rd = return_distribution(rng.standard_t(3, 200_000), tau=1.0)
        mass = np.sum(rd.density * np.diff(np.asarray(rd.meta["bin_edges"])))
        assert mass == pytest.approx(1.0, abs=1e-9)


def test_excess_kurtosis_equals_scipy():
    from scipy import stats

    rng = np.random.default_rng(5)
    arrays = [rng.standard_t(4.0, 200), rng.normal(size=1001), rng.uniform(size=7),
              1e-4 * rng.standard_t(3.0, 5000) + 2e-3, np.array([0.0, 0.0, 1.0])]
    for v in arrays:
        assert excess_kurtosis(v) == float(stats.kurtosis(v))


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

    def test_lag_correlates_with_window_mean_velocity(self):
        # bid at bin 2 integrates v, so its change over 3 ticks is
        # proportional to v[t] + v[t+1] + v[t+2] inside each segment.
        def vol_fn(rng, T, K):
            return rng.uniform(1.0, 2.0, (T, K)), rng.uniform(1.0, 2.0, (T, K))

        frame = synthetic_frame(T=3000, seed=21, vol_fn=vol_fn,
                                segments=((0, 1000), (1000, 1002), (1002, 3000)))
        frame.bid[:, 2] = 10.0 + 5e3 * np.concatenate([[0.0], np.cumsum(frame.velocities)[:-1]])
        out = velocity_volume_correlation(frame, 3.0)
        assert out["bid"].values[2] == pytest.approx(1.0, abs=1e-12)
        assert out["bid"].counts[2] == (1000 - 3) + (1998 - 3)


def activity_params(k0_in, k_inf_in, k1_in, v0_in):
    return PlacementActivityParams(
        k0_in=profiles.constant(k0_in),
        k_inf_in=profiles.constant(k_inf_in),
        k1_in=profiles.constant(k1_in),
        v0_in=profiles.constant(v0_in),
    )


def activity_frame(k0_in, k_inf_in, k1_in, v0_in, T=60_000, seed=16):
    """Pure-placement synthetic: delta n driven by the activity function.

    Each tick adds the response at v[t] times K unit exponentials per side to
    the book; one (T, 2, K) draw takes them in the order bid K, ask K, tick by tick.
    """
    rng = np.random.default_rng(seed)
    K = 5
    times = np.arange(T + 1, dtype=float)
    v = rng.normal(0.0, 3.0 * v0_in, T + 1)
    act = activity_params(k0_in, k_inf_in, k1_in, v0_in)
    sb, sa = trend_response(v[:T, None], *act.evaluate(0.0))
    draws = rng.exponential(1.0, (T, 2, K))
    bid = np.zeros((T + 1, K))
    ask = np.zeros((T + 1, K))
    np.cumsum(sb * draws[:, 0], axis=0, out=bid[1:])
    np.cumsum(sa * draws[:, 1], axis=0, out=ask[1:])
    return SeriesFrame(
        times=times, velocities=v, n0s=bid[:, 0] + ask[:, 0],
        x_bins=np.arange(K) * 0.01, bid=bid, ask=ask,
    )


@pytest.mark.parametrize("constants", [(0.0, 1.0, 0.0, 1e-4), (1.2, 2.0, 1.2, 2e-4)],
                         ids=["flat", "planted-v0"])
def test_activity_frame_is_its_per_tick_loop(constants):
    # The per-tick loop activity_frame replaces, as the reference: same
    # stream, same sums, so every number is the same bit for bit.
    T, K = 500, 5
    rng = np.random.default_rng(16)
    v = rng.normal(0.0, 3.0 * constants[3], T + 1)
    bid = np.zeros((T + 1, K))
    ask = np.zeros((T + 1, K))
    for t in range(T):
        sb, sa = trend_response(v[t], *activity_params(*constants).evaluate(0.0))
        bid[t + 1] = bid[t] + sb * rng.exponential(1.0, K)
        ask[t + 1] = ask[t] + sa * rng.exponential(1.0, K)
    frame = activity_frame(*constants, T=T)
    for got, want in ((frame.velocities, v), (frame.bid, bid), (frame.ask, ask)):
        assert got.tobytes() == want.tobytes()


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
        rep = fit_market_order_response(centers[ok], flows, np.ones(ok.sum()))
        assert rep.converged
        assert rep.parameters["v0"][0] == pytest.approx(v0_true, rel=0.10)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFitMarketOrderResponse:
    def test_noiseless_recovery_exact(self):
        p = MarketOrderParams(k0=3.0, k_inf=2.0, k1=1.5, v0=2e-4)
        v = np.linspace(-8e-4, 8e-4, 400)
        flows = np.array([market_order_rate(vi, p) for vi in v])
        rep = fit_market_order_response(v, flows, np.ones(len(v)))
        assert rep.converged
        for name, truth in [("k0", 3.0), ("k_inf", 2.0), ("k1", 1.5), ("v0", 2e-4)]:
            assert rep.parameters[name][0] == pytest.approx(truth, rel=1e-6)

    def test_noisy_recovery_within_5pct(self):
        rng = np.random.default_rng(17)
        p = MarketOrderParams(k0=3.0, k_inf=2.0, k1=1.5, v0=2e-4)
        v = rng.uniform(-8e-4, 8e-4, 5000)
        flows = np.array([market_order_rate(vi, p) for vi in v])
        flows *= 1.0 + 0.05 * rng.standard_normal(flows.shape)
        rep = fit_market_order_response(v, flows, np.ones(len(v)))
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

    def test_error_outside_a_bad_start_propagates(self, monkeypatch):
        def broken(*args):
            raise TypeError("broken model")

        monkeypatch.setattr(analyzers, "_trend", broken)
        v = np.linspace(-8e-4, 8e-4, 50)
        with pytest.raises(TypeError, match="broken model"):
            fit_market_order_response(v, np.ones((50, 2)), np.ones(50))

    def test_a_non_finite_start_is_skipped(self, monkeypatch):
        model_jac = analyzers._mo_model_jac
        calls = []

        def nan_at_first_call(theta, v):
            model, jac = model_jac(theta, v)
            calls.append(theta)
            return (np.full_like(model, np.nan) if len(calls) == 1 else model), jac

        monkeypatch.setattr(analyzers, "_mo_model_jac", nan_at_first_call)
        p = MarketOrderParams(k0=3.0, k_inf=2.0, k1=1.5, v0=2e-4)
        v = np.linspace(-8e-4, 8e-4, 400)
        flows = np.array([market_order_rate(vi, p) for vi in v])
        rep = fit_market_order_response(v, flows, np.ones(len(v)))
        trace = rep.diagnostics["residual_trace"]
        assert trace[0] == {"start": 0, "error": "residuals or Jacobian not finite at the start"}
        assert len(trace) == 8 and all(t["status"] > 0 for t in trace[1:])
        assert rep.converged
        for name, truth in [("k0", 3.0), ("k_inf", 2.0), ("k1", 1.5), ("v0", 2e-4)]:
            assert rep.parameters[name][0] == pytest.approx(truth, rel=1e-6)

    def test_jacobian_matches_central_differences(self):
        rng = np.random.default_rng(19)
        v = np.linspace(-8e-4, 8e-4, 101)
        for _ in range(5):
            # k0 > k_inf: each side clamps at large |v| on its own side of 0
            theta = np.array([rng.uniform(3.0, 4.0), rng.uniform(0.0, 1.0), rng.uniform(0.5, 2.0),
                              rng.uniform(1e-4, 3e-4)])
            model, jac = analyzers._mo_model_jac(theta, v)
            clamped = model == 0.0
            assert clamped[:101].any() and clamped[101:].any() and not clamped.all()
            assert not jac[clamped].any()
            for i in range(4):
                h = np.zeros(4)
                h[i] = 1e-6 * theta[i]
                diff = (analyzers._mo_model_jac(theta + h, v)[0]
                        - analyzers._mo_model_jac(theta - h, v)[0]) / (2.0 * h[i])
                # atol: the differences' rounding, eps |model| / h, is ~1e-10 of the column
                np.testing.assert_allclose(jac[:, i], diff, rtol=1e-6,
                                           atol=1e-8 * np.abs(diff).max())

    def test_standard_errors_match_the_spread_of_replicates(self):
        # KSTT-sized constants: the columns for v0 and the k's differ by ~1e7, where a
        # pseudo-inverse of the raw J^T J drops the weakest direction's variance
        rng = np.random.default_rng(20)
        truth = (1e4, 4.5e4, 4.3e4, 1.5e-3)
        fits = []
        for _ in range(100):
            v = rng.uniform(-6e-3, 6e-3, 500)
            flows = np.column_stack(trend_response(v, *truth)) + rng.standard_normal((500, 2))
            rep = fit_market_order_response(v, flows, np.ones(500))
            assert rep.converged
            fits.append([rep.parameters[name] for name in ("k0", "k_inf", "k1", "v0")])
        estimates, errors = np.moveaxis(np.array(fits), 2, 0)
        # the std of 100 replicates is within ~7 % of the true error at one sigma
        ratio = estimates.std(axis=0, ddof=1) / np.median(errors, axis=0)
        assert np.all((ratio > 0.75) & (ratio < 4.0 / 3.0)), ratio

    def test_deterministic(self):
        rng = np.random.default_rng(18)
        p = MarketOrderParams(k0=1.0, k_inf=0.5, k1=0.2, v0=1e-4)
        v = rng.uniform(-4e-4, 4e-4, 500)
        flows = np.array([market_order_rate(vi, p) for vi in v])
        flows *= 1.0 + 0.03 * rng.standard_normal(flows.shape)
        r1 = fit_market_order_response(v, flows, np.ones(len(v)))
        r2 = fit_market_order_response(v, flows, np.ones(len(v)))
        assert r1.parameters == r2.parameters
        assert not any("error" in t for t in r1.diagnostics["residual_trace"])


GOLDEN_FEEDS = (("cs", 4), ("kstt", 5), ("cf", 11))


@pytest.fixture(scope="module")
def golden_feeds(tmp_path_factory) -> dict:
    """{model: frame} of the 3,000-tick runs whose fits tests/test_golden.py pins."""
    root = tmp_path_factory.mktemp("feeds")
    frames = {}
    for model, seed in GOLDEN_FEEDS:
        assert main(["simulate", "--model", model, "--steps", "3000", "--seed", str(seed),
                     "--out", str(root / model)]) == 0
        with open(root / model / "records.jsonl") as fh:
            frames[model] = read_step_records_frame(fh)
    return frames


def _least_squares_best_cost(v: np.ndarray, flows: np.ndarray) -> float:
    """Best converged cost of scipy's trust-region fit from the fit's own 8 seeded starts."""
    from scipy import optimize

    y = np.concatenate([flows[:, 0], flows[:, 1]])
    v_scale = max(float(np.std(v)), 1e-12)
    f_scale = max(float(np.mean(np.abs(flows))), 1e-12)
    rng = np.random.default_rng(analyzers._FIT_SEED)
    lo = np.array([0.0, 0.0, 0.0, 1e-9 * v_scale])
    costs = []
    for _ in range(8):
        mult = np.exp(rng.uniform(-1.0, 1.0, 4))
        theta0 = np.array([f_scale / v_scale, f_scale / v_scale, f_scale / v_scale, v_scale]) * mult
        sol = optimize.least_squares(
            lambda theta: analyzers._mo_model_jac(theta, v)[0] - y, np.clip(theta0, lo + 1e-12, None),
            bounds=(lo, np.inf), method="trf", max_nfev=analyzers._FIT_MAX_NFEV)
        if sol.status > 0:
            costs.append(sol.cost)
    return min(costs)


@pytest.mark.parametrize("model", [m for m, _ in GOLDEN_FEEDS])
def test_fit_is_no_worse_than_least_squares(golden_feeds, model):
    frame = golden_feeds[model]
    rep = fit_market_order_response(frame.velocities, frame.mo_flows, frame.n0s)
    assert rep.converged
    oracle = _least_squares_best_cost(frame.velocities, frame.mo_flows)
    assert 0.5 * rep.residual_norm ** 2 <= oracle * (1.0 + 1e-9)
