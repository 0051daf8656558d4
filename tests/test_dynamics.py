import numpy as np
import pytest

from bookfield import configs, profiles
from bookfield.dynamics import (
    NOISE_CHUNK,
    compute_velocity,
    market_order_rate,
    order_imbalance,
    placement_scale,
    simulate,
    step,
)
from bookfield.field import (
    MarketOrderParams,
    ModelParams,
    PlacementActivityParams,
    new_field,
)
from bookfield.stable_noise import StableParams, sample_one_sided_stable


def make_params(
    sigma_in=0.0,
    sigma_out=0.0,
    diffusion=0.0,
    k0=0.0,
    k_inf=0.0,
    k1=0.0,
    v0=1e-4,
    activity=None,
    n0_floor=1e-6,
    alpha=0.5,
    scale=1.0,
    quantile=0.9,
    noise_time_scaling="linear",
):
    return ModelParams(
        stable=StableParams(alpha=alpha, scale=scale, truncation_quantile=quantile),
        sigma_in=profiles.constant(sigma_in),
        sigma_out=profiles.constant(sigma_out),
        diffusion=profiles.constant(diffusion),
        mo=MarketOrderParams(k0=k0, k_inf=k_inf, k1=k1, v0=v0),
        tau=1.0,
        n0_floor=n0_floor,
        activity=activity,
        noise_time_scaling=noise_time_scaling,
    )


def assert_simulate_matches_step_loop(alpha, steps):
    params = make_params(sigma_in=0.05, sigma_out=0.01, diffusion=1e-5, k0=0.5,
                         k_inf=0.2, k1=0.2, n0_floor=0.5, alpha=alpha)
    f1 = new_field(32, 0.01, lambda x: np.full_like(x, 4.0))
    res = simulate(params, f1, steps=steps, dt=1.0, seed=3)
    f2 = new_field(32, 0.01, lambda x: np.full_like(x, 4.0))
    f2.fractional_offset = 0.5 * f2.dx  # simulate() registers mid-cell
    rng = np.random.default_rng(3)
    v = 0.0
    vs = []
    for _ in range(steps):
        f2, rec = step(f2, v, params, 1.0, rng)
        v = rec.v
        vs.append(v)
    assert np.array_equal(f1.bid, f2.bid)
    assert np.array_equal(f1.ask, f2.ask)
    assert np.array_equal(res.velocities, vs)


MO = MarketOrderParams(k0=3.0, k_inf=2.0, k1=2.0, v0=0.5)


class TestMarketOrderRate:
    def test_zero_velocity_k1_equals_kinf(self):
        assert market_order_rate(0.0, MO) == (0.0, 0.0)

    def test_large_velocity_asymptotes(self):
        p = MarketOrderParams(k0=3.0, k_inf=2.0, k1=1.0, v0=0.5)
        buy, sell = market_order_rate(60.0 * p.v0, p)
        assert buy == pytest.approx((p.k0 + p.k_inf) * p.v0, rel=1e-9)
        assert sell == pytest.approx(0.0, abs=1e-12)  # k_inf - k0 < 0, clamped
        p2 = MarketOrderParams(k0=1.0, k_inf=2.0, k1=1.0, v0=0.5)
        buy2, sell2 = market_order_rate(60.0 * p2.v0, p2)
        assert sell2 == pytest.approx((p2.k_inf - p2.k0) * p2.v0, rel=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_no_overflow_at_large_velocity(self):
        p = MarketOrderParams(k0=3.0, k_inf=2.0, k1=1.0, v0=0.5)
        buy, sell = market_order_rate(1e3 * p.v0, p)
        assert buy == pytest.approx((p.k0 + p.k_inf) * p.v0, rel=1e-12)
        assert sell == 0.0
        buy, sell = market_order_rate(-1e3 * p.v0, p)
        assert buy == 0.0
        assert sell == pytest.approx((p.k0 + p.k_inf) * p.v0, rel=1e-12)

    def test_buy_sell_parity(self):
        p = MarketOrderParams(k0=3.0, k_inf=2.0, k1=1.5, v0=0.5)
        for v in np.linspace(-3, 3, 25):
            buy_p, sell_p = market_order_rate(v, p)
            buy_m, sell_m = market_order_rate(-v, p)
            assert buy_p == pytest.approx(sell_m, rel=1e-12, abs=1e-15)
            assert sell_p == pytest.approx(buy_m, rel=1e-12, abs=1e-15)


class TestOrderImbalance:
    def test_zero_at_zero(self):
        assert order_imbalance(0.0, MO) == 0.0

    def test_value_at_v0(self):
        assert order_imbalance(MO.v0, MO) == pytest.approx(
            2.0 * MO.k0 * MO.v0 * np.tanh(1.0), rel=1e-12
        )

    def test_small_velocity_slope(self):
        v = 1e-9 * MO.v0
        assert order_imbalance(v, MO) / v == pytest.approx(2.0 * MO.k0, rel=1e-6)

    def test_odd_and_bounded(self):
        for v in np.linspace(-5, 5, 41):
            j = order_imbalance(v, MO)
            assert j == pytest.approx(-order_imbalance(-v, MO), abs=1e-15)
            assert abs(j) <= 2.0 * MO.k0 * MO.v0 + 1e-15


def const_activity(k0_in=1.0, k_inf_in=2.0, k1_in=2.0, v0_in=0.5):
    return PlacementActivityParams(
        k0_in=profiles.constant(k0_in),
        k_inf_in=profiles.constant(k_inf_in),
        k1_in=profiles.constant(k1_in),
        v0_in=profiles.constant(v0_in),
    )


class TestPlacementScale:
    def test_zero_velocity_balanced_activity(self):
        act = const_activity(k0_in=1.0, k_inf_in=2.0, k1_in=2.0)
        assert placement_scale(0.1, 0.0, "bid", act) == 0.0
        assert placement_scale(0.1, 0.0, "ask", act) == 0.0

    def test_no_trend_term_sides_equal(self):
        act = const_activity(k0_in=0.0, k_inf_in=2.0, k1_in=1.0)
        for v in np.linspace(-2, 2, 11):
            assert placement_scale(0.2, v, "bid", act) == pytest.approx(
                placement_scale(0.2, v, "ask", act), rel=1e-14
            )

    def test_matches_market_order_shape(self):
        act = const_activity(k0_in=3.0, k_inf_in=2.0, k1_in=1.5, v0_in=0.5)
        p = MarketOrderParams(k0=3.0, k_inf=2.0, k1=1.5, v0=0.5)
        for v in np.linspace(-2, 2, 17):
            buy, sell = market_order_rate(v, p)
            assert placement_scale(0.3, v, "bid", act) == pytest.approx(buy, rel=1e-12)
            assert placement_scale(0.3, v, "ask", act) == pytest.approx(sell, rel=1e-12)

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError):
            placement_scale(0.1, 0.0, "mid", const_activity())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_overflow_at_large_velocity(self):
        act = const_activity(k0_in=1.0, k_inf_in=2.0, k1_in=2.0, v0_in=0.5)
        assert placement_scale(0.1, 500.0, "bid", act) == pytest.approx(1.5, rel=1e-12)
        assert placement_scale(0.1, 500.0, "ask", act) == pytest.approx(0.5, rel=1e-12)
        assert placement_scale(0.1, -500.0, "bid", act) == pytest.approx(0.5, rel=1e-12)


class TestComputeVelocity:
    def test_all_off_is_zero(self):
        params = make_params(k0=2.0, k_inf=1.0, k1=1.0)
        f = new_field(16, 0.01, lambda x: np.full_like(x, 3.0))
        assert compute_velocity(f, 0.0, params) == 0.0

    def test_definition_j_over_n0(self):
        params = make_params(k0=2.0, k_inf=1.0, k1=1.0)
        f = new_field(16, 0.01, lambda x: np.full_like(x, 3.0))
        v_prev = 0.3 * params.mo.v0
        j = order_imbalance(v_prev, params.mo)
        assert compute_velocity(f, v_prev, params) == pytest.approx(j / 6.0, rel=1e-12)

    def test_mirror_symmetric_books_cancel_gradients(self):
        params = make_params(k0=2.0, k_inf=1.0, k1=1.0, diffusion=4e-5)
        f = new_field(16, 0.01, lambda x: 1.0 + 10.0 * x)
        v_prev = 0.5 * params.mo.v0
        j = order_imbalance(v_prev, params.mo)
        n0 = f.bid[0] + f.ask[0]
        assert compute_velocity(f, v_prev, params) == pytest.approx(j / n0, rel=1e-12)

    def test_velocity_parity_under_book_mirror(self):
        params = make_params(k0=2.0, k_inf=1.5, k1=1.0, diffusion=4e-5)
        rng = np.random.default_rng(7)
        f = new_field(16, 0.01, lambda x: np.zeros_like(x))
        f.bid[:] = rng.uniform(1, 5, 16)
        f.ask[:] = rng.uniform(1, 5, 16)
        v = compute_velocity(f, 0.2 * params.mo.v0, params)
        g = f.copy()
        g.bid, g.ask = g.ask.copy(), g.bid.copy()
        v_m = compute_velocity(g, -0.2 * params.mo.v0, params)
        assert v_m == -v

    def test_floor_prevents_blowup(self):
        params = make_params(k0=2.0, k_inf=1.5, k1=1.0, n0_floor=0.5)
        f = new_field(16, 0.01, lambda x: np.zeros_like(x))
        v = compute_velocity(f, 10.0, params)
        assert abs(v) <= order_imbalance(10.0, params.mo) / 0.5 + 1e-12


class TestStep:
    def test_all_generators_off_leaves_field_unchanged(self):
        params = make_params()
        f = new_field(16, 0.01, lambda x: np.full_like(x, 2.0))
        rng = np.random.default_rng(0)
        f, rec = step(f, 0.0, params, 1.0, rng)
        assert rec.v == 0.0
        assert np.all(rec.delta_bid == 0.0)
        assert np.all(rec.delta_ask == 0.0)

    def test_diffusion_of_uniform_field_is_zero(self):
        params = make_params(diffusion=4e-5)
        f = new_field(16, 0.01, lambda x: np.full_like(x, 2.0))
        rng = np.random.default_rng(0)
        f, rec = step(f, 0.0, params, 1.0, rng)
        assert np.allclose(rec.delta_bid, 0.0, atol=1e-15)
        assert np.allclose(rec.delta_ask, 0.0, atol=1e-15)

    def test_placement_only_mean_matches_single_cell_oracle(self):
        # Independent oracle: the mean increment per tick is sigma_in * E[xi] * dt,
        # with E[xi] estimated from direct draws of the same law.
        sp = StableParams(alpha=0.5, scale=0.7, truncation_quantile=0.9)
        params = make_params(sigma_in=0.05, alpha=0.5, scale=0.7, quantile=0.9)
        n_steps, length = 400, 64
        f = new_field(length, 0.01, lambda x: np.zeros_like(x))
        res = simulate(params, f, steps=n_steps, dt=1.0, seed=101,
                       tracked_cells=np.arange(length))
        lattice_mean = float(np.mean(res.final_field.bid))  # average over cells
        oracle = sample_one_sided_stable(sp, 200_000, seed=999)
        mean_inc = 0.05 * float(np.mean(oracle))
        se = 0.05 * float(np.std(oracle)) / np.sqrt(len(oracle))
        expected = n_steps * mean_inc
        # lattice mean pools length cells x n_steps draws of the same law
        lattice_se = 0.05 * float(np.std(oracle)) * np.sqrt(n_steps) / np.sqrt(length)
        tol = 4.0 * np.hypot(n_steps * se, lattice_se)
        assert abs(lattice_mean - expected) < tol

    def test_nonnegativity_under_violent_noise(self):
        params = make_params(sigma_in=1.0, sigma_out=0.5, quantile=0.999, n0_floor=5.0)
        f = new_field(32, 0.01, lambda x: np.full_like(x, 1.0))
        rng = np.random.default_rng(3)
        v = 0.0
        for _ in range(200):
            f, rec = step(f, v, params, 1.0, rng)
            v = rec.v
            assert np.all(f.bid >= 0.0)
            assert np.all(f.ask >= 0.0)

    def test_noise_free_volume_conservation(self):
        params = make_params(diffusion=4e-5)
        f = new_field(64, 0.01, lambda x: x * np.exp(-x / 0.2))
        total0 = f.bid.sum()
        res = simulate(params, f, steps=20_000, dt=1.0, seed=1)
        assert res.final_field.bid.sum() == pytest.approx(total0, rel=1e-10)
        assert res.final_field.ask.sum() == pytest.approx(total0, rel=1e-10)

    def test_stability_bound_checked_before_mutation(self):
        params = make_params(diffusion=1.0)  # D dt/dx^2 = 1e4 >> 0.5
        f = new_field(16, 0.01, lambda x: np.full_like(x, 2.0))
        bid0 = f.bid.copy()
        with pytest.raises(ValueError, match="stability"):
            step(f, 0.0, params, 1.0, np.random.default_rng(0))
        assert np.array_equal(f.bid, bid0)

    def test_dt_above_tau_rejected(self):
        params = make_params()
        f = new_field(16, 0.01, lambda x: np.full_like(x, 2.0))
        with pytest.raises(ValueError, match="tau"):
            step(f, 0.0, params, 2.0, np.random.default_rng(0))

    def test_mo_volumes_recorded_and_clamped(self):
        params = make_params(k0=0.0, k_inf=3.0, k1=0.0, v0=0.5, n0_floor=1.0)
        f = new_field(16, 0.01, lambda x: np.full_like(x, 0.5))
        f, rec = step(f, 0.0, params, 1.0, np.random.default_rng(0))
        # requested (k_inf - k1 sech(0)) v0 = 1.5 per side, but only 0.5 available
        assert rec.mo_buy == pytest.approx(0.5)
        assert rec.mo_sell == pytest.approx(0.5)
        assert rec.n0 == pytest.approx(0.0)

    def test_sub_tick_noise_scaling_knob(self):
        lin = make_params(sigma_in=1.0, noise_time_scaling="linear")
        lev = make_params(sigma_in=1.0, noise_time_scaling="levy", alpha=0.5)
        dt = 0.25
        f1 = new_field(16, 0.01, lambda x: np.zeros_like(x))
        f2 = new_field(16, 0.01, lambda x: np.zeros_like(x))
        step(f1, 0.0, lin, dt, np.random.default_rng(5))
        step(f2, 0.0, lev, dt, np.random.default_rng(5))
        # same draws, different time scaling: levy uses dt^(1/alpha) = dt^2
        ratio = (dt / 1.0) ** (1.0 - 1.0 / 0.5)
        assert np.allclose(f1.bid, f2.bid * ratio, rtol=1e-12)

    def test_simulate_determinism(self):
        params = make_params(sigma_in=0.05, sigma_out=0.01, diffusion=1e-5, k0=0.5,
                             k_inf=0.2, k1=0.2, n0_floor=0.5)
        runs = []
        for _ in range(2):
            f = new_field(32, 0.01, lambda x: np.full_like(x, 4.0))
            runs.append(simulate(params, f, steps=500, dt=1.0, seed=77))
        assert np.array_equal(runs[0].velocities, runs[1].velocities)
        assert np.array_equal(runs[0].final_field.bid, runs[1].final_field.bid)

    def test_simulate_matches_step_loop(self):
        assert_simulate_matches_step_loop(alpha=0.5, steps=80)

    def test_simulate_matches_step_loop_general_alpha(self):
        # alpha = 0.7 runs the general Kanter transform rather than the
        # alpha = 1/2 closed form; the run ends mid-way through its fourth chunk.
        assert_simulate_matches_step_loop(alpha=0.7, steps=3 * NOISE_CHUNK + 17)

    def test_reference_run_matches_recorded_values(self):
        # Recorded from the Kanter-transform sampler before the alpha = 1/2
        # closed form replaced it; the two agree to rounding, and the
        # tolerance leaves room for platform differences in vectorized cos.
        params = configs.reference_model_params()
        f = configs.reference_grid().new_field(configs.reference_init_profile())
        res = simulate(params, f, steps=2000, dt=1.0, seed=11)
        assert float(np.std(res.velocities)) == pytest.approx(5.1415570199656515e-05, rel=1e-9)
        assert float(np.mean(res.n0s)) == pytest.approx(82.15845473969684, rel=1e-9)
        assert float(f.bid.sum()) == pytest.approx(3582.3053087463804, rel=1e-9)
