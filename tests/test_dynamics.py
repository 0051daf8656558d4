import concurrent.futures
import dataclasses
import functools
import threading
import time

import numpy as np
import pytest

from bookfield import configs, profiles, stable_noise
from bookfield.baselines import run_baseline
from bookfield.dynamics import (
    NOISE_CHUNK,
    _TickEngine,
    _velocity,
    market_order_rate,
    run_ticks,
    simulate,
    step,
    trend_response,
)
from bookfield.errors import NumericError
from bookfield.field import (
    MarketOrderParams,
    ModelParams,
    PlacementActivityParams,
    new_field,
)
from bookfield.stable_noise import StableParams, draw, sample_one_sided_stable

from _cf_runs import CF_ACTIVITY, CF_STATIC_ALPHA, cf_config, run_cf


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
    quantile=0.9,
):
    return ModelParams(
        stable=StableParams(alpha=alpha, truncation_quantile=quantile),
        sigma_in=profiles.constant(sigma_in),
        sigma_out=profiles.constant(sigma_out),
        diffusion=profiles.constant(diffusion),
        mo=MarketOrderParams(k0=k0, k_inf=k_inf, k1=k1, v0=v0),
        n0_floor=n0_floor,
        activity=activity,
    )


def assert_simulate_matches_step_loop(alpha, steps, activity=None):
    params = make_params(sigma_in=0.05, sigma_out=0.01, diffusion=1e-5, k0=0.5,
                         k_inf=0.2, k1=0.2, n0_floor=0.5, alpha=alpha, activity=activity)
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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", [configs.reference_model_params().mo,
                                   configs.kstt_reference().placement, MO],
                             ids=["cf-mo", "kstt-placement", "test-mo"])
    def test_float_path_is_trend_response_bit_for_bit(self, p):
        w = np.concatenate([[0.0, -0.0], np.geomspace(1e-12, 1e3, 61)])
        clamped = set()
        for v in [*(w * p.v0), *(-w * p.v0)]:
            got = market_order_rate(float(v), p)
            want = trend_response(float(v), p.k0, p.k_inf, p.k1, p.v0)
            assert [type(x) for x in got] == [float, float]
            assert got == (float(want[0]), float(want[1]))
            assert np.signbit(got).tolist() == np.signbit(want).tolist()
            clamped |= {side for side in (0, 1) if v != 0.0 and got[side] == 0.0}
        # where k0 > k_inf, the trend outweighs the constant and each side clamps somewhere
        assert clamped == ({0, 1} if p.k0 > p.k_inf else set())

    def test_buy_sell_parity(self):
        p = MarketOrderParams(k0=3.0, k_inf=2.0, k1=1.5, v0=0.5)
        for v in np.linspace(-3, 3, 25):
            buy_p, sell_p = market_order_rate(v, p)
            buy_m, sell_m = market_order_rate(-v, p)
            assert buy_p == pytest.approx(sell_m, rel=1e-12, abs=1e-15)
            assert sell_p == pytest.approx(buy_m, rel=1e-12, abs=1e-15)


def imbalance(v, mo=MO):
    """J(v) read off the velocity closure: no diffusion and n0 = 1, so v = J."""
    params = make_params(k0=mo.k0, k_inf=mo.k_inf, k1=mo.k1, v0=mo.v0)
    book = np.array([[0.5, 0.0, 0.0], [0.5, 0.0, 0.0]])
    return _velocity(book, 1.0, v, params, np.zeros(3), 0.01)


class TestOrderImbalance:
    def test_zero_at_zero(self):
        assert imbalance(0.0) == 0.0

    def test_value_at_v0(self):
        assert imbalance(MO.v0) == pytest.approx(
            2.0 * MO.k0 * MO.v0 * np.tanh(1.0), rel=1e-12
        )

    def test_small_velocity_slope(self):
        v = 1e-9 * MO.v0
        assert imbalance(v) / v == pytest.approx(2.0 * MO.k0, rel=1e-6)

    def test_odd_and_bounded(self):
        for v in np.linspace(-5, 5, 41):
            j = imbalance(v)
            assert j == pytest.approx(-imbalance(-v), abs=1e-15)
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
        assert trend_response(0.0, *act.evaluate(0.1)) == (0.0, 0.0)

    def test_no_trend_term_sides_equal(self):
        act = const_activity(k0_in=0.0, k_inf_in=2.0, k1_in=1.0)
        for v in np.linspace(-2, 2, 11):
            bid, ask = trend_response(v, *act.evaluate(0.2))
            assert bid == pytest.approx(ask, rel=1e-14)

    def test_matches_market_order_shape(self):
        act = const_activity(k0_in=3.0, k_inf_in=2.0, k1_in=1.5, v0_in=0.5)
        p = MarketOrderParams(k0=3.0, k_inf=2.0, k1=1.5, v0=0.5)
        for v in np.linspace(-2, 2, 17):
            buy, sell = market_order_rate(v, p)
            bid, ask = trend_response(v, *act.evaluate(0.3))
            assert bid == pytest.approx(buy, rel=1e-12)
            assert ask == pytest.approx(sell, rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_overflow_at_large_velocity(self):
        act = const_activity(k0_in=1.0, k_inf_in=2.0, k1_in=2.0, v0_in=0.5)
        bid, ask = trend_response(500.0, *act.evaluate(0.1))
        assert bid == pytest.approx(1.5, rel=1e-12)
        assert ask == pytest.approx(0.5, rel=1e-12)
        assert trend_response(-500.0, *act.evaluate(0.1))[0] == pytest.approx(0.5, rel=1e-12)


class TestComputeVelocity:
    """The closure ``_velocity`` on a field, with D at its first three cells."""

    def test_all_off_is_zero(self):
        params = make_params(k0=2.0, k_inf=1.0, k1=1.0)
        f = new_field(16, 0.01, lambda x: np.full_like(x, 3.0))
        assert _velocity(f.book, 6.0, 0.0, params, np.zeros(3), f.dx) == 0.0

    def test_definition_j_over_n0(self):
        params = make_params(k0=2.0, k_inf=1.0, k1=1.0)
        f = new_field(16, 0.01, lambda x: np.full_like(x, 3.0))
        v_prev = 0.3 * params.mo.v0
        j = 2.0 * params.mo.k0 * params.mo.v0 * np.tanh(0.3)
        v = _velocity(f.book, 6.0, v_prev, params, np.zeros(3), f.dx)
        assert v == pytest.approx(j / 6.0, rel=1e-12)

    def test_mirror_symmetric_books_cancel_gradients(self):
        params = make_params(k0=2.0, k_inf=1.0, k1=1.0, diffusion=4e-5)
        f = new_field(16, 0.01, lambda x: 1.0 + 10.0 * x)
        v_prev = 0.5 * params.mo.v0
        j = imbalance(v_prev, params.mo)
        n0 = f.bid[0] + f.ask[0]
        v = _velocity(f.book, n0, v_prev, params, np.full(3, 4e-5), f.dx)
        assert v == pytest.approx(j / n0, rel=1e-12)

    def test_velocity_parity_under_book_mirror(self):
        params = make_params(k0=2.0, k_inf=1.5, k1=1.0, diffusion=4e-5)
        rng = np.random.default_rng(7)
        bid, ask = rng.uniform(1, 5, (2, 16))
        d3 = np.full(3, 4e-5)
        n0 = bid[0] + ask[0]
        v = _velocity(np.stack([bid, ask]), n0, 0.2 * params.mo.v0, params, d3, 0.01)
        v_m = _velocity(np.stack([ask, bid]), n0, -0.2 * params.mo.v0, params, d3, 0.01)
        assert v_m == -v

    def test_floor_prevents_blowup(self):
        params = make_params(k0=2.0, k_inf=1.5, k1=1.0, n0_floor=0.5)
        f = new_field(16, 0.01, lambda x: np.zeros_like(x))
        v = _velocity(f.book, 0.0, 10.0, params, np.zeros(3), f.dx)
        assert v == imbalance(10.0, params.mo) / 0.5
        assert abs(v) <= 2.0 * params.mo.k0 * params.mo.v0 / 0.5

    def test_divides_by_the_given_n0_floored(self):
        # n0 is the caller's (clear_boundary's), not re-read from the book's cells 0
        params = make_params(k0=2.0, k_inf=1.5, k1=1.0, n0_floor=0.5)
        f = new_field(16, 0.01, lambda x: np.full_like(x, 3.0))
        j = imbalance(0.4, params.mo)
        assert _velocity(f.book, 4.0, 0.4, params, np.zeros(3), f.dx) == j / 4.0
        assert _velocity(f.book, 0.2, 0.4, params, np.zeros(3), f.dx) == j / 0.5


class TestStep:
    def test_all_generators_off_leaves_field_unchanged(self):
        params = make_params()
        f = new_field(16, 0.01, lambda x: np.full_like(x, 2.0))
        book0 = f.book.copy()
        f, rec = step(f, 0.0, params, 1.0, np.random.default_rng(0))
        assert rec.v == 0.0
        assert np.array_equal(f.book, book0)

    def test_diffusion_of_uniform_field_is_zero(self):
        params = make_params(diffusion=4e-5)
        f = new_field(16, 0.01, lambda x: np.full_like(x, 2.0))
        book0 = f.book.copy()
        f, rec = step(f, 0.0, params, 1.0, np.random.default_rng(0))
        assert np.allclose(f.book - book0, 0.0, atol=1e-15)

    def test_placement_only_mean_matches_single_cell_oracle(self):
        # Independent oracle: the mean increment per tick is sigma_in * E[xi] * dt,
        # with E[xi] estimated from direct draws of the same law.
        sp = StableParams(alpha=0.5, scale=1.0, truncation_quantile=0.9)
        params = make_params(sigma_in=0.035, alpha=0.5, quantile=0.9)
        n_steps, length = 400, 64
        f = new_field(length, 0.01, lambda x: np.zeros_like(x))
        simulate(params, f, steps=n_steps, dt=1.0, seed=101, tracked_cells=np.arange(length))
        lattice_mean = float(np.mean(f.bid))  # average over cells
        oracle = sample_one_sided_stable(sp, 200_000, seed=999)
        mean_inc = 0.035 * float(np.mean(oracle))
        se = 0.035 * float(np.std(oracle)) / np.sqrt(len(oracle))
        expected = n_steps * mean_inc
        # lattice mean pools length cells x n_steps draws of the same law
        lattice_se = 0.035 * float(np.std(oracle)) * np.sqrt(n_steps) / np.sqrt(length)
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
        simulate(params, f, steps=20_000, dt=1.0, seed=1)
        assert f.bid.sum() == pytest.approx(total0, rel=1e-10)
        assert f.ask.sum() == pytest.approx(total0, rel=1e-10)

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
        with pytest.raises(ValueError, match="exceeds one tick"):
            step(f, 0.0, params, 2.0, np.random.default_rng(0))

    def test_stable_scale_other_than_one_rejected(self):
        # sigma_in and sigma_out carry the noise scales, so a stable scale would be a second copy
        with pytest.raises(ValueError, match="stable.scale must be 1, got 0.8: sigma_in and sigma_out"):
            dataclasses.replace(make_params(), stable=StableParams(scale=0.8))

    @pytest.mark.parametrize("steps", [0, -1])
    def test_run_of_no_ticks_rejected_before_mutation(self, steps):
        params = make_params(sigma_in=0.05)
        f = new_field(16, 0.01, lambda x: np.full_like(x, 2.0))
        book0 = f.book.copy()
        engine = _TickEngine(params, f.length, f.dx, 1.0, np.random.default_rng(0), steps)
        with pytest.raises(ValueError, match="steps must be >= 1"):
            run_ticks(engine, f, steps, 1.0)
        engine.close()
        assert f.t == 0.0 and f.fractional_offset == 0.0
        assert np.array_equal(f.book, book0)

    @pytest.mark.parametrize("model", ["cf", "cs", "kstt"])
    def test_every_model_rejects_no_ticks(self, model):
        if model == "cf":
            f = configs.reference_grid().new_field(configs.reference_init_profile())
            run = functools.partial(simulate, configs.reference_model_params(), f, dt=1.0)
        else:
            f = getattr(configs, f"{model}_reference_field")()
            run = functools.partial(run_baseline, getattr(configs, f"{model}_reference")(), f)
        with pytest.raises(ValueError, match="steps must be >= 1, got 0"):
            run(steps=0, seed=1)
        assert f.fractional_offset == 0.0

    def test_mo_volumes_recorded_and_clamped(self):
        params = make_params(k0=0.0, k_inf=3.0, k1=0.0, v0=0.5, n0_floor=1.0)
        f = new_field(16, 0.01, lambda x: np.full_like(x, 0.5))
        f, rec = step(f, 0.0, params, 1.0, np.random.default_rng(0))
        # requested (k_inf - k1 sech(0)) v0 = 1.5 per side, but only 0.5 available
        assert rec.mo_buy == pytest.approx(0.5)
        assert rec.mo_sell == pytest.approx(0.5)
        assert rec.n0 == pytest.approx(0.0)

    def test_sub_tick_step_places_dt_times_a_tick(self):
        params = make_params(sigma_in=1.0)
        placed = {}
        for dt in (1.0, 0.25):
            f = new_field(16, 0.01, lambda x: np.zeros_like(x))
            step(f, 0.0, params, dt, np.random.default_rng(5))
            placed[dt] = f
        assert placed[1.0].bid.sum() > 0.0
        assert np.array_equal(placed[0.25].bid, 0.25 * placed[1.0].bid)
        assert np.array_equal(placed[0.25].ask, 0.25 * placed[1.0].ask)

    def test_simulate_determinism(self):
        params = make_params(sigma_in=0.05, sigma_out=0.01, diffusion=1e-5, k0=0.5,
                             k_inf=0.2, k1=0.2, n0_floor=0.5)
        runs, fields = [], []
        for _ in range(2):
            fields.append(new_field(32, 0.01, lambda x: np.full_like(x, 4.0)))
            runs.append(simulate(params, fields[-1], steps=500, dt=1.0, seed=77))
        assert np.array_equal(runs[0].velocities, runs[1].velocities)
        assert np.array_equal(fields[0].bid, fields[1].bid)

    def test_simulate_matches_step_loop(self):
        assert_simulate_matches_step_loop(alpha=0.5, steps=80)

    def test_simulate_matches_step_loop_general_alpha(self):
        # alpha = 0.7 runs the general Kanter transform rather than the
        # alpha = 1/2 closed form; the run ends mid-way through its fourth chunk.
        assert_simulate_matches_step_loop(alpha=0.7, steps=3 * NOISE_CHUNK + 17)

    def test_simulate_matches_step_loop_with_activity(self):
        # Velocity-coupled placement scales its noise on every tick, not once
        # per chunk; the run crosses two chunk boundaries.
        activity = const_activity(k0_in=0.4, k_inf_in=0.5, k1_in=0.3, v0_in=0.05)
        assert_simulate_matches_step_loop(alpha=0.5, steps=2 * NOISE_CHUNK + 5,
                                          activity=activity)

    @pytest.mark.parametrize("alpha", [0.5, 0.7])
    @pytest.mark.parametrize("steps", [NOISE_CHUNK // 2 - 1, NOISE_CHUNK // 2, NOISE_CHUNK // 2 + 1,
                                       NOISE_CHUNK - 1, NOISE_CHUNK, NOISE_CHUNK + 1,
                                       2 * NOISE_CHUNK - 1, 2 * NOISE_CHUNK,
                                       2 * NOISE_CHUNK + 1, 4 * NOISE_CHUNK + 1])
    def test_run_consumes_one_draw_per_tick(self, alpha, steps):
        # The chunked engine leaves the stream where `steps` draw(..., (4, L))
        # calls leave it: it never draws noise for ticks it does not run.  The
        # runs of part of a chunk fill one short buffer; the runs of 2 to 5
        # chunks end in either of the two buffers, after a full or a partial
        # last chunk.
        params = make_params(sigma_in=0.05, sigma_out=0.01, alpha=alpha)
        f = new_field(32, 0.01, lambda x: np.full_like(x, 4.0))
        run_rng = np.random.default_rng(9)
        engine = _TickEngine(params, f.length, f.dx, 1.0, run_rng, steps)
        run_ticks(engine, f, steps, 1.0)
        rng = np.random.default_rng(9)
        for _ in range(steps):
            draw(params.stable, (4, f.length), rng)
        assert run_rng.bit_generator.state == rng.bit_generator.state

    def test_reference_run_matches_recorded_values(self):
        # Recorded when the alpha = 1/2 noise became 1/(2 Z^2) from one standard
        # normal per variate; the tolerance leaves room for platform differences
        # in vectorized transcendentals.
        params = configs.reference_model_params()
        f = configs.reference_grid().new_field(configs.reference_init_profile())
        res = simulate(params, f, steps=2000, dt=1.0, seed=11)
        assert float(np.std(res.velocities)) == pytest.approx(4.539886516282304e-05, rel=1e-9)
        assert float(np.mean(res.n0s)) == pytest.approx(91.23833328272812, rel=1e-9)
        assert float(f.bid.sum()) == pytest.approx(4640.945202690273, rel=1e-9)


def gauged(cfg: dict, lam: float) -> dict:
    """cfg with every volume scaled by lam: sigma_in, init_profile, k0, k_inf, k1, n0_floor
    and the activity's k0_in, k_inf_in and k1_in.  sigma_out, D, v0, v0_in, dx and dt stay."""
    def times(spec):
        return {k: lam * v if k in ("value", "amplitude", "floor") else v for k, v in spec.items()}

    out = {**cfg, "sigma_in": times(cfg["sigma_in"]), "init_profile": times(cfg["init_profile"]),
           "mo": {**cfg["mo"], **{k: lam * cfg["mo"][k] for k in ("k0", "k_inf", "k1")}},
           "n0_floor": lam * cfg["n0_floor"]}
    if cfg["activity"]:
        out["activity"] = {**cfg["activity"],
                           **{k: times(cfg["activity"][k]) for k in ("k0_in", "k_inf_in", "k1_in")}}
    return out


GAUGE_CONFIGS = {"reference": cf_config(steps=3000), "static-alpha": CF_STATIC_ALPHA,
                 "activity": CF_ACTIVITY}
VOLUME_ARRAYS = ("n0s", "mo_buy", "mo_sell", "spill_bid", "spill_ask", "bid_tracks", "ask_tracks")


class TestVolumeGauge:
    """Every CF operation is linear in volume but the min, max and floor, which commute with
    a positive scale; so scaling every volume by lam leaves v as it is and scales the book.
    CS and KSTT draw Poisson counts and have no such symmetry."""

    @pytest.fixture(scope="class", params=sorted(GAUGE_CONFIGS))
    def name_and_run(self, request):
        return request.param, run_cf(GAUGE_CONFIGS[request.param])

    @pytest.mark.parametrize("lam", [2.0, 0.25, 1024.0])
    def test_power_of_two_scales_every_volume_exactly(self, name_and_run, lam):
        name, (res, field) = name_and_run
        got, got_field = run_cf(gauged(GAUGE_CONFIGS[name], lam))
        assert got.velocities.tobytes() == res.velocities.tobytes()
        assert np.array_equal(got.times, res.times)
        for array in VOLUME_ARRAYS:
            assert np.array_equal(getattr(got, array), lam * getattr(res, array)), array
        assert np.array_equal(got_field.book, lam * field.book)

    def test_other_scale_moves_velocity_by_rounding_only(self, name_and_run):
        name, (res, _) = name_and_run
        got, _ = run_cf(gauged(GAUGE_CONFIGS[name], 3.0))
        v = res.velocities
        assert np.max(np.abs(got.velocities - v)) <= 1e-13 * np.max(np.abs(v))


class TestBackgroundFill:
    """The next noise chunk is filled on one background thread while a chunk's ticks run."""

    def test_failed_run_joins_the_pending_fill(self, monkeypatch):
        # Seed 1 fails at tick 147, in chunk 147 // NOISE_CHUNK, while the next chunk is
        # filling; the slowed fill is still running when the tick fails.
        real = stable_noise._fill_unit
        fills = []

        def slow_fill(params, rng, out):
            thread = threading.current_thread()
            fills.append({"main": thread is threading.main_thread(), "thread": thread})
            if not fills[-1]["main"]:
                time.sleep(0.02)
            real(params, rng, out)
            fills[-1]["done"] = True
            return out

        monkeypatch.setattr(stable_noise, "_fill_unit", slow_fill)
        params = configs.reference_model_params()
        params = dataclasses.replace(
            params, stable=dataclasses.replace(params.stable, truncation_quantile=1.0))
        f = configs.reference_grid().new_field(configs.reference_init_profile())
        threads = threading.active_count()
        with pytest.raises(NumericError, match="tick 147 of 2000"):
            simulate(params, f, steps=2000, dt=1.0, seed=1)
        assert threading.active_count() == threads
        assert [x["main"] for x in fills] == [True] + [False] * (147 // NOISE_CHUNK + 1)
        assert all(x.get("done") for x in fills)
        # One worker serves the run.  Compare the Thread objects, not get_ident(): the OS
        # reuses the ident of a finished thread.
        assert all(x["thread"] is fills[1]["thread"] for x in fills[1:])

    def test_fill_error_surfaces_from_simulate(self, monkeypatch):
        class FillFailed(Exception):
            pass

        real = stable_noise._fill_unit
        calls = []

        def failing_fill(params, rng, out):
            calls.append(len(out))
            if len(calls) == 2:
                raise FillFailed("chunk 2")
            return real(params, rng, out)

        monkeypatch.setattr(stable_noise, "_fill_unit", failing_fill)
        params = make_params(sigma_in=0.05, sigma_out=0.01)
        f = new_field(32, 0.01, lambda x: np.full_like(x, 4.0))
        threads = threading.active_count()
        with pytest.raises(FillFailed, match="chunk 2"):
            simulate(params, f, steps=3 * NOISE_CHUNK, dt=1.0, seed=3)
        assert calls == [NOISE_CHUNK, NOISE_CHUNK]
        assert threading.active_count() == threads
        # the first chunk's ticks ran; the failure came before any tick of the second
        assert f.t == NOISE_CHUNK

    @pytest.mark.parametrize("run", ["step", "one-chunk simulate"])
    def test_short_runs_start_no_thread(self, monkeypatch, run):
        def no_thread(*args, **kwargs):
            raise AssertionError("a run of at most one chunk started a thread or built an executor")

        monkeypatch.setattr(threading, "Thread", no_thread)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_thread)
        params = make_params(sigma_in=0.05, sigma_out=0.01)
        f = new_field(32, 0.01, lambda x: np.full_like(x, 4.0))
        if run == "step":
            step(f, 0.0, params, 1.0, np.random.default_rng(4))
        else:
            simulate(params, f, steps=NOISE_CHUNK, dt=1.0, seed=4)
        assert f.t == (1.0 if run == "step" else NOISE_CHUNK)
