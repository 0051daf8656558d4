import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from _oracles import per_side_point_process
from bookfield import configs, dynamics, profiles
from bookfield.analyzers import rms_delta_vs_velocity, velocity_volume_correlation
from bookfield.baselines import CSParams, KSTTParams, run_baseline
from bookfield.errors import NumericError
from bookfield.field import MarketOrderParams, new_field


def run_cs(steps=80_000, seed=4):
    f = configs.cs_reference_field()
    return run_baseline(configs.cs_reference(), f, steps=steps,
                        seed=seed, tracked_cells=np.arange(f.length))


def run_kstt(steps=80_000, seed=5):
    f = configs.kstt_reference_field()
    return run_baseline(configs.kstt_reference(), f, steps=steps,
                        seed=seed, tracked_cells=np.arange(f.length))


def test_unknown_tag_rejected():
    with pytest.raises(ValueError):
        run_baseline("gauss", configs.cs_reference_field(), 10, 0)


def test_cs_all_rates_zero_is_frozen():
    params = CSParams(placement_rate=profiles.constant(0.0), cancel_prob=0.0,
                      mo_volume=0.0, n0_floor=1.0)
    f = new_field(16, 1.0, profiles.constant(5.0))
    res = run_baseline(params, f, steps=200, seed=1,
                       tracked_cells=np.arange(16))
    assert np.all(res.velocities == 0.0)
    assert np.all(res.bid_tracks == 5.0)
    assert np.all(res.ask_tracks == 5.0)


def test_cs_returns_are_gaussian():
    res = run_cs()
    v = res.velocities[5000:]
    assert abs(stats.kurtosis(v)) < 0.5


def test_cs_velocity_innovation_variance_independent_of_v():
    res = run_cs()
    v = res.velocities[5000:]
    vp, vn = v[:-1], v[1:]
    A = np.column_stack([np.abs(vp), np.ones_like(vp)])
    coef, *_ = np.linalg.lstsq(A, vn**2, rcond=None)
    rel_slope = coef[0] * np.abs(vp).mean() / np.mean(vn**2)
    assert abs(rel_slope) < 0.05


def test_kstt_velocity_volume_correlation_does_not_decay():
    res = run_kstt()
    frame = res.to_frame()
    cor = velocity_volume_correlation(frame, 1.0)
    far = int(0.8 * len(frame.x_bins))
    assert abs(cor["bid"].values[far]) > 0.05
    assert abs(cor["ask"].values[far]) > 0.05
    # opposite signs on the two sides
    assert cor["bid"].values[far] * cor["ask"].values[far] < 0.0


def _rms_ratio_at_v0(frame, v0):
    edges = np.array([-1.2 * v0, -0.8 * v0, -0.2 * v0, 0.2 * v0, 0.8 * v0, 1.2 * v0])
    out = rms_delta_vs_velocity(frame, edges)
    ratios = []
    for side in ("bid", "ask"):
        r = out[side].values
        ratios += [r[0] / r[2], r[4] / r[2]]
    return ratios


def test_rms_delta_flat_in_velocity_for_both_baselines():
    v0 = configs.kstt_reference().mo.v0
    for res in (run_cs(), run_kstt()):
        frame = res.to_frame()
        for ratio in _rms_ratio_at_v0(frame, v0):
            assert 0.8 <= ratio <= 1.25


def test_baseline_determinism():
    a = run_cs(steps=2000, seed=9)
    b = run_cs(steps=2000, seed=9)
    assert np.array_equal(a.velocities, b.velocities)
    assert np.array_equal(a.bid_tracks, b.bid_tracks)
    c = run_kstt(steps=2000, seed=9)
    d = run_kstt(steps=2000, seed=9)
    assert np.array_equal(c.velocities, d.velocities)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kstt_no_overflow_at_large_velocity():
    # A thin book and a small v0 drive |v|/v0 to ~1e3, past where cosh overflows.
    v0 = 1e-4
    c = profiles.constant
    params = KSTTParams(
        placement=MarketOrderParams(k0=1e4, k_inf=1e4, k1=5e3, v0=v0),
        cancel_prob=0.1,
        mo=MarketOrderParams(k0=1e4, k_inf=1e4, k1=5e3, v0=v0),
        n0_floor=10.0,
    )
    res = run_baseline(params, new_field(16, 1.0, c(3.0)), steps=200, seed=2)
    assert np.max(np.abs(res.velocities)) / v0 >= 1e3
    assert np.all(np.isfinite(res.velocities))


def test_grid_overflow_is_numeric_error_naming_the_tick():
    # An empty bid boundary and a nearly zero n0 floor: the first market order
    # moves the price by far more than half the grid.
    params = CSParams(placement_rate=profiles.constant(0.0), cancel_prob=0.0,
                      mo_volume=5.0, n0_floor=1e-6)
    f = new_field(16, 1.0, profiles.constant(3.0))
    f.bid[0] = 0.0
    with pytest.raises(NumericError, match=r"^tick 0 of 10: .*exceeds half the grid"):
        run_baseline(params, f, steps=10, seed=1)


@pytest.mark.parametrize("k_inf, k1, v0, condition", [
    (1e5, 2e5, 2e-4, "k_inf >= k1"),
    (5e5, 0.0, math.nan, "v0 > 0"),
])
def test_kstt_activity_validated_before_the_run(k_inf, k1, v0, condition):
    # KSTT's placement constants are a MarketOrderParams, checked when it is built,
    # so no run can start on them.
    with pytest.raises(ValueError, match=condition):
        MarketOrderParams(k0=configs.kstt_reference().placement.k0, k_inf=k_inf, k1=k1, v0=v0)


THIN_BOOKS = {  # thin books whose price crosses cells, so shifts and spills are exercised
    "cs": CSParams(placement_rate=profiles.exp_decay(3.0, 4.0), cancel_prob=0.05,
                   mo_volume=3.0, n0_floor=20.0),
    "kstt": KSTTParams(
        placement=MarketOrderParams(k0=10.0, k_inf=30.0, k1=5.0, v0=0.1),
        cancel_prob=0.05, mo=MarketOrderParams(k0=10.0, k_inf=30.0, k1=5.0, v0=0.1), n0_floor=20.0),
}


@pytest.mark.parametrize("model", ["cs", "kstt"])
def test_stacked_book_keeps_the_per_side_stream(model, monkeypatch):
    # One RNG call over (bid; ask) draws in C order, so it must consume the
    # stream exactly as a bid call followed by an ask call: same run, same
    # final book, same generator state.
    params = THIN_BOOKS[model]
    f = new_field(13, 1.0, profiles.constant(40.0))
    start = dataclasses.replace(f)
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: made.append(default_rng(seed)) or made[-1])
    res = run_baseline(params, f, steps=3000, seed=60613, tracked_cells=np.arange(13))
    oracle_rng = default_rng(60613)
    scalars, bids, asks, bid, ask, offset = per_side_point_process(
        params, start.bid, start.ask, 1.0, 3000, oracle_rng)
    got = np.column_stack([res.velocities, res.n0s, res.mo_buy, res.mo_sell,
                           res.spill_bid, res.spill_ask])
    assert np.array_equal(got, scalars)
    assert np.array_equal(res.bid_tracks, bids) and np.array_equal(res.ask_tracks, asks)
    assert np.array_equal(f.bid, bid) and np.array_equal(f.ask, ask)
    assert f.fractional_offset == offset
    assert np.count_nonzero(scalars[:, 4]) > 10 and np.count_nonzero(scalars[:, 5]) > 10
    assert made[0].bit_generator.state == oracle_rng.bit_generator.state


def test_shift_boundary_looked_up_on_its_module_every_tick(monkeypatch):
    # perfbench's tracer times shift_boundary by wrapping the name on dynamics,
    # whose frame step every model shares; a local binding would hide every call from it.
    calls = []
    real = dynamics.shift_boundary
    monkeypatch.setattr(dynamics, "shift_boundary", lambda *args: calls.append(1) or real(*args))
    cf_field = configs.GridSpec(length=32, dx=2e-4).new_field(configs.reference_init_profile())
    runs = [lambda: dynamics.simulate(configs.reference_model_params(), cf_field, 40, 1.0, 3),
            lambda: run_baseline(configs.cs_reference(), configs.cs_reference_field(), 40, 3),
            lambda: run_baseline(configs.kstt_reference(), configs.kstt_reference_field(), 40, 3)]
    for run in runs:
        calls.clear()
        run()
        assert len(calls) == 40
