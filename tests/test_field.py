import dataclasses

import numpy as np
import pytest

from bookfield import configs, profiles
from bookfield.baselines import run_baseline
from bookfield.dynamics import step
from bookfield.field import (
    MarketOrderParams,
    OrderBookField,
    PlacementActivityParams,
    new_field,
    shift_boundary,
)
from bookfield.fokker_planck import FPParams


def test_new_field_zero_profile():
    f = new_field(8, 0.001, lambda x: np.zeros_like(x))
    assert np.all(f.bid == 0.0)
    assert np.all(f.ask == 0.0)
    assert f.t == 0.0
    assert f.fractional_offset == 0.0


def test_new_field_constant_profile_total():
    f = new_field(8, 0.001, lambda x: np.full_like(x, 5.0))
    assert np.all(f.bid == 5.0)
    assert f.bid.sum() == pytest.approx(40.0)
    assert f.ask.sum() == pytest.approx(40.0)


def test_new_field_matches_profile_at_cell_centers():
    prof = lambda x: x * np.exp(-x)
    f = new_field(1024, 0.0005, prof)
    x = np.arange(1024) * 0.0005
    assert np.allclose(f.bid, prof(x), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("length,dx", [(3, 0.1), (8, 0.0), (8, -1.0)])
def test_new_field_invalid_args(length, dx):
    with pytest.raises(ValueError):
        new_field(length, dx, lambda x: np.zeros_like(x))


def test_new_field_negative_profile_rejected():
    for value in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            new_field(8, 0.1, lambda x: np.full_like(x, value))


def _random_field(seed=0, length=64, dx=0.001):
    rng = np.random.default_rng(seed)
    f = new_field(length, dx, lambda x: np.zeros_like(x))
    f.bid[:] = rng.uniform(0.0, 10.0, length)
    f.ask[:] = rng.uniform(0.0, 10.0, length)
    return f


def test_shift_zero_is_identity():
    f = _random_field()
    bid0, ask0 = f.bid.copy(), f.ask.copy()
    spill = shift_boundary(f, 0.0)
    assert spill.bid == 0.0 and spill.ask == 0.0
    assert np.array_equal(f.bid, bid0)
    assert np.array_equal(f.ask, ask0)


def test_price_rise_moves_ask_toward_boundary():
    f = _random_field(seed=5)
    bid0, ask0 = f.bid.copy(), f.ask.copy()
    spill = shift_boundary(f, f.dx)
    # ask advanced one cell toward x=0; its old boundary cell spilled
    assert spill.ask == pytest.approx(float(ask0[0]))
    assert spill.bid == 0.0
    assert np.array_equal(f.ask[:-1], ask0[1:])
    assert f.ask[-1] == 0.0
    # bid moved away: new empty cell at the boundary, far end piles up
    assert f.bid[0] == 0.0
    assert np.array_equal(f.bid[1:-1], bid0[:-2])
    assert f.bid[-1] == pytest.approx(float(bid0[-2] + bid0[-1]))


def test_uniform_field_interior_unchanged_spill_one_cell():
    f = new_field(16, 0.01, lambda x: np.full_like(x, 2.0))
    spill = shift_boundary(f, 0.01)
    assert spill.ask == pytest.approx(2.0)
    assert np.all(f.ask[:-1] == 2.0)
    assert np.all(f.bid[1:-1] == 2.0)


def test_two_half_shifts_equal_one_full_shift():
    f1 = _random_field(seed=11)
    f2 = dataclasses.replace(f1)
    sa = shift_boundary(f1, f1.dx / 2)
    sb = shift_boundary(f1, f1.dx / 2)
    sc = shift_boundary(f2, f2.dx)
    assert np.allclose(f1.bid, f2.bid, rtol=1e-12, atol=0.0)
    assert np.allclose(f1.ask, f2.ask, rtol=1e-12, atol=0.0)
    assert sa.ask + sb.ask == pytest.approx(sc.ask, rel=1e-12)
    assert f1.fractional_offset == pytest.approx(f2.fractional_offset, abs=1e-15)


def test_shift_conserves_volume_minus_spill():
    f = _random_field(seed=21)
    tb, ta = f.bid.sum(), f.ask.sum()
    spill = shift_boundary(f, 3.4 * f.dx)
    assert f.bid.sum() == pytest.approx(tb - spill.bid, rel=1e-10)
    assert f.ask.sum() == pytest.approx(ta - spill.ask, rel=1e-10)
    spill2 = shift_boundary(f, -5.7 * f.dx)
    assert f.bid.sum() == pytest.approx(tb - spill.bid - spill2.bid, rel=1e-10)


def test_shift_and_unshift_restores_interior():
    f = _random_field(seed=33)
    bid0, ask0 = f.bid.copy(), f.ask.copy()
    k = 3
    shift_boundary(f, k * f.dx)
    shift_boundary(f, -k * f.dx)
    # cells that never touched either edge are restored exactly; the last 2k
    # cells interacted with the far-wall pile-up
    assert np.array_equal(f.bid[k : -2 * k], bid0[k : -2 * k])
    assert np.array_equal(f.ask[k : -2 * k], ask0[k : -2 * k])


def test_shift_beyond_half_grid_rejected():
    f = _random_field()
    with pytest.raises(ValueError):
        shift_boundary(f, f.extent / 2.0)
    with pytest.raises(ValueError):
        shift_boundary(f, -f.extent / 2.0)


def test_fractional_offset_accumulates():
    f = _random_field(seed=44)
    bid0 = f.bid.copy()
    shift_boundary(f, 0.4 * f.dx)
    assert np.array_equal(f.bid, bid0)  # sub-cell: no lattice motion yet
    assert f.fractional_offset == pytest.approx(0.4 * f.dx)
    shift_boundary(f, 0.7 * f.dx)
    assert f.fractional_offset == pytest.approx(0.1 * f.dx)
    assert f.bid[0] == 0.0  # one-cell shift happened


def test_negative_fraction_shifts_immediately():
    f = _random_field(seed=45)
    ask0 = f.ask.copy()
    shift_boundary(f, -0.3 * f.dx)
    # price fell: bid side advanced; offset wraps to [0, dx)
    assert f.fractional_offset == pytest.approx(0.7 * f.dx)
    assert np.array_equal(f.ask[1:-1], ask0[:-2])


def test_offset_rounding_onto_a_cell_edge_stays_in_range():
    # total / dx rounds onto -3 exactly, and total - k dx comes out at -3.5e-18
    f = new_field(16, 0.01, lambda x: np.full_like(x, 2.0))
    f.fractional_offset = 0.0028683322407611457
    spill = shift_boundary(f, -0.03286833224076115)
    assert f.fractional_offset == 0.0
    assert spill.bid == 6.0  # three bid cells crossed x = 0
    dataclasses.replace(f)  # the offset passes the field's own check


def test_shift_past_half_the_grid_leaves_the_field_unchanged():
    # |d| is under half the extent, but with the offset it crosses 8 of 16 cells
    f = _random_field(seed=46, length=16, dx=0.01)
    f.fractional_offset = 0.009
    book0 = f.book.copy()
    with pytest.raises(ValueError, match="half the grid"):
        shift_boundary(f, 0.0799)
    assert f.fractional_offset == 0.009
    assert np.array_equal(f.book, book0)


def test_nonnegativity_preserved():
    f = _random_field(seed=50)
    for d in (0.7 * f.dx, -2.3 * f.dx, 5.1 * f.dx):
        shift_boundary(f, d)
        assert np.all(f.bid >= 0.0)
        assert np.all(f.ask >= 0.0)


def test_market_order_params_validation():
    with pytest.raises(ValueError):
        MarketOrderParams(k0=1.0, k_inf=1.0, k1=2.0, v0=1.0)  # k_inf < k1
    with pytest.raises(ValueError):
        MarketOrderParams(k0=1.0, k_inf=1.0, k1=0.5, v0=0.0)  # v0 = 0
    with pytest.raises(ValueError):
        MarketOrderParams(k0=-1.0, k_inf=1.0, k1=0.5, v0=1.0)


def _nan_v0_activity_on_grid():
    activity = PlacementActivityParams(*(profiles.constant(c) for c in (0.4, 0.5, 0.3, np.nan)))
    activity.evaluate(np.arange(16) * 0.01)


@pytest.mark.parametrize("build, condition", [
    (lambda: MarketOrderParams(k0=np.nan, k_inf=1.0, k1=0.5, v0=1.0), "k0 >= 0"),
    (lambda: FPParams(k0=np.nan, k_inf=0.3, k1=0.25, v0=1.0, n0=1.0), "k0 >= 0"),
    (_nan_v0_activity_on_grid, "v0 > 0"),
], ids=["market-order", "fokker-planck", "activity-profile"])
def test_nan_trend_constants_rejected(build, condition):
    # One check serves all three; it names the failed condition and prints no values.
    with pytest.raises(ValueError, match=condition) as info:
        build()
    assert "nan" not in str(info.value)


def test_field_validation():
    with pytest.raises(ValueError, match="equal length"):
        OrderBookField(bid=np.zeros(8), ask=np.zeros(7), dx=0.1)
    with pytest.raises(ValueError, match="equal length"):
        OrderBookField(bid=np.zeros(8), ask=np.zeros((2, 4)), dx=0.1)
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            OrderBookField(bid=np.ones(8), ask=np.full(8, bad), dx=0.1)


def _views_book(f):
    return (f.book.shape == (2, f.length) and np.shares_memory(f.bid, f.book)
            and np.shares_memory(f.ask, f.book))


def test_bid_and_ask_stay_views_of_the_book():
    f = configs.GridSpec(length=16, dx=2e-4).new_field(configs.reference_init_profile())
    assert _views_book(f)
    g = dataclasses.replace(f)
    assert _views_book(g) and not np.shares_memory(g.book, f.book)
    shift_boundary(f, 2.5e-4)
    assert _views_book(f) and f.ask[-1] == 0.0  # shifted one cell through the views
    f, _ = step(f, 0.0, configs.reference_model_params(), 1.0, np.random.default_rng(0))
    assert _views_book(f)
    f = configs.cs_reference_field()
    run_baseline(configs.cs_reference(), f, steps=1, seed=1)
    assert _views_book(f)


def test_field_copies_its_input():
    bid, ask = np.ones(8), np.full(8, 2.0)
    f = OrderBookField(bid=bid, ask=ask, dx=0.1)
    bid[:] = 7.0
    ask[:] = 7.0
    assert np.all(f.bid == 1.0) and np.all(f.ask == 2.0)
