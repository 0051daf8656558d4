import warnings

import numpy as np
import pytest
from scipy import special, stats

from bookfield.stable_noise import (
    StableParams,
    _ln_kanter_a,
    draw,
    sample_one_sided_stable,
    unit_quantile,
    unit_survival,
)

# The unit sampler has Laplace transform exp(-s^alpha); at alpha = 1/2 that is
# the Levy law with c = 1/2, whose CDF is erfc(sqrt(c / (2 v))).
LEVY_C = 0.5


def levy_cdf(x):
    return special.erfc(np.sqrt(LEVY_C / (2.0 * np.asarray(x))))


def test_cdf_matches_analytic_levy_at_alpha_half():
    p = StableParams(alpha=0.5, scale=1.0, truncation_quantile=1.0)
    x = sample_one_sided_stable(p, 10**6, seed=123)
    xs = np.sort(x)
    emp = np.arange(1, len(xs) + 1) / len(xs)
    sup = np.max(np.abs(emp - levy_cdf(xs)))
    assert sup < 0.005


def test_zero_scale_gives_zeros():
    p = StableParams(alpha=0.7, scale=0.0)
    x = sample_one_sided_stable(p, 100, seed=9)
    assert x.shape == (100,)
    assert np.all(x == 0.0)


def test_hill_tail_index_matches_alpha():
    p = StableParams(alpha=0.6, scale=1.0, truncation_quantile=1.0)
    x = np.sort(sample_one_sided_stable(p, 10**6, seed=77))
    k = int(0.01 * len(x))
    hill = 1.0 / np.mean(np.log(x[-k:] / x[-k - 1]))
    assert 0.55 <= hill <= 0.65


def test_count_zero_returns_empty():
    x = sample_one_sided_stable(StableParams(), 0, seed=1)
    assert x.shape == (0,)


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        sample_one_sided_stable(StableParams(), -1, seed=1)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_samples_nonnegative_and_deterministic(alpha):
    p = StableParams(alpha=alpha, scale=2.0)
    a = sample_one_sided_stable(p, 5000, seed=42)
    b = sample_one_sided_stable(p, 5000, seed=42)
    assert np.all(a >= 0.0)
    assert np.array_equal(a, b)


def test_scaling_is_exact_multiplication():
    unit = sample_one_sided_stable(StableParams(alpha=0.6, scale=1.0), 2000, seed=5)
    scaled = sample_one_sided_stable(StableParams(alpha=0.6, scale=3.5), 2000, seed=5)
    assert np.array_equal(scaled, 3.5 * unit)


def test_median_matches_levy_within_one_percent():
    p = StableParams(alpha=0.5, scale=1.0, truncation_quantile=1.0)
    x = sample_one_sided_stable(p, 10**6, seed=2024)
    med_exact = LEVY_C / (2.0 * special.erfcinv(0.5) ** 2)
    assert abs(np.median(x) - med_exact) / med_exact < 0.01


@pytest.mark.parametrize(
    "kwargs",
    [
        {"alpha": 0.0},
        {"alpha": 1.0},
        {"alpha": 1.3},
        {"scale": -1.0},
        {"truncation_quantile": 0.0},
        {"truncation_quantile": 1.5},
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        StableParams(**kwargs)


def test_truncation_caps_at_quantile():
    q = 0.99
    p = StableParams(alpha=0.5, scale=2.0, truncation_quantile=q)
    x = sample_one_sided_stable(p, 200_000, seed=31)
    # exact Levy quantile: cap = c / (2 erfcinv(q)^2)
    cap_exact = LEVY_C / (2.0 * special.erfcinv(q) ** 2)
    assert np.max(x) <= 2.0 * cap_exact * (1.0 + 1e-12)
    assert abs(p.unit_cap - cap_exact) / cap_exact < 1e-9
    frac_at_cap = np.mean(x >= 2.0 * cap_exact * (1.0 - 1e-9))
    assert abs(frac_at_cap - (1.0 - q)) < 3e-3


def test_unit_survival_against_exact_and_scipy():
    for x in (0.3, 1.0, 5.0, 40.0):
        exact = special.erfc(np.sqrt(LEVY_C / (2 * x)))
        assert unit_survival(0.5, x) == pytest.approx(1.0 - exact, abs=1e-12)
    # general alpha: scipy levy_stable in S1 with scale cos(pi a/2)^(1/a)
    alpha = 0.7
    s1 = np.cos(np.pi * alpha / 2.0) ** (1.0 / alpha)
    for x in (0.5, 1.5, 6.0):
        ref = float(stats.levy_stable.sf(x, alpha, 1.0, loc=0.0, scale=s1))
        assert unit_survival(alpha, x) == pytest.approx(ref, rel=2e-4, abs=1e-7)


def test_unit_quantile_inverts_survival():
    # at alpha = 0.5 this checks the survival series against the closed-form quantile
    for alpha in (0.45, 0.5, 0.6, 0.85):
        for q in (0.9, 0.999, 1.0 - 1e-6):
            x = unit_quantile(alpha, q)
            assert unit_survival(alpha, x) == pytest.approx(1.0 - q, rel=1e-6, abs=1e-15)


def test_unit_quantile_matches_closed_form_at_alpha_half():
    # The alpha = 1/2 law has cdf erfc(1 / (2 sqrt(x))), so its q-quantile is
    # 1 / (4 erfcinv(q)^2).  unit_quantile evaluates it as 1 / (2 z^2) with
    # z = NormalDist().inv_cdf(q / 2); the measured differences from scipy's
    # erfcinv form are <= 6.7e-16 relative, so 1e-14 allows a few ulps of
    # platform rounding and catches a wrong identity or a series inversion.
    for q in (0.5, 0.99, 1.0 - 1e-6):
        exact = 1.0 / (4.0 * special.erfcinv(q) ** 2)
        assert unit_quantile(0.5, q) == pytest.approx(exact, rel=1e-14)


def test_draw_consumes_stream_reproducibly():
    p = StableParams(alpha=0.5, scale=1.0)
    r1 = np.random.default_rng(8)
    r2 = np.random.default_rng(8)
    a = draw(p, (3, 7), r1)
    b = draw(p, (3, 7), r2)
    assert a.shape == (3, 7)
    assert np.array_equal(a, b)


def test_draw_at_alpha_half_consumes_one_normal_per_variate():
    shape = (4, 33)
    p = StableParams(alpha=0.5, scale=1.0, truncation_quantile=0.99)
    r1 = np.random.default_rng(21)
    r2 = np.random.default_rng(21)
    x = draw(p, shape, r1)
    z = r2.standard_normal(shape)
    assert r1.bit_generator.state == r2.bit_generator.state
    assert np.array_equal(x, np.minimum(0.5 / (z * z), p.unit_cap))


def test_draw_at_alpha_0_7_consumes_one_uniform_and_one_exponential():
    shape = (4, 33)
    r1 = np.random.default_rng(21)
    r2 = np.random.default_rng(21)
    draw(StableParams(alpha=0.7, scale=1.0, truncation_quantile=0.99), shape, r1)
    r2.uniform(0.0, np.pi, shape)
    r2.standard_exponential(shape)
    assert r1.bit_generator.state == r2.bit_generator.state


def test_alpha_half_law_matches_general_kanter_form():
    # Two-sample KS of draw() against X = exp(((1 - a) / a) (ln A(U) - ln W)), the
    # general Kanter form, at a = 1/2 on an independent stream.  With 2e5 variates a
    # side, D < 0.007 is the 1e-4 critical value (c = sqrt(ln(2 / 1e-4) / 2) = 2.22
    # times sqrt(2 / 2e5)), so a correct sampler fails it for ~1 seed in 1e4.
    n = 200_000
    x = draw(StableParams(alpha=0.5, scale=1.0, truncation_quantile=1.0), n,
             np.random.default_rng(61))
    rng = np.random.default_rng(62)
    u = rng.uniform(0.0, np.pi, n)
    w = rng.standard_exponential(n)
    kanter = np.exp(_ln_kanter_a(0.5, u) - np.log(w))
    assert stats.ks_2samp(x, kanter).statistic < 0.007


class _AtZeroNormal:
    """A stream whose every normal variate is z = 0, the far tail of 1/(2 z^2)."""

    def standard_normal(self, out):
        out[...] = 0.0
        return out


def test_zero_normal_maps_to_cap_without_warning():
    p = StableParams(alpha=0.5, scale=2.0, truncation_quantile=0.99)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = draw(p, (4, 3), _AtZeroNormal())
    assert np.all(x == 2.0 * p.unit_cap)
