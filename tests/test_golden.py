"""Golden check of seeded runs: the refactors of the tick loop must not move them.

CS and KSTT draw only integer Poisson/binomial counts and do exact float
arithmetic on them, so their runs are pinned by sha256 of every result array
and of the final field.  The CF rows go through vectorized transcendentals
(cos, tanh, exp) whose last bit is platform-specific, so they are pinned by
reductions at rtol 1e-13 instead.

To re-record after an intended change, print ``_digests(row())`` or
``_reductions(row())`` and paste the values.
"""
import hashlib
import math

import numpy as np
import pytest

from bookfield import configs, profiles
from bookfield.baselines import BaselineKind, run_baseline
from bookfield.dynamics import simulate
from bookfield.field import MarketOrderParams, ModelParams, PlacementActivityParams, new_field
from bookfield.stable_noise import StableParams

RESULT_ARRAYS = ("times", "velocities", "n0s", "mo_buy", "mo_sell", "spill_bid", "spill_ask",
                 "tracked_cells", "bid_tracks", "ask_tracks")


def _arrays(res):
    out = {name: getattr(res, name) for name in RESULT_ARRAYS}
    out["final_bid"] = res.final_field.bid
    out["final_ask"] = res.final_field.ask
    return out


def _digests(res) -> dict:
    out = {}
    for name, arr in _arrays(res).items():
        arr = np.ascontiguousarray(arr)
        h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
        out[name] = h.hexdigest()
    return out


def _reductions(res) -> dict:
    a = _arrays(res)
    groups = {
        "v": [a["velocities"]],
        "n0": [a["n0s"]],
        "mo": [a["mo_buy"], a["mo_sell"]],
        "tracks": [a["bid_tracks"], a["ask_tracks"]],
        "spills": [a["spill_bid"], a["spill_ask"]],
        "final": [a["final_bid"], a["final_ask"]],
    }
    out = {}
    for name, arrs in groups.items():
        flat = np.concatenate([np.ravel(x) for x in arrs])
        out[name] = (float(np.sum(flat)), float(np.sum(flat * flat)), float(np.max(np.abs(flat))))
    return out


def cf_reference():
    f = configs.reference_grid().new_field(configs.reference_init_profile())
    return simulate(configs.reference_model_params(), f, steps=2000, dt=1.0, seed=11)


def cf_activity():
    # v0_in varies in x, so the placement response is evaluated cell by cell.
    params = ModelParams(
        stable=StableParams(alpha=0.7, scale=1.0, truncation_quantile=0.9),
        sigma_in=profiles.constant(0.0),
        sigma_out=profiles.constant(0.01),
        diffusion=profiles.constant(1e-5),
        mo=MarketOrderParams(k0=0.5, k_inf=0.2, k1=0.2, v0=1e-4),
        n0_floor=0.5,
        activity=PlacementActivityParams(
            k0_in=profiles.constant(0.4),
            k_inf_in=profiles.constant(0.5),
            k1_in=profiles.constant(0.3),
            v0_in=profiles.exp_decay(2e-4, 0.1, floor=5e-5),
        ),
    )
    f = new_field(64, 0.01, lambda x: np.full_like(x, 4.0))
    return simulate(params, f, steps=300, dt=1.0, seed=7)


def cs_reference():
    f = configs.cs_reference_field()
    return run_baseline(BaselineKind.CS, configs.cs_reference(), f, steps=2000, seed=4)


def kstt_reference():
    f = configs.kstt_reference_field()
    return run_baseline(BaselineKind.KSTT, configs.kstt_reference(), f, steps=2000, seed=5,
                        tracked_cells=np.arange(f.length))


CF_GOLDEN = {
    "cf_reference": (cf_reference, {
        "v": (0.008014213704900387, 5.31923552856552e-06, 0.000667632111921382),
        "n0": (164316.90947939368, 24520998.967325054, 395.081452269618),
        "mo": (0.05674132567437272, 3.3769352982519425e-06, 0.00012499992056828836),
        "tracks": (748681.5553202975, 49730507.859118804, 367.7356332501011),
        "spills": (5033.098046711753, 447215.2462189932, 187.21577914463884),
        "final": (7494.3464608103895, 288906.4203067564, 181.66789717590532),
    }),
    # Re-recorded when the activity response took the market-order expression
    # order and the exp-based sech: elements moved by <= 2e-15 relative, these
    # reductions by <= 1.6e-16.
    "cf_activity": (cf_activity, {
        "v": (0.02485594230670171, 6.009595076242131e-06, 0.0004106292885175626),
        "n0": (425.28466837894973, 1696.233098519056, 7.9555958780099285),
        "mo": (0.013222658945529823, 6.947359621084024e-07, 6.931431560325492e-05),
        "tracks": (3012.0393848678445, 5983.2602929126915, 3.982399875825843),
        "spills": (0.4389329304960064, 0.045395067272569464, 0.19546353516008488),
        "final": (2.589948773806362, 0.05378989421038102, 0.027366435119644286),
    }),
}

ZERO_2000 = "ae2f76ae6a4eb5480d050506c3efd0bb02f60a56bef14efdfc64345395483a89"
TIMES_2000 = "6ce1aaecc9d3d6e767309968edd70ec66209dfa167848c2b1246828f21173a65"

DIGEST_GOLDEN = {
    "cs_reference": (cs_reference, {
        "times": TIMES_2000,
        "velocities": "2c635f17d73b2abf11519c9bf99993f681c9f1cf4d3740f56d2e3b6cf8ccb62f",
        "n0s": "c3f4373e591d373bec4c4ee0450dfd6b452d9ae5a505a16cd79330e535fed518",
        "mo_buy": "cefee35f9b27127d9480b5383ae7ff7cd4976ff6d8274f0193e970fbadcb7db4",
        "mo_sell": "0996b2a3a322ab3687d2240a0d76c527896b210a66b22f94ce9f756c556e3d81",
        "spill_bid": ZERO_2000,
        "spill_ask": ZERO_2000,
        "tracked_cells": "1cb25454708c57371dafe03e3fbc264ee60ddac68551ca41af565ae87bbc5a32",
        "bid_tracks": "f1ac6a1262b4cb90c7d9c89cc709f3ede8c00ba429f0623d7c7755dcfb441610",
        "ask_tracks": "d1bf1fdf88918e5db78b638921ad30e1cd4b8ce2b7041c16650c28afc0a7263a",
        "final_bid": "a6fffcbeaa0a3b5a5282b1254f7b2f55295c4403ef9e8f3f074f78c967bb5980",
        "final_ask": "56c3477a73144ad9b6b88263a5cb7bdfbdbdbe5e142c4841504a31d6fb5f1b92",
    }),
    "kstt_reference": (kstt_reference, {
        "times": TIMES_2000,
        "velocities": "e83394ae12b8370791e8795fb7190386fe6961a5fb59edec0fa06d87b8b443f6",
        "n0s": "23aefc8e295670cf25093eea49b7c9e59702343539edfa93423329b6c8ca1458",
        "mo_buy": "37fae4fac2e8d1f4f107375ac6b4965a89319f058972293fc6467877c9ed35e0",
        "mo_sell": "97d0a5a791a3bd0f8dd53dead910afae4e2e53a59d9f7eee9d662cf0f202e495",
        "spill_bid": ZERO_2000,
        "spill_ask": ZERO_2000,
        "tracked_cells": "3275b8328bbe87edabce5d86b3d477076887fe3fdec4fbb812f40c0489753439",
        "bid_tracks": "b01826efee4cac41f00c2c19da0c95daf17b459922a721e72943aa6b06187eaf",
        "ask_tracks": "662acc629e2e4e0030eb0e0063e18118c3e853592011b942f4a362973160e2c0",
        "final_bid": "499cb3897836b4a4ce020e78efaba2d4ea0ddfcf1af3e26cd75318d19859cd3b",
        "final_ask": "fe394d5fbf7c780a29700442e9b4b0076213570324e5ded44ad47a1b724359f6",
    }),
}


@pytest.mark.parametrize("name", sorted(CF_GOLDEN))
def test_cf_reductions_match_golden(name):
    run, expected = CF_GOLDEN[name]
    got = _reductions(run())
    assert set(got) == set(expected)
    for key, want in expected.items():
        for g, w in zip(got[key], want):
            assert math.isclose(g, w, rel_tol=1e-13, abs_tol=0.0), (key, g, w)


@pytest.mark.parametrize("name", sorted(DIGEST_GOLDEN))
def test_baseline_digests_match_golden(name):
    run, expected = DIGEST_GOLDEN[name]
    assert _digests(run()) == expected
