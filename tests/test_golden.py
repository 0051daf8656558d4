"""Golden check of seeded runs and of the analysis files the CLI writes from them.

CS and KSTT draw only integer Poisson/binomial counts and do exact float
arithmetic on them, so their runs are pinned by sha256 of every result array
and of the final field.  The CF rows go through vectorized transcendentals
(tanh, exp; sin and log off alpha = 1/2) whose last bit is platform-specific,
so they are pinned by reductions at rtol 1e-13 instead.

The analysis golden runs ``analyze`` (all statistics at the sampling lag, and
every statistic but velocity-correlation at lag 3), ``fit-mo`` and ``compare``
on seeded 3000-tick CS, KSTT and CF runs.  Files derived from CS or KSTT are
pinned by sha256 of their bytes; files derived from CF (and comparison.json,
which holds CF numbers) by the sha256 of their text with every number replaced
by ``#`` plus reductions of the numbers at rtol 1e-13.

The fp golden runs ``fp`` at n0 = 1, 4 and 16 and at ``--points 4001``.  Its
files come from exp, log and tanh, so all of them are pinned the CF way.

To re-record after an intended change, print ``_digests(row())``,
``_reductions(row())``, ``_file_golden(path, text)`` over
``analysis_outputs`` or ``_text_reductions(text)`` over ``fp_outputs`` and
paste the values.
"""
import hashlib
import json
import math
import re

import numpy as np
import pytest

from bookfield import configs
from bookfield.baselines import run_baseline
from bookfield.cli import main

from _cf_runs import CF_ACTIVITY, CF_STATIC_ALPHA, cf_config, run_cf

RESULT_ARRAYS = ("times", "velocities", "n0s", "mo_buy", "mo_sell", "spill_bid", "spill_ask",
                 "tracked_cells", "bid_tracks", "ask_tracks")


def _arrays(row):
    """The result arrays of a row's run, and the final bid and ask of the field it ran on."""
    res, field = row
    out = {name: getattr(res, name) for name in RESULT_ARRAYS}
    out["final_bid"] = field.bid
    out["final_ask"] = field.ask
    return out


def _digests(row) -> dict:
    out = {}
    for name, arr in _arrays(row).items():
        arr = np.ascontiguousarray(arr)
        h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
        out[name] = h.hexdigest()
    return out


def _reductions(row) -> dict:
    a = _arrays(row)
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
    return run_cf(cf_config(steps=2000, seed=11))


def cf_activity():
    return run_cf(CF_ACTIVITY)


def cf_static_alpha():
    return run_cf(CF_STATIC_ALPHA)


def cs_reference():
    f = configs.cs_reference_field()
    return run_baseline(configs.cs_reference(), f, steps=2000, seed=4), f


def kstt_reference():
    f = configs.kstt_reference_field()
    return run_baseline(configs.kstt_reference(), f, steps=2000, seed=5,
                        tracked_cells=np.arange(f.length)), f


CF_GOLDEN = {
    # Re-recorded when the alpha = 1/2 noise became 1/(2 Z^2) from one standard
    # normal per variate: the same law on another stream, so the run moved.
    "cf_reference": (cf_reference, {
        "v": (0.003891198382201708, 4.1296846285691995e-06, 0.0007717413720781477),
        "n0": (182476.66656545625, 30045707.223485246, 518.8197511559121),
        "mo": (0.05415432771758693, 3.0883383054690353e-06, 0.0001249999900982955),
        "tracks": (808181.5916588991, 57936511.33487384, 358.3290882313839),
        "spills": (4527.095472171975, 468368.34665530006, 243.6794269715368),
        "final": (8301.429753963277, 322945.75748722133, 128.29969692734747),
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
    # Recorded before the public re-exports, OrderBookField.copy and _TickEngine.rng were deleted.
    "cf_static_alpha": (cf_static_alpha, {
        "v": (-0.0002241142010884844, 7.775000344185375e-09, 2.1303878727552883e-05),
        "n0": (5949.378968768192, 131869.2006505104, 30.806132088087935),
        "mo": (0.0010446999754975816, 7.885746099306545e-09, 2.1156617007401035e-05),
        "tracks": (41745.91268920647, 451635.37087207485, 18.79741313289169),
        "spills": (33.24115698191442, 185.64424639323929, 13.162637755416846),
        "final": (1191.3004043629974, 11883.011381683897, 15.36031275042199),
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


ANALYSIS_RUNS = (("cs", 4), ("kstt", 5), ("cf", 11))
LAG3_STATS = ("conditional-delta,mean-delta,spatial-correlation,return-distribution,"
              "variance-vs-n0,rms-delta")
_NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


@pytest.fixture(scope="module")
def analysis_outputs(tmp_path_factory) -> dict[str, str]:
    """{path relative to the output root: text} of every analysis file written."""
    root = tmp_path_factory.mktemp("analysis")
    runs = tmp_path_factory.mktemp("runs")
    for model, seed in ANALYSIS_RUNS:
        assert main(["simulate", "--model", model, "--steps", "3000", "--seed", str(seed),
                     "--out", str(runs / model)]) == 0
        records = str(runs / model / "records.jsonl")
        assert main(["analyze", "--records", records, "--out", str(root / f"{model}_analyze")]) == 0
        assert main(["analyze", "--records", records, "--lag", "3", "--stats", LAG3_STATS,
                     "--out", str(root / f"{model}_lag3")]) == 0
        assert main(["fit-mo", "--records", records, "--out", str(root / f"{model}_fit")]) == 0
    assert main(["compare", "--models", "cf,cs,kstt", "--steps", "3000", "--seed", "11",
                 "--out", str(root / "compare")]) == 0
    return {p.relative_to(root).as_posix(): p.read_text()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _file_golden(path: str, text: str):
    if "cf" not in path and not path.endswith("comparison.json"):
        return hashlib.sha256(text.encode()).hexdigest()
    return _text_reductions(text)


def _text_reductions(text: str) -> tuple:
    nums = np.array([float(m) for m in _NUMBER.findall(text)])
    skeleton = hashlib.sha256(_NUMBER.sub("#", text).encode()).hexdigest()
    return (skeleton, len(nums), float(np.sum(np.abs(nums))), float(np.sum(nums * nums)),
            float(np.max(np.abs(nums))))


# The four mean_delta_slope.csv entries were re-recorded when its count column
# changed from all zeros to the sample count of each bin's fit.  Every CF entry
# (and comparison.json) was re-recorded when the alpha = 1/2 noise became
# 1/(2 Z^2) from one standard normal per variate.  The three mo_fit.json entries
# were re-recorded when the fit moved from scipy's least_squares to the numpy
# Levenberg-Marquardt (each cost equal or lower) and the standard errors took the
# gap-k1 covariance and unit-scaled columns.
ANALYSIS_GOLDEN = {
    "cf_analyze/conditional_delta.csv": (
        "f2b9e25dd3465b7d134ac404c068b9c951a2d80389fbadd3c4a7f9e1ed83a139",
        672, 8156.38599969273, 3873486.355750713, 1037.0),
    "cf_analyze/mean_delta_slope.csv": (
        "0507e3f93400ebb98cf53086b67527f17bbc1c3fdfb4ac31d04774fe602f2f69",
        85, 59833.04355232969, 170487426.35423598, 2887.0),
    "cf_analyze/return_distribution.csv": (
        "7bb80003dbafd11283c7df5a7423e44d868268a599cc3e3619916e643a1b9834",
        186, 106308.53190010447, 10018002260.806192, 100000.0),
    "cf_analyze/rms_delta_ask.csv": (
        "40d1aadade04bb0528c870845b318b5109aeba9a827180c5ead536abebf06fc8",
        45, 3460.6568693772842, 6062801.785266709, 2436.0),
    "cf_analyze/rms_delta_bid.csv": (
        "3189e5fcd24c49dfe8f695c6d504fd33bfc12cd2eb9b2d06110cd08d4376850b",
        45, 3428.006478238711, 6056669.7918479005, 2436.0),
    "cf_analyze/spatial_correlation.csv": (
        "87fa3f1b3ae5df494bd6854734aeb98d89380dc351f98736ed07627a49e07efb",
        86, 62982.359823238665, 188874023.06992313, 2999.0),
    "cf_analyze/variance_vs_n0.csv": (
        "9cdfee4b9863cc30853d078ec6dcea12676e9ac0acca020cbd35805728e0b047",
        46, 4965.832600114667, 2321006.370338173, 809.0),
    "cf_analyze/velocity_correlation_ask.csv": (
        "4d1cf3063983be4d1db329448f44892d677ad09770ad6b6dd027d55308b5a740",
        85, 62981.08943723561, 188874022.05434644, 2999.0),
    "cf_analyze/velocity_correlation_bid.csv": (
        "556449d8b1d079da51abc262d87b579737ab9c4aa406116221abf3eb1eac812b",
        85, 62981.12994694601, 188874022.0558437, 2999.0),
    "cf_fit/mo_fit.json": (
        "2b0753bea1df793878ad66c42fb2eb6bba833d0e4d1a41fb6c5eb990b580a17d",
        40, 3174.0127481522745, 9015599.245202132, 3000.0),
    "cf_lag3/conditional_delta.csv": (
        "f2b9e25dd3465b7d134ac404c068b9c951a2d80389fbadd3c4a7f9e1ed83a139",
        672, 9613.785960565754, 4150422.9108854537, 1038.0),
    "cf_lag3/mean_delta_slope.csv": (
        "0507e3f93400ebb98cf53086b67527f17bbc1c3fdfb4ac31d04774fe602f2f69",
        85, 59799.25647484916, 170259693.3050904, 2885.0),
    "cf_lag3/return_distribution.csv": (
        "7bb80003dbafd11283c7df5a7423e44d868268a599cc3e3619916e643a1b9834",
        186, 106310.53190010447, 10018002268.806192, 100000.0),
    "cf_lag3/rms_delta_ask.csv": (
        "40d1aadade04bb0528c870845b318b5109aeba9a827180c5ead536abebf06fc8",
        45, 3460.6568693772842, 6062801.785266709, 2436.0),
    "cf_lag3/rms_delta_bid.csv": (
        "3189e5fcd24c49dfe8f695c6d504fd33bfc12cd2eb9b2d06110cd08d4376850b",
        45, 3428.006478238711, 6056669.7918479005, 2436.0),
    "cf_lag3/spatial_correlation.csv": (
        "87fa3f1b3ae5df494bd6854734aeb98d89380dc351f98736ed07627a49e07efb",
        86, 62942.32452956518, 188622199.06714723, 2997.0),
    "cf_lag3/variance_vs_n0.csv": (
        "9cdfee4b9863cc30853d078ec6dcea12676e9ac0acca020cbd35805728e0b047",
        46, 4965.832600114667, 2321006.370338173, 809.0),
    "compare/cf_return_distribution.csv": (
        "7bb80003dbafd11283c7df5a7423e44d868268a599cc3e3619916e643a1b9834",
        186, 106308.53190010447, 10018002260.806192, 100000.0),
    "compare/cf_rms_delta_ask.csv": (
        "40d1aadade04bb0528c870845b318b5109aeba9a827180c5ead536abebf06fc8",
        45, 3460.6568693772842, 6062801.785266709, 2436.0),
    "compare/cf_rms_delta_bid.csv": (
        "3189e5fcd24c49dfe8f695c6d504fd33bfc12cd2eb9b2d06110cd08d4376850b",
        45, 3428.006478238711, 6056669.7918479005, 2436.0),
    "compare/cf_velocity_correlation_ask.csv": (
        "4d1cf3063983be4d1db329448f44892d677ad09770ad6b6dd027d55308b5a740",
        85, 62981.08943723561, 188874022.05434644, 2999.0),
    "compare/cf_velocity_correlation_bid.csv": (
        "556449d8b1d079da51abc262d87b579737ab9c4aa406116221abf3eb1eac812b",
        85, 62981.12994694601, 188874022.0558437, 2999.0),
    "compare/comparison.json": (
        "d5ca4ca86572d7408c877c2c0022226748f054f8915151665238c9c7f0961fcf",
        18, 346296.2525620364, 30745907575.43007, 100000.0),
    "compare/cs_return_distribution.csv":
        "47829685d9f41f6e28518f4c7ac0c0e3cfeb8d2847639b7ebb474113f7d15097",
    "compare/cs_rms_delta_ask.csv":
        "07cff11e77e2dce1d4ab822e5c0f896f1dba459737dc890a7af6be2ef5980fe8",
    "compare/cs_rms_delta_bid.csv":
        "58057a3304c96aed435860b1a9f6565ed9427053721dc72a292dbfd4fdf4eabc",
    "compare/cs_velocity_correlation_ask.csv":
        "5c6ea44961b7322facc727624ebae3e11d199fce2b0a74460e97af41e4bae389",
    "compare/cs_velocity_correlation_bid.csv":
        "2a77cb6b22dbe9bf0f89acbd0ada656293ad6ccac73a6f3464106ec232188307",
    "compare/kstt_return_distribution.csv":
        "786dc564959f634922797051085c896eb28fb6fcc97386681068ec147bee5565",
    "compare/kstt_rms_delta_ask.csv":
        "d2faf592814b23f0e1f2dc36557404db97422b187af774774b6228a5926d33e1",
    "compare/kstt_rms_delta_bid.csv":
        "b1085bbe0eb8ea32cc35eafbab78560a902dfe9f3343e29ba06283e5afa22066",
    "compare/kstt_velocity_correlation_ask.csv":
        "b5e69a7c732eeff385608c4db72f0a252d7227513b029bd8a83f7fab998f0cb0",
    "compare/kstt_velocity_correlation_bid.csv":
        "efeb1e100a61fdb2fc240f9f9a58979876b6cd961ea5448e01603a7c4e733d8f",
    "cs_analyze/conditional_delta.csv":
        "2e0756ff79e7214d1e96c726744ab8e5264c0cbc5278be69d2226fbaea306a06",
    "cs_analyze/mean_delta_slope.csv":
        "0532fa6575e4fed9a58e860778235dc7682926feca532cec0314c5ae727d14f9",
    "cs_analyze/return_distribution.csv":
        "d268c003c47d03909e8ee385e99ee4ed3b96b5e03bb4011c5c310f266543137d",
    "cs_analyze/rms_delta_ask.csv":
        "c2b2411e8ea29f5a5f8473ae60e27596f3cfce9d193f7d8c125136910f7a4607",
    "cs_analyze/rms_delta_bid.csv":
        "a8c653fa533c31b366a66a55c1b33a20eeb51e35135d461ec6bd9cf7757ed85a",
    "cs_analyze/spatial_correlation.csv":
        "f3c54a9ec70b468abe5b44b03603cf7626ef2cf4032686af1c29e36a5da2e359",
    "cs_analyze/variance_vs_n0.csv":
        "2eb1b145cb93473215c76c875e7814173f9da1d06434884c9019d58492258b24",
    "cs_analyze/velocity_correlation_ask.csv":
        "9e8f266177cd9682cd93aadcf5231e6fd06eeecaaa49f61e9250079d1a300bea",
    "cs_analyze/velocity_correlation_bid.csv":
        "d5cee99094e91c11432d1567ee67e9adace4e3a0d3a5804ae78a9f9f31098efb",
    "cs_fit/mo_fit.json":
        "2ce069f9f61f24e1749042027105e8d2cfdd37b8496189c68c3cc5f586b9b58c",
    "cs_lag3/conditional_delta.csv":
        "9e0227a82d76ad38d044096b044a191721114b223d55401bdcf5e89e8294989f",
    "cs_lag3/mean_delta_slope.csv":
        "4cc8c972ec857301ce3b18dd615c96d7ebd7f7b435fdc1f6d43bcd2b990b8aa8",
    "cs_lag3/return_distribution.csv":
        "8af11039ab8252b5c3cd1435f77d67ba9af7eb709dfa6513e4fe403c347504b9",
    "cs_lag3/rms_delta_ask.csv":
        "c2b2411e8ea29f5a5f8473ae60e27596f3cfce9d193f7d8c125136910f7a4607",
    "cs_lag3/rms_delta_bid.csv":
        "a8c653fa533c31b366a66a55c1b33a20eeb51e35135d461ec6bd9cf7757ed85a",
    "cs_lag3/spatial_correlation.csv":
        "93f3f2ca3e33e6c582bd89f3ac3f70a4687dddf955d5fce8ffcc090b5e7ad027",
    "cs_lag3/variance_vs_n0.csv":
        "2eb1b145cb93473215c76c875e7814173f9da1d06434884c9019d58492258b24",
    "kstt_analyze/conditional_delta.csv":
        "e436ec45c4a6cd947c17ef2bf7e7a908c51d0ad23ab73c438537c17f867b2a80",
    "kstt_analyze/return_distribution.csv":
        "2f4574f2a14f659a6f5c93ddd17829bf04efb3258b8073a35e604d4836e0fbf1",
    "kstt_analyze/rms_delta_ask.csv":
        "46f8bae54315c49a26a4ba2c622ef451edfb5b0657e3b6913a9a83a0d36ed2f5",
    "kstt_analyze/rms_delta_bid.csv":
        "f36c2ba8b371a7f123e8e6ffbf88fbf06398a16eaac8ed23a549fe44bc2ff5d7",
    "kstt_analyze/spatial_correlation.csv":
        "843a76c1af55d14b10c9dac7c869ebcbadf1b610110f63765259eda3cfa42e2d",
    "kstt_analyze/variance_vs_n0.csv":
        "e55fdbdf63298ca30d4613e2397dcda1bcde3beba599b26959671ab6be031fc6",
    "kstt_analyze/velocity_correlation_ask.csv":
        "29951d49932a50c50be7f0ea3c3735c79c36d63994457b1259f88b486a8e0a60",
    "kstt_analyze/velocity_correlation_bid.csv":
        "8da38db98ac84ba002b21962eb2e694730a2adea759d9577bcc15b51860d3f29",
    "kstt_fit/mo_fit.json":
        "de7751ba9bd0ff47c4613fa5306dec82936b81a4ad2eca370c4df5fdcb27b77e",
    "kstt_lag3/conditional_delta.csv":
        "a56204d24520528973746941e697ce78b82bd127bc03b946e759aafb7538eebf",
    "kstt_lag3/return_distribution.csv":
        "87805f5c7e6effc013628a980423dd8c44be85f57e64756b79f77f98962c6f4b",
    "kstt_lag3/rms_delta_ask.csv":
        "46f8bae54315c49a26a4ba2c622ef451edfb5b0657e3b6913a9a83a0d36ed2f5",
    "kstt_lag3/rms_delta_bid.csv":
        "f36c2ba8b371a7f123e8e6ffbf88fbf06398a16eaac8ed23a549fe44bc2ff5d7",
    "kstt_lag3/spatial_correlation.csv":
        "f4f4c96832832d47bd89e5a29be6a164bb50247a12b727ed99d032f040e2aff4",
    "kstt_lag3/variance_vs_n0.csv":
        "e55fdbdf63298ca30d4613e2397dcda1bcde3beba599b26959671ab6be031fc6",
}


def test_analysis_writes_the_golden_files(analysis_outputs):
    assert sorted(analysis_outputs) == sorted(ANALYSIS_GOLDEN)


@pytest.mark.parametrize("path", sorted(ANALYSIS_GOLDEN))
def test_analysis_file_matches_golden(analysis_outputs, path):
    got = _file_golden(path, analysis_outputs[path])
    want = ANALYSIS_GOLDEN[path]
    if isinstance(want, str):
        assert got == want
    else:
        _assert_reductions_match(got, want)


def _assert_reductions_match(got: tuple, want: tuple) -> None:
    assert got[:2] == want[:2]
    for g, w in zip(got[2:], want[2:]):
        assert math.isclose(g, w, rel_tol=1e-13, abs_tol=0.0), (g, w)


# fp at the benchmark's constants: n0 = 1 and 4 converge in two solves, n0 = 16 runs every
# grid doubling, and --points 4001 takes the solver's own grid size.
FP_ARGS = ["--k0", "1.0", "--k-inf", "0.3", "--k1", "0.25", "--v0", "1.0"]
FP_RUNS = {"n0_1": ["--n0", "1"], "n0_4": ["--n0", "4"], "n0_16": ["--n0", "16"],
           "n0_4_points_4001": ["--n0", "4", "--points", "4001"]}


@pytest.fixture(scope="module")
def fp_outputs(tmp_path_factory) -> dict[str, str]:
    """{run/file: text} of every fp output; density.csv's header without its ``out`` path."""
    root = tmp_path_factory.mktemp("fp")
    files = {}
    for name, argv in FP_RUNS.items():
        assert main(["fp", *FP_ARGS, *argv, "--out", str(root / name)]) == 0
        first, rest = (root / name / "density.csv").read_text().split("\n", 1)
        meta = json.loads(first[1:])
        assert meta["params"].pop("out") == str(root / name)
        files[f"{name}/density.csv"] = "# " + json.dumps(meta) + "\n" + rest
        files[f"{name}/regime_report.json"] = (root / name / "regime_report.json").read_text()
    return files


# density.csv and regime_report.json hold exp/log/tanh results, so they are pinned like the CF
# files: the text with every number replaced by ``#``, plus reductions of the numbers.  The four
# density.csv entries were re-recorded when fp lost --tau: the header's params lost "tau": 1.0,
# so each has one number fewer and sums lower by 1.0; every density row kept its bytes.
FP_GOLDEN = {
    "n0_1/density.csv": (
        "5d40c72c14cd7361e76450b69c8cf415bbdec6cb0cd26ccf33ceacb5ec95c0b7",
        4013, 6870.946500284147, 4019418.223424236, 2001.0),
    "n0_1/regime_report.json": (
        "bebf5600c885939ce8de4d8082f7410d76e708dcd703da82bc903b0a2112881f",
        5, 6.2485912708605085, 18.04236111160384, 4.0),
    "n0_16/density.csv": (
        "5d40c72c14cd7361e76450b69c8cf415bbdec6cb0cd26ccf33ceacb5ec95c0b7",
        4013, 20242.61640472384, 4537608.1986621255, 2001.0),
    "n0_16/regime_report.json": (
        "bebf5600c885939ce8de4d8082f7410d76e708dcd703da82bc903b0a2112881f",
        5, 516.2000980523105, 264198.0400000096, 514.0),
    "n0_4/density.csv": (
        "5d40c72c14cd7361e76450b69c8cf415bbdec6cb0cd26ccf33ceacb5ec95c0b7",
        4013, 11386.889329867763, 4078759.2677952596, 2001.0),
    "n0_4/regime_report.json": (
        "bebf5600c885939ce8de4d8082f7410d76e708dcd703da82bc903b0a2112881f",
        5, 36.201625826121756, 1158.0400026433106, 34.0),
    "n0_4_points_4001/density.csv": (
        "2a52873a9bbba2e74c5b4dacf5c3c3b903f1576c515f57b978f6c890510f9fc2",
        8013, 22745.32794246165, 16157302.524348795, 4001.0),
    "n0_4_points_4001/regime_report.json": (
        "bebf5600c885939ce8de4d8082f7410d76e708dcd703da82bc903b0a2112881f",
        5, 36.201625826121756, 1158.0400026433106, 34.0),
}


def test_fp_writes_the_golden_files(fp_outputs):
    assert sorted(fp_outputs) == sorted(FP_GOLDEN)


@pytest.mark.parametrize("path", sorted(FP_GOLDEN))
def test_fp_file_matches_golden(fp_outputs, path):
    _assert_reductions_match(_text_reductions(fp_outputs[path]), FP_GOLDEN[path])
