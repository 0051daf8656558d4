"""Reference configurations for the simulator and the comparison models.

``reference_config(model)`` is the config schema of a model: the JSON object
a run of that model writes to ``config.json``, and the values a config file
is merged over.  The continuous-field (cf) reference produces fat return
tails, but its trend-following constant is not matched to the boundary
volume: at the reference config n0/k0 is about 46 (the seed-11, 2000-tick
golden run has mean n0 = 91.24 against k0 = 2).  The cs and kstt configs hold
only model, steps and seed: those models run on unit ticks with their
reference parameters, which are sized so that their velocity noise stays
deep inside one price cell over runs of ~1e6 ticks (their lattices never
relabel, matching models defined on a fixed price grid).
"""
from __future__ import annotations

from dataclasses import dataclass, fields

from . import profiles
from .baselines import CSParams, KSTTParams
from .field import MarketOrderParams, ModelParams, OrderBookField, PlacementActivityParams, new_field
from .stable_noise import StableParams

__all__ = [
    "MODELS",
    "GridSpec",
    "reference_config",
    "model_params",
    "reference_grid",
    "reference_model_params",
    "reference_init_profile",
    "cs_reference",
    "cs_reference_field",
    "kstt_reference",
    "kstt_reference_field",
]

MODELS = ("cf", "cs", "kstt")


@dataclass(frozen=True)
class GridSpec:
    length: int
    dx: float

    def new_field(self, init_profile) -> OrderBookField:
        return new_field(self.length, self.dx, init_profile)


def reference_config(model: str) -> dict:
    """The config.json of a ``model`` run without config file or flags; its keys are the schema."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; valid: {', '.join(MODELS)}")
    if model != "cf":  # unit ticks, reference parameters
        return {"model": model, "steps": 100_000, "seed": 1}
    return {
        "model": "cf",
        "steps": 100_000,
        "dt": 1.0,
        "seed": 1,
        "grid": {"length": 512, "dx": 2e-4},
        "stable": {"alpha": 0.5, "truncation_quantile": 0.99},
        "sigma_in": {"kind": "exp_decay", "amplitude": 0.05, "length_scale": 0.02, "floor": 0.0},
        "sigma_out": {"kind": "constant", "value": 0.004},
        "diffusion": {"kind": "constant", "value": 2e-9},
        "mo": {"k0": 2.0, "k_inf": 0.5, "k1": 0.5, "v0": 5e-5},
        "n0_floor": 5.0,
        # sigma_in(0) / sigma_out = 0.05 / 0.004, below the mean-field stationary mu(0) = 42.2 per side
        "init_profile": {"kind": "exp_decay", "amplitude": 12.5, "length_scale": 0.02, "floor": 0.0},
        "activity": None,
    }


def _activity(specs) -> PlacementActivityParams:
    """The activity block of a cf config; each of its four profiles is required."""
    if not isinstance(specs, dict):
        raise ValueError(f"config activity must be a JSON object, got {specs!r}")
    names = [f.name for f in fields(PlacementActivityParams)]
    for key in specs:
        if key not in names:
            raise ValueError(f"unknown config key {'activity.' + key!r}; valid keys: {', '.join(names)}")
    for name in names:
        if name not in specs:
            raise ValueError(f"missing config key {'activity.' + name!r}")
    return PlacementActivityParams(**{name: profiles.make_profile(specs[name]) for name in names})


def model_params(cfg: dict) -> ModelParams:
    """The ModelParams of a cf config laid out like ``reference_config("cf")``."""
    return ModelParams(
        stable=StableParams(**cfg["stable"]),
        sigma_in=profiles.make_profile(cfg["sigma_in"]),
        sigma_out=profiles.make_profile(cfg["sigma_out"]),
        diffusion=profiles.make_profile(cfg["diffusion"]),
        mo=MarketOrderParams(**cfg["mo"]),
        n0_floor=cfg["n0_floor"],
        activity=_activity(cfg["activity"]) if cfg["activity"] else None,
    )


def reference_grid() -> GridSpec:
    return GridSpec(**reference_config("cf")["grid"])


def reference_init_profile():
    return profiles.make_profile(reference_config("cf")["init_profile"])


def reference_model_params() -> ModelParams:
    return model_params(reference_config("cf"))


def cs_reference() -> CSParams:
    return CSParams(
        placement_rate=profiles.exp_decay(100.0, 10.0),
        cancel_prob=0.01,
        mo_volume=5.0,
        n0_floor=100.0,
    )


def cs_reference_field() -> OrderBookField:
    return new_field(64, 1.0, profiles.exp_decay(10_000.0, 10.0))


def kstt_reference() -> KSTTParams:
    return KSTTParams(
        placement=MarketOrderParams(k0=1.25e4, k_inf=5e5, k1=0.0, v0=2e-4),
        cancel_prob=0.01,
        mo=MarketOrderParams(k0=2.5e3, k_inf=1.5e4, k1=0.0, v0=2e-4),
        n0_floor=100.0,
    )


def kstt_reference_field() -> OrderBookField:
    return new_field(16, 1.0, profiles.constant(10_000.0))
