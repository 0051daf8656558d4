"""Seeded CF runs written as cf configs, shared by the golden and the volume-gauge tests.

A config here is ``configs.reference_config("cf")`` with some keys replaced,
so it runs the way ``simulate --config`` would run it.
"""
from __future__ import annotations

from bookfield import configs, profiles
from bookfield.dynamics import simulate


def cf_config(**keys) -> dict:
    """The reference cf config with ``keys`` replaced."""
    return {**configs.reference_config("cf"), **keys}


def const(value: float) -> dict:
    return {"kind": "constant", "value": value}


def run_cf(cfg: dict):
    """(result, field) of a seeded run of ``cfg``; the field is the one the run mutated."""
    field = configs.GridSpec(**cfg["grid"]).new_field(profiles.make_profile(cfg["init_profile"]))
    result = simulate(configs.model_params(cfg), field, steps=cfg["steps"], dt=cfg["dt"],
                      seed=cfg["seed"])
    return result, field


# Static placement off alpha = 1/2 at dt = 0.5, with noise scales 0.8 of the reference's
# (sigma_in(0) = 0.04, sigma_out = 0.0032): pins the general stable fill and the three
# static noise folds over five noise chunks, the last one partial.  Volume spills past
# x = 0 on 45 of the 300 ticks.
CF_STATIC_ALPHA = cf_config(
    steps=300, dt=0.5, seed=3,
    grid={"length": 64, "dx": 2e-4},
    stable={"alpha": 0.7, "truncation_quantile": 0.99},
    sigma_in={"kind": "exp_decay", "amplitude": 0.04, "length_scale": 0.02, "floor": 0.0},
    sigma_out=const(0.0032),
)

# Velocity-coupled placement; v0_in varies in x, so the placement response is evaluated
# cell by cell.
CF_ACTIVITY = cf_config(
    steps=300, dt=1.0, seed=7,
    grid={"length": 64, "dx": 0.01},
    stable={"alpha": 0.7, "truncation_quantile": 0.9},
    sigma_in=const(0.0),
    sigma_out=const(0.01),
    diffusion=const(1e-5),
    mo={"k0": 0.5, "k_inf": 0.2, "k1": 0.2, "v0": 1e-4},
    n0_floor=0.5,
    init_profile=const(4.0),
    activity={
        "k0_in": const(0.4),
        "k_inf_in": const(0.5),
        "k1_in": const(0.3),
        "v0_in": {"kind": "exp_decay", "amplitude": 2e-4, "length_scale": 0.1, "floor": 5e-5},
    },
)
