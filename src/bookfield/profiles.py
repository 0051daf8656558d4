"""Named spatial profiles for rate and diffusion coefficients.

Model coefficients (placement scale, cancellation rate, diffusion rate,
activity constants) vary with the log-price distance x.  Profiles are plain
callables x -> value; this module provides the named constructors that config
files and the command line can refer to, plus (de)serialization of the spec
dictionaries.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

Profile = Callable[[np.ndarray | float], np.ndarray | float]

__all__ = ["Profile", "constant", "exp_decay", "hump", "make_profile", "profile_spec_names"]


def constant(value: float) -> Profile:
    def f(x):
        return np.full_like(np.asarray(x, dtype=float), value) if np.ndim(x) else float(value)

    f.spec = {"kind": "constant", "value": value}
    return f


def exp_decay(amplitude: float, length_scale: float, floor: float = 0.0) -> Profile:
    """amplitude * exp(-x / length_scale) + floor."""

    def f(x):
        return amplitude * np.exp(-np.asarray(x, dtype=float) / length_scale) + floor

    f.spec = {"kind": "exp_decay", "amplitude": amplitude, "length_scale": length_scale, "floor": floor}
    return f


def hump(amplitude: float, peak_x: float, power: float = 1.0, floor: float = 0.0) -> Profile:
    """A book-shaped profile: ~x^power near the price, peaking at peak_x.

    amplitude * (x/peak_x)^power * exp(power * (1 - x/peak_x)) + floor, so the
    maximum value is ``amplitude + floor`` at x = peak_x and the profile
    vanishes like x^power at the boundary.
    """

    def f(x):
        xr = np.asarray(x, dtype=float) / peak_x
        return amplitude * xr**power * np.exp(power * (1.0 - xr)) + floor

    f.spec = {"kind": "hump", "amplitude": amplitude, "peak_x": peak_x, "power": power, "floor": floor}
    return f


_CONSTRUCTORS = {"constant": constant, "exp_decay": exp_decay, "hump": hump}


def profile_spec_names() -> list[str]:
    return sorted(_CONSTRUCTORS)


def make_profile(spec: dict) -> Profile:
    """Build a profile from a spec dict like {"kind": "hump", "amplitude": 2.0, ...}."""
    try:
        kind = spec["kind"]
    except (TypeError, KeyError):
        raise ValueError(f"profile spec must be a dict with a 'kind' key, got {spec!r}") from None
    try:
        ctor = _CONSTRUCTORS[kind]
    except KeyError:
        raise ValueError(f"unknown profile kind {kind!r}; valid kinds: {profile_spec_names()}") from None
    kwargs = {k: v for k, v in spec.items() if k != "kind"}
    try:
        return ctor(**kwargs)
    except TypeError as exc:  # a missing or unknown parameter of the kind
        raise ValueError(f"bad {kind!r} profile spec: {exc}") from None
