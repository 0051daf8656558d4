"""Named spatial profiles for rate and diffusion coefficients.

Model coefficients (placement scale, cancellation rate, diffusion rate,
activity constants) vary with the log-price distance x.  Profiles are plain
callables x -> value; this module provides the named constructors that config
files and the command line can refer to, and builds a profile from its spec
dictionary.
"""
from __future__ import annotations

import sys
from typing import Callable

import numpy as np

Profile = Callable[[np.ndarray | float], np.ndarray | float]

__all__ = ["Profile", "constant", "exp_decay", "make_profile"]


def constant(value: float) -> Profile:
    def f(x):
        return np.full_like(np.asarray(x, dtype=float), value) if np.ndim(x) else float(value)

    return f


def exp_decay(amplitude: float, length_scale: float, floor: float = 0.0) -> Profile:
    """amplitude * exp(-x / length_scale) + floor; length_scale > 0."""
    if not length_scale > 0.0:
        raise ValueError(f"'exp_decay' profile parameter 'length_scale' must be positive, got {length_scale!r}")

    def f(x):
        return amplitude * np.exp(-np.asarray(x, dtype=float) / length_scale) + floor

    return f


_CONSTRUCTORS = {"constant": constant, "exp_decay": exp_decay}


def make_profile(spec: dict) -> Profile:
    """Build a profile from a spec dict like {"kind": "exp_decay", "amplitude": 2.0, ...}."""
    try:
        kind = spec["kind"]
    except (TypeError, KeyError):
        raise ValueError(f"profile spec must be a dict with a 'kind' key, got {spec!r}") from None
    try:
        ctor = _CONSTRUCTORS[kind]
    except KeyError:
        raise ValueError(f"unknown profile kind {kind!r}; valid kinds: {sorted(_CONSTRUCTORS)}") from None
    kwargs = {k: v for k, v in spec.items() if k != "kind"}
    for name, value in kwargs.items():  # NaN, inf, huge ints, strings and booleans fail
        if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
            raise ValueError(f"{kind!r} profile parameter {name!r} must be a finite number, got {value!r}")
    try:
        return ctor(**kwargs)
    except TypeError as exc:  # a missing or unknown parameter of the kind
        raise ValueError(f"bad {kind!r} profile spec: {exc}") from None
