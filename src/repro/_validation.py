"""Shared argument-validation helpers.

These helpers keep validation messages consistent across the package and
make the public API fail loudly (with :mod:`repro.errors` exceptions) on
malformed input instead of producing silently wrong results.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import TransformError


def as_1d_float_array(data: Iterable[float], name: str = "data") -> np.ndarray:
    """Coerce ``data`` to a 1-D ``float64`` array, rejecting other shapes.

    Parameters
    ----------
    data:
        Any iterable of numbers (list, tuple, ndarray, generator).
    name:
        Name used in error messages.
    """
    arr = np.asarray(list(data) if not isinstance(data, np.ndarray) else data,
                     dtype=float)
    if arr.ndim != 1:
        raise TransformError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise TransformError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise TransformError(f"{name} contains non-finite values")
    return arr


def as_2d_float_array(data, name: str = "data") -> np.ndarray:
    """Coerce ``data`` to a 2-D ``float64`` array, rejecting other shapes."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2:
        raise TransformError(f"{name} must be two-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise TransformError(f"{name} contains non-finite values")
    return arr


def is_power_of_two(n: int) -> bool:
    """Return True when ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def require_power_of_two(n: int, name: str = "length") -> None:
    """Raise :class:`TransformError` unless ``n`` is a power of two."""
    if not is_power_of_two(n):
        raise TransformError(
            f"{name} must be a positive power of two, got {n}"
        )


def resolve_settings(settings_cls, settings, kwargs, error_cls):
    """Resolve the ``settings``-object-or-keyword-arguments convention.

    Several configurable classes (:class:`repro.core.predictor.
    WaveletNeuralPredictor` and friends) accept either a prebuilt,
    immutable settings dataclass or loose keyword arguments — never
    both.  This helper owns that resolution: build ``settings_cls``
    from ``kwargs`` when no object is given, reject mixing the two
    (raising ``error_cls``), and return the validated settings.
    """
    if settings is None:
        settings = settings_cls(**kwargs)
    elif kwargs:
        raise error_cls(
            "pass either a settings object or keyword arguments, not both"
        )
    settings.validate()
    return settings


def rng_from_seed(seed) -> np.random.Generator:
    """Build a :class:`numpy.random.Generator` from a seed or pass through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def stable_hash(*parts) -> int:
    """Deterministic 64-bit hash of a tuple of primitives.

    ``hash()`` is salted per interpreter run for strings, so it cannot be
    used to derive reproducible simulation seeds.  This helper implements a
    small FNV-1a over the ``repr`` of the parts instead.
    """
    acc = 0xCBF29CE484222325
    for part in parts:
        for byte in repr(part).encode("utf8"):
            acc ^= byte
            acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc
