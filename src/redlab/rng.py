"""Deterministic random sampling.

Every draw in the package comes from numpy's own `Generator`, made over
PCG64 by `_generator`, the one place that seeds one.  An identical seed
gives an identical sample stream within one build; bit compatibility across
numpy versions or platforms is not promised.

The package's argument checks live here too, one helper per kind of
argument; each takes values of integer or float kind only (`_is_real`).
"""

import sys

import numpy as np


def _is_real(value):
    """Whether `value` is of integer or float kind: a Python or numpy int or
    float, or an array of them; not a bool, complex number, string or object."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.dtype.kind in "iuf"
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integral(value, name):
    """`value` as an int; a non-integral value is an error, not truncated."""
    try:
        n = int(value) if _is_real(value) else None
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return n


def _shape(shape):
    """`shape` as (height, width): exactly two positive integers."""
    try:
        h, w = shape
    except (TypeError, ValueError):
        raise ValueError(f"shape must be (height, width), got {shape!r}") from None
    h, w = _integral(h, "height"), _integral(w, "width")
    if min(h, w) < 1:
        raise ValueError(f"shape must be positive, got {shape!r}")
    return h, w


def _positive(value, name):
    """`value` as a positive finite float; an int too large for a float is
    not finite."""
    if not (_is_real(value) and 0 < value <= sys.float_info.max):
        raise ValueError(f"{name} must be positive and finite")
    return float(value)


def _floats(a, name):
    """The array `a` as float64, without a copy where it already is; NaN
    and inf pass, for callers that need finite values check for them."""
    a = np.asarray(a)
    if not _is_real(a):
        raise ValueError(f"{name} must be real-valued, got dtype {a.dtype}")
    return a.astype(np.float64, copy=False)


def _vector(x, n, name):
    """`x` as a flat float64 vector of dimension `n` (see `_floats`)."""
    x = _floats(x, name).reshape(-1)
    if x.size != n:
        raise ValueError(f"{name} has {x.size} entries, expected {n}")
    return x


def _generator(seed):
    """numpy's PCG64 `Generator` seeded by `seed`, an integer in [0, 2**64).

    A generator advances as it draws, so it has one owner: share seeds,
    not generators.
    """
    seed = _integral(seed, "seed")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return np.random.Generator(np.random.PCG64(seed))
