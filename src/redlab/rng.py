"""Deterministic random sampling.

All randomness in the package flows through :class:`RngState`, a thin
single-owner wrapper around numpy's seeded PCG64 generator and samplers.
Identical seed and family give an identical sample stream within one build;
bit compatibility across numpy versions or platforms is not promised.

The package's argument checks live here too, one helper per kind of
argument; each takes values of integer or float kind only (`_is_real`).
"""

import sys

import numpy as np

_FAMILY = "pcg64"


def _is_real(value):
    """Whether `value` is of integer or float kind: a Python or numpy int or
    float, or an array of them; not a bool, complex number, string or object."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.dtype.kind in "iuf"
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integral(value, name="count"):
    """`value` as an int; a non-integral value is an error, not truncated."""
    try:
        n = int(value) if _is_real(value) else None
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return n


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


class RngState:
    """Seeded uniform sample stream.

    Drawing advances the stream, so a state instance is single-owner:
    share seeds, not states.
    """

    def __init__(self, seed):
        seed = _integral(seed, "seed")
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        self.seed = seed
        self.family = _FAMILY
        self._gen = np.random.Generator(np.random.PCG64(seed))

    def uniform(self, count):
        """Return `count` samples uniform on [0, 1)."""
        count = _integral(count)
        if count < 0:
            raise ValueError("count must be non-negative")
        return self._gen.random(count)

    def __repr__(self):
        return f"RngState(seed={self.seed}, family={self.family!r})"


def gaussian_samples(rng, count):
    """Draw `count` standard-normal samples from `rng`'s stream with numpy's
    own sampler; the stream is deterministic per seed.  `count` must be an
    integer >= 1.
    """
    count = _integral(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    return rng._gen.standard_normal(count)
