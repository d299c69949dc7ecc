"""Seeded sampling: the one seeded generator, numpy's own samplers,
Gaussian statistics, and the seed rule."""

import tracemalloc

import numpy as np
import pytest

from redlab.rng import _generator


def test_same_seed_same_stream():
    a = _generator(123).random(50)
    b = _generator(123).random(50)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = _generator(1).random(50)
    b = _generator(2).random(50)
    assert not np.array_equal(a, b)


def test_uniform_range():
    u = _generator(7).random(10_000)
    assert u.min() >= 0.0
    assert u.max() < 1.0


def test_seed_validation():
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match="seed must fit in an unsigned 64-bit integer"):
            _generator(bad)
    # Boundary values are fine.
    _generator(0)
    _generator(2**64 - 1)
    # int() would truncate a non-integral seed: 2.5 would seed with 2.  numpy
    # itself would take True as the seed 1.
    for bad in (2.5, np.float64(7.1), "3", None, True, np.bool_(True)):
        with pytest.raises(ValueError, match="seed must be an integer"):
            _generator(bad)
    for good in (3.0, np.int64(3), np.uint8(3)):
        assert np.array_equal(_generator(good).random(4), _generator(3).random(4))


def test_gaussian_determinism():
    a = _generator(5).standard_normal(10)
    b = _generator(5).standard_normal(10)
    assert np.array_equal(a, b)


def test_gaussian_moments():
    # Law-of-large-numbers check at one million samples.
    s = _generator(31).standard_normal(1_000_000)
    assert abs(s.mean()) < 0.01
    assert abs(s.var() - 1.0) < 0.01


def test_gaussian_is_numpys_standard_normal():
    # The bits of numpy's own sampler on the same PCG64 stream, which ends
    # at the same point.
    for count in (1, 2, 3, 4, 5, 131_071, 131_072, 131_073, 262_145, 1_000_001, 410 * 4096):
        rng = _generator(11)
        got = rng.standard_normal(count)
        ref_gen = np.random.Generator(np.random.PCG64(11))
        want = ref_gen.standard_normal(count)
        assert got.shape == (count,)
        assert np.array_equal(got, want)
        assert np.array_equal(rng.random(4), ref_gen.random(4))


def test_gaussian_draw_holds_one_full_size_array():
    # Besides its result, the draw holds no temporary over 64 KiB.
    for count in (131_073, 410 * 4096):
        rng = _generator(77)
        tracemalloc.start()
        try:
            rng.standard_normal(count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 8 * count <= 64 * 1024


def test_gaussian_finite():
    s = _generator(2).standard_normal(100_000)
    assert np.all(np.isfinite(s))
