"""Seeded sampling: determinism, numpy's own samplers, Gaussian statistics, validation."""

import tracemalloc

import numpy as np
import pytest

from redlab import RngState, gaussian_samples


def test_same_seed_same_stream():
    a = RngState(123).uniform(50)
    b = RngState(123).uniform(50)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = RngState(1).uniform(50)
    b = RngState(2).uniform(50)
    assert not np.array_equal(a, b)


def test_uniform_range():
    u = RngState(7).uniform(10_000)
    assert u.min() >= 0.0
    assert u.max() < 1.0


def test_seed_validation():
    with pytest.raises(ValueError):
        RngState(-1)
    with pytest.raises(ValueError):
        RngState(2**64)
    # Boundary values are fine.
    RngState(0)
    RngState(2**64 - 1)
    # int() would truncate a non-integral seed: 2.5 would seed with 2.
    for bad in (2.5, np.float64(7.1), "3", None):
        with pytest.raises(ValueError, match="integer"):
            RngState(bad)
    for good in (3.0, np.int64(3), np.uint8(3)):
        assert RngState(good).seed == 3
        assert np.array_equal(RngState(good).uniform(4), RngState(3).uniform(4))


def test_repr_mentions_seed_and_family():
    r = repr(RngState(42))
    assert "42" in r
    assert "pcg64" in r


def test_gaussian_determinism():
    a = gaussian_samples(RngState(5), 10)
    b = gaussian_samples(RngState(5), 10)
    assert np.array_equal(a, b)


def test_gaussian_moments():
    # Law-of-large-numbers check at one million samples.
    s = gaussian_samples(RngState(31), 1_000_000)
    assert abs(s.mean()) < 0.01
    assert abs(s.var() - 1.0) < 0.01


def test_gaussian_count_validation():
    with pytest.raises(ValueError):
        gaussian_samples(RngState(0), 0)
    with pytest.raises(ValueError):
        gaussian_samples(RngState(0), -3)


def test_non_integral_counts_are_rejected():
    # int() would truncate these silently: 2.7 samples would give 2.
    for bad in (2.7, 3.9, 0.5, np.float64(4.2)):
        with pytest.raises(ValueError, match="integer"):
            gaussian_samples(RngState(0), bad)
        with pytest.raises(ValueError, match="integer"):
            RngState(0).uniform(bad)
    # Integral values of any numeric type are fine.
    for good in (3, 3.0, np.int32(3), np.int64(3), np.uint64(3)):
        assert gaussian_samples(RngState(0), good).shape == (3,)
        assert RngState(0).uniform(good).shape == (3,)


def test_gaussian_is_numpys_standard_normal():
    # The bits of numpy's own sampler on the same PCG64 stream, which ends
    # at the same point.
    for count in (1, 2, 3, 4, 5, 131_071, 131_072, 131_073, 262_145, 1_000_001, 410 * 4096):
        rng = RngState(11)
        got = gaussian_samples(rng, count)
        ref_gen = np.random.Generator(np.random.PCG64(11))
        want = ref_gen.standard_normal(count)
        assert got.shape == (count,)
        assert np.array_equal(got, want)
        assert np.array_equal(rng.uniform(4), ref_gen.random(4))


def test_gaussian_draw_holds_one_full_size_array():
    # Besides its result, the draw holds no temporary over 64 KiB.
    for count in (131_073, 410 * 4096):
        rng = RngState(77)
        tracemalloc.start()
        try:
            gaussian_samples(rng, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 8 * count <= 64 * 1024


def test_gaussian_finite():
    s = gaussian_samples(RngState(2), 100_000)
    assert np.all(np.isfinite(s))
