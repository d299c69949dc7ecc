"""Seeded sampling: determinism, Box-Muller statistics, validation."""

import tracemalloc

import numpy as np
import pytest

from redlab import RngState, gaussian_samples
from redlab.rng import _CHUNK


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


def test_gaussian_matches_one_shot_box_muller():
    # The chunked, in-place transform gives the bits of the textbook one:
    # all radius uniforms first, then all angle uniforms.
    for count in (
        1, 2, 3, 4, 5, 2 * _CHUNK - 1, 2 * _CHUNK, 2 * _CHUNK + 1, 4 * _CHUNK + 1,
        1_000_001, 410 * 4096,
    ):
        rng = RngState(11)
        got = gaussian_samples(rng, count)
        ref_rng = RngState(11)
        pairs = (count + 1) // 2
        u1 = 1.0 - ref_rng.uniform(pairs)
        u2 = ref_rng.uniform(pairs)
        r = np.sqrt(-2.0 * np.log(u1))
        ang = 2.0 * np.pi * u2
        want = np.empty(2 * pairs)
        want[0::2] = r * np.cos(ang)
        want[1::2] = r * np.sin(ang)
        assert got.shape == (count,)
        assert np.array_equal(got, want[:count])
        # Both leave the stream at the same point.
        assert np.array_equal(rng.uniform(4), ref_rng.uniform(4))


def test_gaussian_draw_holds_one_full_size_array():
    # The radii live in the tail of the result; besides it the draw holds
    # only chunk-sized temporaries (a copy of the chunk's radii, its angles
    # and their cosine or sine).
    for count in (2 * _CHUNK + 1, 410 * 4096):
        rng = RngState(77)
        tracemalloc.start()
        try:
            gaussian_samples(rng, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 8 * count <= 4 * 8 * _CHUNK


def test_gaussian_odd_count():
    # Odd counts drop the last half of the final Box-Muller pair.
    odd = gaussian_samples(RngState(9), 7)
    even = gaussian_samples(RngState(9), 8)
    assert odd.shape == (7,)
    assert np.array_equal(odd, even[:7])


def test_gaussian_finite():
    # 1 - U keeps the log argument strictly positive, so no infinities.
    s = gaussian_samples(RngState(2), 100_000)
    assert np.all(np.isfinite(s))
