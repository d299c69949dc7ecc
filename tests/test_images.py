"""Kernel checks, periodic convolution, DCT, synthetic images.

The convolution oracles are a direct O(n*k^2) double loop written here from
the definition and scipy.signal.convolve2d, both independent of the
production code path.
"""

import numpy as np
import pytest
from scipy.fft import dctn, idctn

from redlab import (
    DeblurOperator,
    TEST_IMAGE_NAMES,
    gaussian_kernel,
    named_test_image,
)
from redlab import images
from redlab.images import (
    _TEST_IMAGE_BUILDERS,
    CyclicConvolver,
    _dct_matrix,
    _periodic_conv,
)

from conv_reference import convolve2d_wrap


def dct2_vals(arr):
    """Orthonormal 2-D DCT-II as the DCT denoiser computes it."""
    return _dct_matrix(arr.shape[0]) @ arr @ _dct_matrix(arr.shape[1]).T


def idct2_vals(coeffs):
    return _dct_matrix(coeffs.shape[0]).T @ coeffs @ _dct_matrix(coeffs.shape[1])


def conv_oracle(arr, kern):
    """out[p] = sum_d kern[c+d] * arr[(p-d) mod shape], by definition."""
    h, w = arr.shape
    k = kern.shape[0]
    r = k // 2
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for di in range(-r, r + 1):
                for dj in range(-r, r + 1):
                    acc += kern[r + di, r + dj] * arr[(i - di) % h, (j - dj) % w]
            out[i, j] = acc
    return out


def rand_image(seed, h, w):
    return np.random.default_rng(seed).standard_normal(h * w).reshape(h, w)


# ------------------------------------------------------------------- kernels


def test_kernel_validation():
    # The convolver checks every kernel, so the deblur operator, which
    # builds through it, rejects the same ones.
    bad = [
        np.zeros((2, 2)),  # even size
        np.zeros((3, 5)),  # not square
        np.zeros(9),  # not 2-D
        np.zeros((0, 0)),
        np.array([[0.0, 0.0, 0.0], [0.0, np.nan, 0.0], [0.0, 0.0, 0.0]]),
        np.full((3, 3), np.inf),
    ]
    for kern in bad:
        with pytest.raises(ValueError):
            CyclicConvolver((8, 8), kern)
        with pytest.raises(ValueError):
            DeblurOperator((8, 8), kern)
    # The convolver keeps a frozen copy: the caller's array may change.
    kern = np.arange(9.0).reshape(3, 3)
    conv = CyclicConvolver((8, 8), kern)
    kern[1, 1] = -1.0
    assert conv.kernel[1, 1] == 4.0
    assert not conv.kernel.flags.writeable


def test_images_and_kernels_are_read_only():
    arrays = [gaussian_kernel(5, 1.0)]
    arrays += [named_test_image(name, 7, (32, 32)) for name in TEST_IMAGE_NAMES]
    for arr in arrays:
        assert arr.dtype == np.float64 and arr.ndim == 2
        with pytest.raises(ValueError):
            arr[0, 0] = 0.5


def test_gaussian_kernel_normalized():
    k = gaussian_kernel(17, 2.0)
    assert k.shape == (17, 17)
    assert np.all(k >= 0.0)
    assert abs(k.sum() - 1.0) <= 1e-12
    # Symmetric in both axes.
    assert np.allclose(k, k[::-1, ::-1], atol=0)
    with pytest.raises(ValueError):
        gaussian_kernel(4, 1.0)
    with pytest.raises(ValueError):
        gaussian_kernel(3, 0.0)


def test_gaussian_kernel_rejects_a_sigma_whose_weights_are_not_finite():
    # 2 sigma^2 underflows to 0 (weights 0/0) or overflows (an OverflowError
    # from sigma**2); in between, the weights keep the bits of the formula.
    for sigma in (1e-300, 1e-162, 1e155, 1e300):
        with pytest.raises(ValueError, match="out of range"):
            gaussian_kernel(5, sigma)
    for size, sigma in ((3, 0.6), (7, 1.2), (17, 2.0), (5, 1e-150), (5, 1e150)):
        r = size // 2
        yy, xx = np.mgrid[-r : r + 1, -r : r + 1]
        want = np.exp(-(xx**2 + yy**2) / (2.0 * sigma**2))
        want /= want.sum()
        assert np.array_equal(gaussian_kernel(size, sigma), want)


# --------------------------------------------------------------- convolution


def both_paths(shape, kern):
    """CyclicConvolvers of a rank-1 `kern` on its circulant and FFT paths."""
    circulant = CyclicConvolver(shape, kern)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(images, "_MAX_CIRCULANT_EXTENT_SUM", 0)
        fft = CyclicConvolver(shape, kern)
    assert circulant._circulants is not None and fft._circulants is None
    return circulant, fft


def test_conv_constant_image_preserved():
    for conv in both_paths((8, 8), gaussian_kernel(5, 1.0)):
        assert np.allclose(conv.apply(np.full((8, 8), 0.37)), 0.37, atol=1e-14)


def test_conv_impulse_response():
    # A centered delta stamps the kernel weights around the center; the
    # separable kernel is not symmetric, and the other one is not separable.
    arr = np.zeros((7, 7))
    arr[3, 3] = 1.0
    separable = np.outer([1.0, 2.0, 3.0], [1.0, 4.0, 2.0]) / 42.0
    rank_two = np.arange(1.0, 10.0).reshape(3, 3) / 45.0
    convs = [(c, separable) for c in both_paths((7, 7), separable)]
    convs.append((CyclicConvolver((7, 7), rank_two), rank_two))
    for conv, k in convs:
        out = conv.apply(arr)
        assert np.allclose(out[2:5, 2:5], k, atol=1e-15)


def test_conv_matches_double_loop_oracle():
    # 4x4 ramp with a uniform 3x3 kernel, plus random cases: separable
    # kernels on both paths, full-rank ones on the FFT path.
    ramp = np.arange(16.0).reshape(4, 4) / 15.0
    uni = np.full((3, 3), 1.0 / 9.0)
    for conv in both_paths((4, 4), uni):
        assert np.allclose(conv.apply(ramp), conv_oracle(ramp, uni), atol=1e-14)

    rng = np.random.default_rng(11)
    for h, w, ks in ((5, 7, 3), (8, 8, 5), (6, 9, 5)):
        arr = rng.standard_normal(h * w).reshape(h, w)
        separable = np.outer(rng.standard_normal(ks), rng.standard_normal(ks))
        full_rank = rng.standard_normal(ks * ks).reshape(ks, ks)
        convs = [(c, separable) for c in both_paths((h, w), separable)]
        convs.append((CyclicConvolver((h, w), full_rank), full_rank))
        for conv, kern in convs:
            assert np.allclose(conv.apply(arr), conv_oracle(arr, kern), atol=1e-12)


def test_conv_linearity():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(36).reshape(6, 6)
    z = rng.standard_normal(36).reshape(6, 6)
    for conv in both_paths((6, 6), gaussian_kernel(3, 0.8)):
        lhs = conv.apply(2.5 * x - 1.25 * z)
        rhs = 2.5 * conv.apply(x) - 1.25 * conv.apply(z)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_conv_adjoint_is_rotated_kernel():
    # <conv_k(x), u> == <x, conv_flip(k)(u)> for random pairs.
    rng = np.random.default_rng(21)
    k = rng.standard_normal(9).reshape(3, 3)
    for _ in range(20):
        x = rng.standard_normal(48).reshape(6, 8)
        u = rng.standard_normal(48).reshape(6, 8)
        lhs = float(np.sum(conv_oracle(x, k) * u))
        rhs = float(np.sum(x * conv_oracle(u, k[::-1, ::-1])))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_periodic_conv_is_bit_equal_to_convolve2d():
    # Up to 3x3, direct summation adds in convolve2d's order and has its
    # bits, on square, non-square and odd shapes.
    rng = np.random.default_rng(50)
    for k in (1, 3):
        for h, w in ((8, 8), (64, 64), (5, 7), (13, 9), (33, 35), (31, 300)):
            arr = rng.standard_normal(h * w).reshape(h, w)
            kern = rng.standard_normal(k * k).reshape(k, k)
            assert np.array_equal(_periodic_conv(arr, kern), convolve2d_wrap(arr, kern))


def test_periodic_conv_broadcasts_stacks_against_tap_stacks():
    rng = np.random.default_rng(51)
    h, w = 9, 12
    # (leading axes of the images, leading axes of the taps)
    cases = [((4,), (4,)), ((), (3,)), ((2, 1), (3,)), ((3,), ())]
    for k in (1, 3):
        for lead, tap_lead in cases:
            stack = rng.standard_normal(2 * 3 * 4 * h * w)[: int(np.prod(lead)) * h * w]
            stack = stack.reshape(lead + (h, w))
            taps = rng.standard_normal(3 * 4 * k * k)[: int(np.prod(tap_lead)) * k * k]
            taps = taps.reshape(tap_lead + (k, k))
            got = _periodic_conv(stack, taps)
            both = np.broadcast_shapes(lead, tap_lead)
            assert got.shape == both + (h, w)
            stack_b = np.broadcast_to(stack, both + (h, w))
            taps_b = np.broadcast_to(taps, both + (k, k))
            for idx in np.ndindex(both):
                assert np.array_equal(got[idx], convolve2d_wrap(stack_b[idx], taps_b[idx]))


def test_periodic_conv_agrees_with_convolve2d_to_roundoff_from_5x5():
    # From k = 5 on convolve2d sums in another order; each output is a sum
    # of k^2 products, so the two differ by at most k^2 eps sum|kern| max|arr|.
    rng = np.random.default_rng(52)
    for k in (5, 7, 9, 11):
        for h, w in ((9, 9), (16, 12), (64, 64)):
            arr = rng.standard_normal(h * w).reshape(h, w)
            kern = rng.standard_normal(k * k).reshape(k, k)
            bound = k * k * np.finfo(float).eps * np.sum(np.abs(kern)) * np.max(np.abs(arr))
            got = _periodic_conv(arr, kern)
            assert np.max(np.abs(got - convolve2d_wrap(arr, kern))) <= bound


def test_periodic_conv_rejects_a_kernel_wider_than_its_wrap():
    with pytest.raises(ValueError):
        _periodic_conv(np.zeros((2, 8)), np.zeros((7, 7)))
    out = _periodic_conv(np.ones((3, 8)), np.full((7, 7), 1.0 / 49))
    assert out.shape == (3, 8) and np.allclose(out, 1.0, atol=1e-15)


def test_conv_kernel_too_large():
    with pytest.raises(ValueError):
        CyclicConvolver((4, 4), gaussian_kernel(5, 1.0))


def test_cyclic_convolver_matches_direct():
    # Both paths must agree with the spatial path to roundoff, including
    # non-square shapes and kernels as wide as the image.
    rng = np.random.default_rng(40)
    # Numerically rank 2: its second singular value, about 1e-8, is far
    # above the rank tolerance, and dropping it would move a convolution by
    # about 1e-8.
    a = np.exp(-0.5 * np.linspace(-2.0, 2.0, 17) ** 2)
    a /= a.sum()
    b = np.cos(np.linspace(0.0, 3.0, 17))
    rank_two = np.outer(a, a) + 1e-9 * np.outer(b, b)
    cases = [
        # Random kernels take the FFT path.
        (8, 8, rng.standard_normal(9).reshape(3, 3), False),
        (6, 10, rng.standard_normal(25).reshape(5, 5), False),
        (9, 9, rng.standard_normal(81).reshape(9, 9), False),
        (16, 12, rng.standard_normal(49).reshape(7, 7), False),
        # Gaussian kernels take the circulant path.
        (8, 8, gaussian_kernel(3, 0.6), True),
        (6, 10, gaussian_kernel(5, 1.2), True),
        (9, 9, gaussian_kernel(9, 2.0), True),
        (16, 12, gaussian_kernel(7, 1.5), True),
        (64, 64, gaussian_kernel(17, 2.0), True),
        # A separable kernel that is neither symmetric nor of equal factors.
        (6, 10, np.outer(rng.standard_normal(5), rng.standard_normal(5)), True),
        (1, 5, gaussian_kernel(1, 1.0), True),
        # Past the size limit of dense circulants, a Gaussian takes the FFT path.
        (8, 250, gaussian_kernel(5, 1.0), False),
        (17, 17, rank_two, False),
    ]
    for h, w, kern, separable in cases:
        conv = CyclicConvolver((h, w), kern)
        assert (conv._circulants is not None) == separable
        scale = np.sum(np.abs(kern))
        for _ in range(3):
            arr = rng.standard_normal(h * w).reshape(h, w)
            direct = convolve2d_wrap(arr, kern)
            assert np.max(np.abs(conv.apply(arr) - direct)) <= 1e-12 * scale
            adj_direct = convolve2d_wrap(arr, kern[::-1, ::-1])
            assert np.max(np.abs(conv.apply_adjoint(arr) - adj_direct)) <= 1e-12 * scale
            gram = conv.apply_adjoint(conv.apply(arr))
            assert np.max(np.abs(conv.apply_gram(arr) - gram)) <= 1e-12 * scale**2


# ----------------------------------------------------------------------- DCT


def test_dct_constant_image_dc_only():
    h, w = 6, 9
    c2 = dct2_vals(np.ones((h, w)))
    assert abs(c2[0, 0] - np.sqrt(h * w)) < 1e-12
    rest = c2.copy()
    rest[0, 0] = 0.0
    assert np.max(np.abs(rest)) < 1e-12


def test_dct_round_trip_and_energy():
    arr = rand_image(17, 8, 8)
    back = idct2_vals(dct2_vals(arr))
    assert np.max(np.abs(back - arr)) < 1e-12
    assert abs(np.linalg.norm(dct2_vals(arr)) - np.linalg.norm(arr)) < 1e-12


def test_dct_matches_basis_projection_oracle():
    # Coefficients are inner products with explicit separable cosine bases.
    h = w = 8
    arr = rand_image(23, h, w)

    def basis_1d(n, k):
        scale = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
        return scale * np.cos(np.pi * (np.arange(n) + 0.5) * k / n)

    oracle = np.zeros((h, w))
    for p in range(h):
        for q in range(w):
            oracle[p, q] = float(np.outer(basis_1d(h, p), basis_1d(w, q)).ravel() @ arr.ravel())
    got = dct2_vals(arr)
    assert np.max(np.abs(got - oracle)) < 1e-10


@pytest.mark.parametrize("shape", [(1, 5), (6, 9), (16, 16), (64, 64), (96, 192), (256, 7)])
def test_dct_matches_scipy(shape):
    for n in shape:
        c = _dct_matrix(n)
        assert np.max(np.abs(c @ c.T - np.eye(n))) < 1e-14
    arr = rand_image(31, *shape)
    c2 = dct2_vals(arr)
    assert np.max(np.abs(c2 - dctn(arr, type=2, norm="ortho"))) < 1e-13
    assert np.max(np.abs(idct2_vals(c2) - idctn(c2, type=2, norm="ortho"))) < 1e-13


def test_dct_orthonormality_preserves_inner_products():
    x = rand_image(4, 8, 8)
    z = rand_image(5, 8, 8)
    lhs = float(np.sum(dct2_vals(x) * dct2_vals(z)))
    rhs = float(x.ravel() @ z.ravel())
    assert abs(lhs - rhs) < 1e-10


# ------------------------------------------------------------ test image set


def test_test_images_basics():
    for name in TEST_IMAGE_NAMES:
        img = named_test_image(name, 1234, (64, 64))
        assert img.shape == (64, 64)
        assert img.min() >= 0.0
        assert img.max() <= 1.0


def test_test_images_deterministic():
    for name in TEST_IMAGE_NAMES:
        a = named_test_image(name, 99, (32, 32))
        b = named_test_image(name, 99, (32, 32))
        assert np.array_equal(a, b)


@pytest.mark.parametrize("seed", [0, 1234])
@pytest.mark.parametrize("shape", [(32, 32), (64, 48), (33, 35)])  # odd h*w too
def test_named_test_image_matches_the_full_set(seed, shape):
    # The full set draws texture and then blocks from one stream; each
    # named image is its entry of that set.
    rng = np.random.default_rng(seed)
    for name in TEST_IMAGE_NAMES:
        full = _TEST_IMAGE_BUILDERS[name](*shape, rng)
        one = named_test_image(name, seed, shape)
        assert one.shape == full.shape
        assert np.array_equal(one, full)


def test_phantom_has_gray_levels():
    ph = named_test_image("phantom", 0, (64, 64))
    assert len(np.unique(ph)) >= 3


def test_ramp_shape():
    arr = named_test_image("ramp", 0, (64, 64))
    # Row-constant: every row equals the first.
    assert np.array_equal(arr, np.tile(arr[0], (64, 1)))
    assert arr.min() == 0.0
    assert arr.max() == 1.0


def test_checkerboard_binary():
    cb = named_test_image("checkerboard", 0, (64, 64))
    assert set(np.unique(cb)) == {0.0, 1.0}


def test_image_names_and_errors():
    assert TEST_IMAGE_NAMES == (
        "phantom",
        "ramp",
        "sinusoid",
        "checkerboard",
        "texture",
        "blocks",
    )
    with pytest.raises(ValueError):
        named_test_image("nope", 0, (32, 32))
    with pytest.raises(ValueError):
        named_test_image("phantom", 0, (16, 64))


def test_texture_is_bit_equal_to_smoothed_noise():
    # The texture is the seed's Gaussian noise smoothed by a 7x7 Gaussian
    # and scaled to [0, 1], bit for bit through CyclicConvolver on each of
    # its paths, and to roundoff by convolve2d.
    kern = gaussian_kernel(7, 1.2)
    for shape in ((64, 64), (96, 192)):
        for seed in (0, 1234, 4242, 2**32 - 1):
            noise = np.random.default_rng(seed).standard_normal(shape[0] * shape[1]).reshape(shape)
            conv = CyclicConvolver(shape, kern)
            assert (conv._circulants is None) == (sum(shape) > 256)
            got = named_test_image("texture", seed, shape)
            smooth = conv.apply(noise)
            lo, hi = smooth.min(), smooth.max()
            assert np.array_equal(got, (smooth - lo) / (hi - lo))
            smooth = convolve2d_wrap(noise, kern)
            lo, hi = smooth.min(), smooth.max()
            assert np.max(np.abs(got - (smooth - lo) / (hi - lo))) <= 1e-14
