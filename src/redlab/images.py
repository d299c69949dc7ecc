"""Periodic convolution, the orthonormal DCT matrix, and test images.

Repeated periodic convolution with one kernel (CyclicConvolver: the blur,
the smoother and the texture image) is two small GEMMs with circulant
matrices for a separable (rank-1) kernel; any other kernel goes through
real FFTs.  The orthonormal 2-D DCT-II is two GEMMs with the cosine matrix,
in the same form.  Direct summation over shifted runs of one wrap-padded
copy (_periodic_conv) serves the convnet denoiser's stacks of 3x3 kernels.
Everything here is numpy alone.

Images and kernels are plain float64 arrays of shape (h, w) and (k, k);
operators and denoisers work on their flat row-major vectors.  Pixel
values are nominally in [0, 1] but are never clipped here; clipping
happens only at image export so that diverging solver iterates remain
representable.
"""

import functools

import numpy as np

from .rng import _floats, _generator, _integral, _positive, _shape


def gaussian_kernel(size, sigma):
    """Normalized truncated-Gaussian blur kernel: a read-only (size, size)
    array, `size` odd."""
    sigma = _positive(sigma, "sigma")
    size = _integral(size, "kernel size")
    if size % 2 == 0 or size < 1:
        raise ValueError("kernel size must be odd and positive")
    # 2.0 * sigma**2 to the bit, without its OverflowError; 0 would make
    # the weights 0/0, and inf a box rather than a Gaussian.
    two_var = 2.0 * sigma * sigma
    if two_var in (0.0, np.inf):
        raise ValueError(f"sigma {sigma!r} is out of range: 2 sigma^2 is not a positive float")
    r = size // 2
    yy, xx = np.mgrid[-r : r + 1, -r : r + 1]
    w = np.exp(-(xx**2 + yy**2) / two_var)
    w /= w.sum()
    w.flags.writeable = False
    return w


def _periodic_conv(stack, taps):
    """Periodic convolution of each (h, w) plane of `stack` with the matching
    k x k plane of `taps` (k odd, k // 2 <= min(h, w)), leading axes
    broadcast: out[p] = sum_d taps[c + d] * plane[(p - d) mod (h, w)].

    k^2 multiply-adds over one wrap-padded copy with rows of w + 2r
    (r = k // 2) and a spare zero row: the plane shifted by tap (a, b) is
    the contiguous run from (2r - a) (w + 2r) + 2r - b of h rows, the last
    2r of each row being discarded.  Each product is added, row-major by
    tap, into a total from zero; for k <= 3 that is the order of
    scipy.signal.convolve2d(mode="same", boundary="wrap"), whose bits it
    then has.
    """
    h, w = stack.shape[-2:]
    k = taps.shape[-1]
    r = k // 2
    if r > min(h, w):
        raise ValueError(f"kernel size {k} is too large for a {h}x{w} image")
    lead = stack.shape[:-2]
    wp = w + 2 * r
    hp = h + 2 * r
    buf = np.empty(lead + (hp + 1, wp))
    buf[..., r : r + h, r : r + w] = stack
    buf[..., :r, r : r + w] = stack[..., h - r :, :]
    buf[..., r + h : hp, r : r + w] = stack[..., :r, :]
    buf[..., :hp, :r] = buf[..., :hp, w : w + r]
    buf[..., :hp, r + w :] = buf[..., :hp, r : 2 * r]
    buf[..., hp, :] = 0.0
    flat = buf.reshape(lead + (-1,))
    size = h * wp
    shape = np.broadcast_shapes(lead, taps.shape[:-2]) + (size,)
    out = np.zeros(shape)
    tmp = np.empty(shape)
    for a in range(k):
        for b in range(k):
            start = (2 * r - a) * wp + 2 * r - b
            np.multiply(taps[..., a, b, None], flat[..., start : start + size], out=tmp)
            out += tmp
    return out.reshape(shape[:-1] + (h, wp))[..., :w]


# Two GEMMs with dense circulants cost 2 (h + w) flops per pixel and hold
# h^2 + w^2 doubles; an FFT round trip costs a few log2(h w) flops per pixel.
# On a 2-core Xeon VM with OpenBLAS on one thread, the GEMMs were faster
# through 128x128 and at 32x224, about even at 160x160, and slower from
# 192x192 on (on two threads, from 256x256 on).
_MAX_CIRCULANT_EXTENT_SUM = 256


def _rank_one_factors(k2):
    """(column, row) factors with k2 == outer(column, row), or None.

    Rank is counted as np.linalg.matrix_rank does, with its default
    tolerance, from the one SVD that also gives the factors.
    """
    u, s, vt = np.linalg.svd(k2)
    if np.count_nonzero(s > s[0] * max(k2.shape) * np.finfo(k2.dtype).eps) != 1:
        return None
    return u[:, 0] * s[0], vt[0]


def _circulant(factor, n):
    """n x n matrix of periodic convolution with a centered odd 1-D kernel."""
    r = factor.size // 2
    col = np.zeros(n)
    col[np.arange(-r, r + 1) % n] = factor
    # The gather scipy.linalg.circulant makes: entry (i, j) is col[i - j].
    return col[(np.arange(n)[:, None] - np.arange(n)) % n]


def _dct_matrix(n):
    """Orthonormal DCT-II matrix, C[k, j] = s_k cos(pi k (2j + 1) / 2n) with
    s_0 = sqrt(1/n) and s_k = sqrt(2/n); k (2j + 1) is reduced mod 4n first.
    The 2-D transform of X is C_h X C_w^T, and its inverse C_h^T X C_w."""
    k = np.arange(n)
    c = np.cos(np.pi / (2 * n) * (k[:, None] * (2 * k + 1) % (4 * n)))
    c *= np.sqrt(2.0 / n)
    c[0] = np.sqrt(1.0 / n)
    return c


class CyclicConvolver:
    """Repeated periodic convolution with one kernel, set up once.

    A kernel of numerical rank 1, such as every Gaussian blur, is an outer
    product a b^T of two 1-D kernels, so convolving X with it is C_a X C_b^T
    with the h x h and w x w circulant matrices of a and b: two small GEMMs.
    Any other kernel, and an image too large for dense circulants, goes
    through the DFT khat of the kernel embedded on the image grid: two real
    FFTs.  The path is chosen here, once, and each of the three maps is kept
    as data for it: `forward`, the convolution; `adjoint`, convolution with
    the 180-degree rotated kernel; and `gram`, adjoint after forward in one
    pass.  On the GEMM path a map is a (left, right) pair of circulants,
    (C_a, C_b^T), (C_a^T, C_b) and (C_a^T C_a, C_b^T C_b); on the FFT path a
    spectral multiplier, khat, its conjugate and |khat|^2.  `run` applies
    any of them.  Matches direct summation (_periodic_conv) to roundoff.
    """

    def __init__(self, shape, kernel):
        h, w = _shape(shape)
        kernel = _floats(kernel, "kernel").copy()
        if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1] or kernel.shape[0] % 2 == 0:
            raise ValueError(f"kernel must be square of odd size, got shape {kernel.shape}")
        k = kernel.shape[0]
        if not np.all(np.isfinite(kernel)):
            raise ValueError("kernel weights must be finite")
        if k > min(h, w):
            raise ValueError(f"kernel size {k} exceeds image extent {h}x{w}")
        kernel.flags.writeable = False
        self.shape = (h, w)
        # A frozen copy: the caller's array may change, this one may not.
        self.kernel = kernel
        factors = None
        if h + w <= _MAX_CIRCULANT_EXTENT_SUM:
            factors = _rank_one_factors(kernel)
        self._gemm = factors is not None
        if self._gemm:
            c_h, c_w = _circulant(factors[0], h), _circulant(factors[1], w)
            self.forward, self.adjoint = (c_h, c_w.T), (c_h.T, c_w)
        else:
            khat = np.fft.rfft2(self._embedded())
            self.forward, self.adjoint, self.gram = khat, np.conj(khat), np.abs(khat) ** 2

    def _embedded(self):
        """The centered kernel wrapped onto the image grid."""
        h, w = self.shape
        r = self.kernel.shape[0] // 2
        offsets = np.arange(-r, r + 1)
        embed = np.zeros((h, w))
        np.add.at(embed, (offsets[:, None] % h, offsets % w), self.kernel)
        return embed

    @functools.cached_property
    def gram(self):
        # The GEMM path's pair, built on first use: a denoiser never asks for
        # it.  The FFT path sets its multiplier in __init__.
        left, right = self.adjoint
        return left @ left.T, right.T @ right

    def run(self, vec, linear_map):
        """`linear_map` (forward, adjoint or gram) applied to the flat image
        `vec`, as a flat vector."""
        arr = vec.reshape(self.shape)
        if self._gemm:
            left, right = linear_map
            out = left @ arr @ right
        else:
            out = np.fft.irfft2(np.fft.rfft2(arr) * linear_map, s=self.shape)
        return out.reshape(-1)

    def max_gain_sq(self):
        """Largest |khat|^2, the squared spectral norm of the convolution.

        Computed from the 2-D spectrum on either path, so the value does not
        depend on the path.  The half spectrum suffices: a real kernel's DFT
        is conjugate symmetric.
        """
        return float(np.max(np.abs(np.fft.rfft2(self._embedded())) ** 2))


def _phantom(h, w, _rng):
    # A few overlapping ellipses at distinct gray levels.
    yy, xx = np.mgrid[0:h, 0:w]
    y = (yy - (h - 1) / 2.0) / (h / 2.0)
    x = (xx - (w - 1) / 2.0) / (w / 2.0)
    img = np.zeros((h, w))
    # (cx, cy, a, b, level) in normalized coordinates; later entries overwrite.
    ellipses = [
        (0.0, 0.0, 0.75, 0.9, 0.8),
        (0.0, 0.05, 0.6, 0.75, 0.35),
        (-0.25, -0.15, 0.2, 0.3, 0.65),
        (0.25, -0.15, 0.2, 0.3, 0.1),
        (0.0, 0.35, 0.15, 0.2, 1.0),
        (0.0, -0.45, 0.08, 0.1, 0.9),
    ]
    for cx, cy, a, b, level in ellipses:
        mask = ((x - cx) / a) ** 2 + ((y - cy) / b) ** 2 <= 1.0
        img[mask] = level
    return img


def _ramp(h, w, _rng):
    col = np.arange(w) / (w - 1)
    return np.tile(col, (h, 1))


def _sinusoid(h, w, _rng):
    yy, xx = np.mgrid[0:h, 0:w]
    return 0.5 + 0.25 * np.sin(2.0 * np.pi * 3.0 * xx / w) + 0.25 * np.sin(
        2.0 * np.pi * 2.0 * yy / h
    )


def _checkerboard(h, w, _rng):
    cell = max(2, min(h, w) // 8)
    yy, xx = np.mgrid[0:h, 0:w]
    return (((yy // cell) + (xx // cell)) % 2).astype(np.float64)


def _texture(h, w, rng):
    conv = CyclicConvolver((h, w), gaussian_kernel(7, 1.2))
    smooth = conv.run(rng.standard_normal(h * w), conv.forward).reshape(h, w)
    lo, hi = smooth.min(), smooth.max()
    if hi == lo:
        return np.full((h, w), 0.5)
    return (smooth - lo) / (hi - lo)


def _blocks(h, w, rng):
    rows = 4
    cols = 4
    levels = rng.random(rows * cols)
    img = np.zeros((h, w))
    for i in range(rows):
        for j in range(cols):
            r0 = i * h // rows
            r1 = (i + 1) * h // rows
            c0 = j * w // cols
            c1 = (j + 1) * w // cols
            img[r0:r1, c0:c1] = levels[i * cols + j]
    return img


# Builders by name, each called as (h, w, rng); only texture and blocks draw.
_TEST_IMAGE_BUILDERS = {
    "phantom": _phantom,
    "ramp": _ramp,
    "sinusoid": _sinusoid,
    "checkerboard": _checkerboard,
    "texture": _texture,
    "blocks": _blocks,
}
TEST_IMAGE_NAMES = tuple(_TEST_IMAGE_BUILDERS)
# The smallest height and width a test image is drawn at.
MIN_TEST_IMAGE_EXTENT = 32


def named_test_image(name, seed, shape):
    """One of the six synthetic test images (TEST_IMAGE_NAMES): a read-only
    (h, w) array with values in [0, 1].

    Texture and blocks read one stream seeded by `seed`, texture's draw
    first; the other four do not depend on the seed.
    """
    if name not in TEST_IMAGE_NAMES:
        raise ValueError(f"unknown test image {name!r}; valid: {TEST_IMAGE_NAMES}")
    h, w = _shape(shape)
    if min(h, w) < MIN_TEST_IMAGE_EXTENT:
        raise ValueError(f"test image sides must be at least {MIN_TEST_IMAGE_EXTENT}")
    rng = _generator(seed)
    if name == "blocks":
        # Step past the texture's draw, which comes first in the stream.
        rng.standard_normal(h * w)
    img = _TEST_IMAGE_BUILDERS[name](h, w, rng)
    img.flags.writeable = False
    return img
