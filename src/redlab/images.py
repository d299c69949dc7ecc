"""Image containers, periodic convolution, orthonormal DCT, and test images.

Repeated periodic convolution with a separable (rank-1) kernel is two
small GEMMs with circulant matrices; any other kernel goes through real
FFTs.  Direct summation over shifted runs of one wrap-padded copy
(_periodic_conv) serves the texture image and the convnet denoiser; it
sums in scipy.signal.convolve2d's order, so its bits are convolve2d's for
kernels up to 7x7, without importing scipy.signal.

Images are stored as flat row-major float64 vectors with explicit 2D shape
metadata.  Pixel values are nominally in [0, 1] but are never clipped here;
clipping happens only at image export so that diverging solver iterates
remain representable.
"""

import functools

import numpy as np
from scipy.fft import dctn, idctn, irfft2, rfft2
from scipy.linalg import circulant

from .rng import RngState, gaussian_samples


class ImageGrid:
    """A real-valued image: flat row-major vector plus (height, width).

    The value buffer is frozen after construction.  All values must be
    finite.
    """

    def __init__(self, height, width, values):
        height = int(height)
        width = int(width)
        if height < 1 or width < 1:
            raise ValueError("image dimensions must be positive")
        values = np.asarray(values, dtype=np.float64).reshape(-1).copy()
        if values.size != height * width:
            raise ValueError(
                f"expected {height * width} values for {height}x{width}, got {values.size}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("image values must be finite")
        values.flags.writeable = False
        self.height = height
        self.width = width
        self.values = values

    @classmethod
    def from_2d(cls, arr):
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("expected a 2D array")
        return cls(arr.shape[0], arr.shape[1], arr.reshape(-1))

    @property
    def shape(self):
        return (self.height, self.width)

    @property
    def n(self):
        return self.height * self.width

    def as_2d(self):
        """Read-only (height, width) view of the values."""
        return self.values.reshape(self.height, self.width)

    def __repr__(self):
        return f"ImageGrid({self.height}x{self.width})"


class Kernel2D:
    """Square convolution kernel of odd size, stored row-major."""

    def __init__(self, size, weights):
        size = int(size)
        if size < 1 or size % 2 == 0:
            raise ValueError("kernel size must be odd and positive")
        weights = np.asarray(weights, dtype=np.float64).reshape(-1).copy()
        if weights.size != size * size:
            raise ValueError(f"expected {size * size} weights, got {weights.size}")
        if not np.all(np.isfinite(weights)):
            raise ValueError("kernel weights must be finite")
        weights.flags.writeable = False
        self.size = size
        self.weights = weights

    def as_2d(self):
        return self.weights.reshape(self.size, self.size)

    def __repr__(self):
        return f"Kernel2D(size={self.size})"


def gaussian_kernel(size, sigma):
    """Normalized truncated-Gaussian blur kernel of odd `size`."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    size = int(size)
    if size % 2 == 0 or size < 1:
        raise ValueError("kernel size must be odd and positive")
    r = size // 2
    yy, xx = np.mgrid[-r : r + 1, -r : r + 1]
    w = np.exp(-(xx**2 + yy**2) / (2.0 * sigma**2))
    return Kernel2D(size, (w / w.sum()).reshape(-1))


def _periodic_conv(stack, taps):
    """Periodic convolution of each (h, w) plane of `stack` with the matching
    k x k plane of `taps` (k odd, k // 2 <= min(h, w)), leading axes
    broadcast: out[p] = sum_d taps[c + d] * plane[(p - d) mod (h, w)].

    k^2 multiply-adds over one wrap-padded copy with rows of w + 2r
    (r = k // 2) and a spare zero row: the plane shifted by tap (a, b) is
    the contiguous run from (2r - a) (w + 2r) + 2r - b of h rows, the last
    2r of each row being discarded.  Products are summed in
    scipy.signal.convolve2d's order (rows ascending into a total from zero;
    a row of 4 or more taps adds ((t0 + t1) + t2) + t3, then the rest one
    at a time), so for k <= 7 the bits are those of convolve2d(mode="same",
    boundary="wrap").  From k = 9 on convolve2d sums in another order, and
    the two agree to roundoff.
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
    # Rows of 4 or more taps sum their first four products into a partial.
    part = np.empty(shape) if k > 3 else None
    for a in range(k):
        for b in range(k):
            start = (2 * r - a) * wp + 2 * r - b
            prod = part if part is not None and b == 0 else tmp
            np.multiply(taps[..., a, b, None], flat[..., start : start + size], out=prod)
            if part is None or b > 3:
                out += tmp
            elif b > 0:
                part += tmp
                if b == 3:
                    out += part
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
    return circulant(col)


class CyclicConvolver:
    """Repeated periodic convolution with one kernel, set up once.

    A kernel of numerical rank 1, such as every Gaussian blur, is an outer
    product a b^T of two 1-D kernels, so convolving X with it is C_a X C_b^T
    with the h x h and w x w circulant matrices of a and b: two small GEMMs
    per apply.  Any other kernel, and an image too large for dense
    circulants, goes through the cached DFT khat of the kernel embedded on
    the image grid: two real FFTs per apply.  On either path the adjoint is
    convolution with the 180-degree rotated kernel, and the gram
    apply_adjoint(apply(.)) is one pass: (C_a^T C_a) X (C_b^T C_b), or one
    round trip through the real gain |khat|^2.  Matches direct summation
    (_periodic_conv) to roundoff.
    """

    def __init__(self, shape, kernel):
        h, w = int(shape[0]), int(shape[1])
        if kernel.size > min(h, w):
            raise ValueError(
                f"kernel size {kernel.size} exceeds image extent {h}x{w}"
            )
        self.shape = (h, w)
        self._kernel = kernel
        factors = None
        if h + w <= _MAX_CIRCULANT_EXTENT_SUM:
            factors = _rank_one_factors(kernel.as_2d())
        if factors is None:
            self._circulants = None
            self._khat = rfft2(self._embedded())
            self._khat_conj = np.conj(self._khat)
            self._gain_sq = np.abs(self._khat) ** 2
        else:
            self._circulants = (_circulant(factors[0], h), _circulant(factors[1], w))

    def _embedded(self):
        """The centered kernel wrapped onto the image grid."""
        h, w = self.shape
        r = self._kernel.size // 2
        offsets = np.arange(-r, r + 1)
        embed = np.zeros((h, w))
        np.add.at(embed, (offsets[:, None] % h, offsets % w), self._kernel.as_2d())
        return embed

    @functools.cached_property
    def _gram_circulants(self):
        # Built on first use: a denoiser never asks for its gram.
        c_h, c_w = self._circulants
        return c_h.T @ c_h, c_w.T @ c_w

    def apply(self, arr):
        if self._circulants is None:
            return irfft2(rfft2(arr) * self._khat, s=self.shape)
        c_h, c_w = self._circulants
        return c_h @ arr @ c_w.T

    def apply_adjoint(self, arr):
        if self._circulants is None:
            return irfft2(rfft2(arr) * self._khat_conj, s=self.shape)
        c_h, c_w = self._circulants
        return c_h.T @ arr @ c_w

    def apply_gram(self, arr):
        """apply_adjoint(apply(arr)) in one pass."""
        if self._circulants is None:
            return irfft2(rfft2(arr) * self._gain_sq, s=self.shape)
        g_h, g_w = self._gram_circulants
        return g_h @ arr @ g_w

    def max_gain_sq(self):
        """Largest |khat|^2, the squared spectral norm of the convolution.

        Computed from the 2-D spectrum on either path, so the value does not
        depend on the path.  The half spectrum suffices: a real kernel's DFT
        is conjugate symmetric.
        """
        return float(np.max(np.abs(rfft2(self._embedded())) ** 2))


def dct2_vals(arr):
    """Orthonormal 2D DCT on a raw 2D array (denoiser internals)."""
    return dctn(arr, type=2, norm="ortho")


def idct2_vals(arr):
    return idctn(arr, type=2, norm="ortho")


TEST_IMAGE_NAMES = ("phantom", "ramp", "sinusoid", "checkerboard", "texture", "blocks")


def _phantom(h, w):
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


def _ramp(h, w):
    col = np.arange(w) / (w - 1)
    return np.tile(col, (h, 1))


def _sinusoid(h, w):
    yy, xx = np.mgrid[0:h, 0:w]
    return 0.5 + 0.25 * np.sin(2.0 * np.pi * 3.0 * xx / w) + 0.25 * np.sin(
        2.0 * np.pi * 2.0 * yy / h
    )


def _checkerboard(h, w):
    cell = max(2, min(h, w) // 8)
    yy, xx = np.mgrid[0:h, 0:w]
    return (((yy // cell) + (xx // cell)) % 2).astype(np.float64)


def _texture(h, w, rng):
    noise = gaussian_samples(rng, h * w).reshape(h, w)
    k = gaussian_kernel(7, 1.2)
    smooth = _periodic_conv(noise, k.as_2d())
    lo, hi = smooth.min(), smooth.max()
    if hi == lo:
        return np.full((h, w), 0.5)
    return (smooth - lo) / (hi - lo)


def _blocks(h, w, rng):
    rows = 4
    cols = 4
    levels = rng.uniform(rows * cols)
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
    "phantom": lambda h, w, _rng: _phantom(h, w),
    "ramp": lambda h, w, _rng: _ramp(h, w),
    "sinusoid": lambda h, w, _rng: _sinusoid(h, w),
    "checkerboard": lambda h, w, _rng: _checkerboard(h, w),
    "texture": _texture,
    "blocks": _blocks,
}


def named_test_image(name, seed, shape):
    """One of the six synthetic test images (TEST_IMAGE_NAMES), values in [0, 1].

    Texture and blocks read one stream seeded by `seed`, texture's draw
    first; the other four do not depend on the seed.
    """
    if name not in TEST_IMAGE_NAMES:
        raise ValueError(f"unknown test image {name!r}; valid: {TEST_IMAGE_NAMES}")
    h, w = int(shape[0]), int(shape[1])
    if h < 32 or w < 32:
        raise ValueError("test image shape must be at least 32x32")
    rng = RngState(seed)
    if name == "blocks":
        # Skip the uniforms the texture's Gaussian draw takes first: two per
        # pair of samples.
        rng.uniform(2 * ((h * w + 1) // 2))
    return ImageGrid.from_2d(_TEST_IMAGE_BUILDERS[name](h, w, rng))
