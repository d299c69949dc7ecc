"""Denoisers with analytic residual Jacobian products, plus a Lipschitz estimator.

Every denoiser D maps flat vectors of dimension n (`apply`) and exposes
analytic products with the Jacobian of its residual map R(x) = x - D(x):

    residual_vjp(x, v) = (I - J_D(x))^T v
    residual_jvp(x, v) = (I - J_D(x)) v

Every map is differentiable, so both products match finite differences
everywhere.  The family spans certified-nonexpansive (smoothing, DCT
shrinkage) through deliberately expansive (scaled variants, a seeded random
convnet).
"""

from dataclasses import dataclass

import numpy as np

from .images import CyclicConvolver, _dct_matrix, _periodic_conv, gaussian_kernel
from .rng import _generator, _integral, _is_real, _positive, _shape, _vector


class Denoiser:
    """Base class; subclasses set n, and nominal_lipschitz where a closed
    form exists, and implement the maps."""

    n = 0
    nominal_lipschitz = None

    def apply(self, x):
        raise NotImplementedError

    def residual_vjp(self, x, v):
        raise NotImplementedError

    def residual_jvp(self, x, v):
        raise NotImplementedError

    def _check(self, x):
        return _vector(x, self.n, "denoiser input")


class IdentityDenoiser(Denoiser):
    """D(x) = x; the residual map and all its products vanish."""

    nominal_lipschitz = 1.0

    def __init__(self, n):
        n = _integral(n, "dimension")
        if n < 1:
            raise ValueError("dimension must be positive")
        self.n = n

    def apply(self, x):
        return self._check(x).copy()

    def residual_vjp(self, x, v):
        self._check(x)
        self._check(v)
        return np.zeros(self.n)

    # The Jacobian is symmetric, so the two products coincide.
    residual_jvp = residual_vjp


class LinearSmoothingDenoiser(Denoiser):
    """Periodic Gaussian smoothing: D(x) = W x with W symmetric, ||W|| <= 1.

    The kernel is normalized, non-negative, truncated at four standard
    deviations, so its largest DFT magnitude sits at DC and equals one.
    """

    nominal_lipschitz = 1.0

    def __init__(self, shape, sigma):
        sigma = _positive(sigma, "sigma")
        h, w = _shape(shape)
        # Checked before the kernel is built, whose memory grows with sigma^2,
        # and in floats, where int() would overflow on the largest sigma.
        size = 2.0 * np.ceil(4.0 * sigma) + 1.0
        if size > min(h, w):
            raise ValueError(
                f"smoothing kernel size {size:.0f} exceeds image extent {h}x{w}"
            )
        self.shape = (h, w)
        self.sigma = sigma
        self.kernel = gaussian_kernel(int(size), sigma)
        self._conv = CyclicConvolver((h, w), self.kernel)
        self.n = h * w

    def apply(self, x):
        return self._conv.run(self._check(x), self._conv.forward)

    def residual_vjp(self, x, v):
        self._check(x)
        v = self._check(v)
        # Constant symmetric Jacobian W, so the product is v - W v at any x.
        return v - self._conv.run(v, self._conv.forward)

    # The Jacobian is symmetric, so the two products coincide.
    residual_jvp = residual_vjp


def _smoothed_soft_threshold(c, lam, mu):
    """C^2 soft threshold of coefficients c, for 0 < mu < lam; returns
    (values, derivative).

    Outside |c| in (lam - mu, lam + mu) this is the exact soft threshold.
    Inside, the magnitude follows the quartic bridge p(u) = mu*(2w^3 - w^4)
    with w = (u + mu) / (2 mu) and u = |c| - lam, which matches value, slope,
    and curvature at both ends.  The derivative lies in [0, 1].
    """
    u = np.abs(c) - lam
    out = np.zeros_like(c)
    deriv = np.zeros_like(c)
    hi = u >= mu
    mid = (~hi) & (u > -mu)
    out[hi] = np.sign(c[hi]) * u[hi]
    deriv[hi] = 1.0
    w = (u[mid] + mu) / (2.0 * mu)
    out[mid] = np.sign(c[mid]) * mu * (2.0 * w**3 - w**4)
    deriv[mid] = 3.0 * w**2 - 2.0 * w**3
    return out, deriv


class DctSoftThresholdDenoiser(Denoiser):
    """Shrinkage of orthonormal DCT coefficients; diagonal symmetric Jacobian.

    A twice continuously differentiable soft threshold: smoothing_mu must be
    positive, and below the threshold so the transition bands do not
    overlap at zero.
    """

    nominal_lipschitz = 1.0

    def __init__(self, shape, threshold, smoothing_mu):
        threshold = _positive(threshold, "threshold")
        if not (_is_real(smoothing_mu) and 0 < smoothing_mu < threshold):
            raise ValueError("smoothing_mu must lie in (0, threshold)")
        h, w = _shape(shape)
        self.shape = (h, w)
        self.threshold = threshold
        self.smoothing_mu = float(smoothing_mu)
        self.n = h * w
        self._c_h, self._c_w = _dct_matrix(h), _dct_matrix(w)

    def _dct(self, x):
        return (self._c_h @ x.reshape(self.shape) @ self._c_w.T).reshape(-1)

    def _idct(self, c):
        return (self._c_h.T @ c.reshape(self.shape) @ self._c_w).reshape(-1)

    def apply(self, x):
        x = self._check(x)
        s, _ = _smoothed_soft_threshold(self._dct(x), self.threshold, self.smoothing_mu)
        return self._idct(s)

    def residual_vjp(self, x, v):
        x = self._check(x)
        v = self._check(v)
        _, d = _smoothed_soft_threshold(self._dct(x), self.threshold, self.smoothing_mu)
        return v - self._idct(d * self._dct(v))

    # The Jacobian is symmetric, so the two products coincide.
    residual_jvp = residual_vjp


class ScaledDenoiser(Denoiser):
    """D(x) = s * inner(x); s > 1 over a Lipschitz-1 inner is certified expansive."""

    def __init__(self, inner, scale):
        self.inner = inner
        self.scale = _positive(scale, "scale")
        self.n = inner.n
        if inner.nominal_lipschitz is not None:
            self.nominal_lipschitz = self.scale * inner.nominal_lipschitz

    def apply(self, x):
        return self.scale * self.inner.apply(x)

    def residual_vjp(self, x, v):
        v = self._check(v)
        inner_jv = v - self.inner.residual_vjp(x, v)
        return v - self.scale * inner_jv

    def residual_jvp(self, x, v):
        v = self._check(v)
        inner_jv = v - self.inner.residual_jvp(x, v)
        return v - self.scale * inner_jv


class RandomConvnetDenoiser(Denoiser):
    """D(x) = x - N(x) with N a seeded small convnet; smooth, non-symmetric.

    N is two 3x3 periodic convolutions with tanh between them: one channel
    in, `channels` hidden, one out.  Weights are fixed Gaussian draws
    scaled by weight_scale / sqrt(9 * fan_in), so weight_scale tunes the
    network gain and with it the expansiveness of D.  Jacobian products are
    exact reverse- and forward-mode sweeps through the conv/tanh chain.

    Each layer is one _periodic_conv over the stack of its channels, summed
    in channel order; the reverse sweep convolves with the 180-degree rotated
    weights, stacked once here.  The result equals a per-channel
    scipy.signal.convolve2d network bit for bit.  The tanh activations of
    the last point run through N are kept, so products at the point just
    applied, or at a fixed probe, skip the forward pass.
    """

    def __init__(self, shape, channels, weight_scale, seed):
        channels = _integral(channels, "channels")
        if channels < 1:
            raise ValueError("channels must be positive")
        weight_scale = _positive(weight_scale, "weight_scale")
        h, w = _shape(shape)
        if min(h, w) < 3:
            raise ValueError("image extent must be at least 3 for 3x3 kernels")
        self.seed = _integral(seed, "seed")
        rng = _generator(self.seed)
        self.shape = (h, w)
        self.channels = channels
        self.weight_scale = weight_scale
        self.n = h * w

        def draw(count, fan_in):
            scale = weight_scale / np.sqrt(9.0 * fan_in)
            return scale * rng.standard_normal(count * 9).reshape(count, 3, 3)

        # Weight stacks, in then out, each (c, 3, 3).
        self._w_in = draw(channels, 1)
        self._w_out = draw(channels, channels)
        self._w_in.flags.writeable = False
        self._w_out.flags.writeable = False
        # The reverse sweep's stacks: each kernel rotated by 180 degrees.
        # Views of read-only arrays, so read-only as well.
        self._w_in_adj = self._w_in[:, ::-1, ::-1]
        self._w_out_adj = self._w_out[:, ::-1, ::-1]
        # (copy of x, (N(x), tanh stack)), replaced whole, never mutated.
        self._last = None

    def _forward(self, x):
        """(N(x), tanh activations) for a flat x, kept for the last point.

        The key is the bits of x, not its values, so that -0.0 and NaN
        never reuse another point's activations.
        """
        last = self._last
        if last is not None and np.array_equal(
            last[0].view(np.int64), x.view(np.int64)
        ):
            return last[1]
        acts = self._network(x.reshape(self.shape))
        self._last = (x.copy(), acts)
        return acts

    def _network(self, x2):
        """(N(x), tanh stack) for an image."""
        a = np.tanh(_periodic_conv(x2, self._w_in))
        return _periodic_conv(a, self._w_out).sum(axis=0), a

    def apply(self, x):
        x = self._check(x)
        return x - self._forward(x)[0].reshape(-1)

    def residual_vjp(self, x, v):
        # R = N, so this is J_N(x)^T v: reverse sweep with the rotated
        # kernels as the conv adjoints.
        x = self._check(x)
        v = self._check(v)
        _, a = self._forward(x)
        g = _periodic_conv(v.reshape(self.shape), self._w_out_adj)
        g *= 1.0 - a**2
        return _periodic_conv(g, self._w_in_adj).sum(axis=0).reshape(-1)

    def residual_jvp(self, x, v):
        # J_N(x) v: forward sweep reusing the stored tanh outputs.
        x = self._check(x)
        v = self._check(v)
        _, a = self._forward(x)
        t = _periodic_conv(v.reshape(self.shape), self._w_in)
        t *= 1.0 - a**2
        return _periodic_conv(t, self._w_out).sum(axis=0).reshape(-1)


@dataclass
class LipschitzEstimate:
    """Empirical Lipschitz constant of a denoiser at sampled operating points."""

    value: float
    method: str
    probes: int
    converged: bool


def estimate_lipschitz(d, probes=8, iters=300):
    """Estimate the Lipschitz constant of D over seeded probe points.

    Power iteration on J_D^T J_D at each probe point (needs both Jacobian
    products), returning the largest singular value found.
    """
    probes, iters = _integral(probes, "probes"), _integral(iters, "iters")
    if probes < 1:
        raise ValueError("probes must be at least 1")
    if iters < 1:
        raise ValueError("iters must be at least 1")
    rng = _generator(0)
    best = 0.0
    all_converged = True
    for _ in range(probes):
        # Operating points in the unit pixel box where the denoisers run.
        x = rng.random(d.n)
        v = rng.standard_normal(d.n)
        v = v / np.linalg.norm(v)
        estimate = 0.0
        converged = False
        for _k in range(iters):
            jv = v - d.residual_jvp(x, v)
            w = jv - d.residual_vjp(x, jv)
            rayleigh = float(v @ w)
            nw = np.linalg.norm(w)
            if nw == 0.0:
                estimate = max(estimate, rayleigh)
                converged = True
                break
            if abs(rayleigh - estimate) <= 1e-13 * max(abs(rayleigh), 1e-300):
                estimate = rayleigh
                converged = True
                break
            estimate = rayleigh
            v = w / nw
        best = max(best, estimate)
        all_converged = all_converged and converged
    return LipschitzEstimate(
        float(np.sqrt(max(best, 0.0))), "jacobian_power_iteration", probes, all_converged
    )
