"""Denoisers with analytic residual Jacobian products, plus a Lipschitz estimator.

Every denoiser D maps flat vectors of dimension n (`apply`) and exposes
analytic products with the Jacobian of its residual map R(x) = x - D(x):

    residual_vjp(x, v) = (I - J_D(x))^T v
    residual_jvp(x, v) = (I - J_D(x)) v

The `smooth` flag marks denoisers whose products match finite differences
everywhere; `symmetric_jacobian` marks those where the two products agree.
The family spans certified-nonexpansive (smoothing, DCT shrinkage) through
deliberately expansive (scaled variants, a seeded random convnet).
"""

from dataclasses import dataclass

import numpy as np

from .images import CyclicConvolver, _dct_matrix, _periodic_conv, gaussian_kernel
from .rng import RngState, _integral, gaussian_samples


class Denoiser:
    """Base class; subclasses set n and the flags, and implement the maps."""

    n = 0
    symmetric_jacobian = False
    smooth = False
    nominal_lipschitz = None

    def apply(self, x):
        raise NotImplementedError

    def residual_vjp(self, x, v):
        raise NotImplementedError

    def residual_jvp(self, x, v):
        # Transpose products coincide exactly when the Jacobian is symmetric.
        if self.symmetric_jacobian:
            return self.residual_vjp(x, v)
        raise RuntimeError(
            "denoiser has a non-symmetric Jacobian and no forward-mode product"
        )

    def _check(self, x):
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        if x.size != self.n:
            raise ValueError(f"expected dimension {self.n}, got {x.size}")
        return x


class IdentityDenoiser(Denoiser):
    """D(x) = x; the residual map and all its products vanish."""

    symmetric_jacobian = True
    smooth = True
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


class LinearSmoothingDenoiser(Denoiser):
    """Periodic Gaussian smoothing: D(x) = W x with W symmetric, ||W|| <= 1.

    The kernel is normalized, non-negative, truncated at four standard
    deviations, so its largest DFT magnitude sits at DC and equals one.
    """

    symmetric_jacobian = True
    smooth = True
    nominal_lipschitz = 1.0

    def __init__(self, shape, sigma):
        if not 0 < sigma < np.inf:
            raise ValueError("sigma must be positive and finite")
        h, w = _integral(shape[0], "height"), _integral(shape[1], "width")
        radius = int(np.ceil(4.0 * sigma))
        size = 2 * radius + 1
        # Checked before the kernel is built, whose memory grows with sigma^2.
        if size > min(h, w):
            raise ValueError(
                f"smoothing kernel size {size} exceeds image extent {h}x{w}"
            )
        self.shape = (h, w)
        self.sigma = float(sigma)
        self.kernel = gaussian_kernel(size, sigma)
        self._conv = CyclicConvolver((h, w), self.kernel)
        self.n = h * w

    def _smooth_vals(self, x):
        return self._conv.apply(x.reshape(self.shape)).reshape(-1)

    def apply(self, x):
        return self._smooth_vals(self._check(x))

    def residual_vjp(self, x, v):
        self._check(x)
        v = self._check(v)
        # Constant symmetric Jacobian W, so the product is v - W v at any x.
        return v - self._smooth_vals(v)


def _smoothed_soft_threshold(c, lam, mu):
    """C^2 soft threshold of coefficients c; returns (values, derivative).

    Outside |c| in (lam - mu, lam + mu) this is the exact soft threshold.
    Inside, the magnitude follows the quartic bridge p(u) = mu*(2w^3 - w^4)
    with w = (u + mu) / (2 mu) and u = |c| - lam, which matches value, slope,
    and curvature at both ends.  The derivative lies in [0, 1].
    """
    a = np.abs(c)
    u = a - lam
    out = np.zeros_like(c)
    deriv = np.zeros_like(c)
    if mu == 0.0:
        # Kink convention: derivative 0 on the threshold boundary itself.
        on = u > 0.0
        out[on] = np.sign(c[on]) * u[on]
        deriv[on] = 1.0
        return out, deriv
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

    smoothing_mu == 0 gives the exact soft threshold (non-smooth at the
    threshold, flagged accordingly); smoothing_mu > 0 gives a twice
    continuously differentiable variant and must stay below the threshold
    so the transition bands do not overlap at zero.
    """

    symmetric_jacobian = True
    nominal_lipschitz = 1.0

    def __init__(self, shape, threshold, smoothing_mu=0.0):
        if not 0 < threshold < np.inf:
            raise ValueError("threshold must be positive and finite")
        if not smoothing_mu >= 0:
            raise ValueError("smoothing_mu must be non-negative")
        if smoothing_mu > 0 and smoothing_mu >= threshold:
            raise ValueError("smoothing_mu must be smaller than the threshold")
        h, w = _integral(shape[0], "height"), _integral(shape[1], "width")
        self.shape = (h, w)
        self.threshold = float(threshold)
        self.smoothing_mu = float(smoothing_mu)
        self.smooth = smoothing_mu > 0
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


class ScaledDenoiser(Denoiser):
    """D(x) = s * inner(x); s > 1 over a Lipschitz-1 inner is certified expansive."""

    def __init__(self, inner, scale):
        if not 0 < scale < np.inf:
            raise ValueError("scale must be positive and finite")
        self.inner = inner
        self.scale = float(scale)
        self.n = inner.n
        self.symmetric_jacobian = inner.symmetric_jacobian
        self.smooth = inner.smooth
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


def _conv3_sum(stack, taps):
    """Sum over the channel axis of _periodic_conv(stack, taps) for a
    (c, h, w) stack and (..., c, 3, 3) taps; channels are added one at a
    time, in order, starting from zero, as a per-channel loop would."""
    planes = _periodic_conv(stack, taps)
    out = np.zeros(planes.shape[:-3] + planes.shape[-2:])
    for i in range(planes.shape[-3]):
        out += planes[..., i, :, :]
    return out


class RandomConvnetDenoiser(Denoiser):
    """D(x) = x - N(x) with N a seeded small convnet; smooth, non-symmetric.

    N chains 3x3 periodic convolutions with tanh between layers (none after
    the last), single channel in and out.  Weights are fixed Gaussian draws
    scaled by weight_scale / sqrt(9 * fan_in), so weight_scale tunes the
    network gain and with it the expansiveness of D.  Jacobian products are
    exact reverse- and forward-mode sweeps through the conv/tanh chain.

    Each layer is one _periodic_conv over the stack of its channels; the
    reverse sweep convolves with the 180-degree rotated weights, stacked
    once here.  The result equals a per-channel scipy.signal.convolve2d
    network bit for bit.  The tanh activations of the last point run through
    N are kept, so products at the point just applied, or at a fixed probe,
    skip the forward pass.
    """

    symmetric_jacobian = False
    smooth = True

    def __init__(self, shape, layers, channels, weight_scale, seed):
        layers = _integral(layers, "layers")
        if layers not in (2, 3):
            raise ValueError("layers must be 2 or 3")
        channels = _integral(channels, "channels")
        if channels < 1:
            raise ValueError("channels must be positive")
        if not 0 < weight_scale < np.inf:
            raise ValueError("weight_scale must be positive and finite")
        h, w = _integral(shape[0], "height"), _integral(shape[1], "width")
        if min(h, w) < 3:
            raise ValueError("image extent must be at least 3 for 3x3 kernels")
        rng = RngState(seed)
        self.shape = (h, w)
        self.layers = layers
        self.channels = channels
        self.weight_scale = float(weight_scale)
        self.seed = rng.seed
        self.n = h * w

        def draw(count, fan_in):
            scale = weight_scale / np.sqrt(9.0 * fan_in)
            return scale * gaussian_samples(rng, count * 9).reshape(count, 3, 3)

        # Weight stacks: in (c, 3, 3), mid (c_out, c_in, 3, 3), out (c, 3, 3).
        self._w_in = draw(channels, 1)
        self._w_mid = None
        if layers == 3:
            self._w_mid = draw(channels * channels, channels).reshape(
                channels, channels, 3, 3
            )
        self._w_out = draw(channels, channels)
        for arr in (self._w_in, self._w_mid, self._w_out):
            if arr is not None:
                arr.flags.writeable = False
        # The reverse sweep's stacks: each kernel rotated by 180 degrees, the
        # middle stack's channel axes swapped so that it sums over c_out.
        # Views of read-only arrays, so read-only as well.
        self._w_in_adj = self._w_in[:, ::-1, ::-1]
        self._w_out_adj = self._w_out[:, ::-1, ::-1]
        self._w_mid_adj = None
        if layers == 3:
            self._w_mid_adj = self._w_mid.transpose(1, 0, 2, 3)[..., ::-1, ::-1]
        # (copy of x, (N(x), first tanh stack, second tanh stack or None)),
        # replaced whole, never mutated.
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
        """(N(x), first tanh stack, second tanh stack or None) for an image."""
        a1 = np.tanh(_periodic_conv(x2, self._w_in))
        a2 = None
        top = a1
        if self.layers == 3:
            a2 = top = np.tanh(_conv3_sum(a1, self._w_mid))
        return _conv3_sum(top, self._w_out), a1, a2

    def apply(self, x):
        x = self._check(x)
        return x - self._forward(x)[0].reshape(-1)

    def residual_vjp(self, x, v):
        # R = N, so this is J_N(x)^T v: reverse sweep with the rotated
        # kernels as the conv adjoints.
        x = self._check(x)
        v = self._check(v)
        _, a1, a2 = self._forward(x)
        g = _periodic_conv(v.reshape(self.shape), self._w_out_adj)
        if self.layers == 3:
            g *= 1.0 - a2**2
            g = _conv3_sum(g, self._w_mid_adj)
        g *= 1.0 - a1**2
        return _conv3_sum(g, self._w_in_adj).reshape(-1)

    def residual_jvp(self, x, v):
        # J_N(x) v: forward sweep reusing the stored tanh outputs.
        x = self._check(x)
        v = self._check(v)
        _, a1, a2 = self._forward(x)
        t = _periodic_conv(v.reshape(self.shape), self._w_in)
        t *= 1.0 - a1**2
        if self.layers == 3:
            t = _conv3_sum(t, self._w_mid)
            t *= 1.0 - a2**2
        return _conv3_sum(t, self._w_out).reshape(-1)


@dataclass
class LipschitzEstimate:
    """Empirical Lipschitz constant of a denoiser at sampled operating points."""

    value: float
    method: str
    probes: int
    converged: bool


def _probe_point(d, rng):
    # Operating points in the unit pixel box where the denoisers run.
    return rng.uniform(d.n)


def estimate_lipschitz(d, method="jacobian_power_iteration", probes=8, iters=300):
    """Estimate the Lipschitz constant of D over seeded probe points.

    jacobian_power_iteration: power iteration on J_D^T J_D at each probe
    point (needs both Jacobian products), returning the largest singular
    value found.  pairwise_ratio_sampling: largest difference quotient
    ||D(x) - D(z)|| / ||x - z|| over seeded nearby pairs; a lower bound on
    the true constant for any denoiser, so never reported as converged.
    """
    probes, iters = _integral(probes, "probes"), _integral(iters, "iters")
    if probes < 1:
        raise ValueError("probes must be at least 1")
    if iters < 1:
        raise ValueError("iters must be at least 1")
    rng = RngState(0)
    if method == "pairwise_ratio_sampling":
        best = 0.0
        delta = 1e-6
        for _ in range(probes):
            x = _probe_point(d, rng)
            u = gaussian_samples(rng, d.n)
            u = u / np.linalg.norm(u)
            z = x + delta * u
            ratio = float(np.linalg.norm(d.apply(x) - d.apply(z)) / np.linalg.norm(x - z))
            best = max(best, ratio)
        return LipschitzEstimate(best, method, probes, False)
    if method != "jacobian_power_iteration":
        raise ValueError(f"unknown method {method!r}")
    best = 0.0
    all_converged = True
    for _ in range(probes):
        x = _probe_point(d, rng)
        v = gaussian_samples(rng, d.n)
        nv = np.linalg.norm(v)
        v = v / nv
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
    return LipschitzEstimate(float(np.sqrt(max(best, 0.0))), method, probes, all_converged)
