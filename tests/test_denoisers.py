"""Denoisers: analytic Jacobian products vs. independent oracles, Lipschitz
estimation, and the nonexpansive/expansive certification boundary."""

import sys
import threading

import numpy as np
import pytest
from scipy.fft import dctn, idctn

from redlab import (
    DctSoftThresholdDenoiser,
    Denoiser,
    IdentityDenoiser,
    LinearSmoothingDenoiser,
    RandomConvnetDenoiser,
    ScaledDenoiser,
    estimate_lipschitz,
)
from redlab.presets import DENOISER_NAMES, build_denoiser

from conv_reference import convolve2d_wrap


def dense_residual_jacobian(d, x, h=1e-6):
    """Column-by-column central differences of R(x) = x - D(x)."""
    n = d.n
    jac = np.empty((n, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = h
        xp, xm = x + e, x - e
        jac[:, j] = ((xp - d.apply(xp)) - (xm - d.apply(xm))) / (2.0 * h)
        e[j] = 0.0
    return jac


def probe(seed, n):
    return np.random.default_rng(seed).random(n)


# ------------------------------------------------------------------ identity


def test_identity_denoiser():
    d = IdentityDenoiser(10)
    x = probe(1, 10)
    v = np.random.default_rng(2).standard_normal(10)
    assert np.array_equal(d.apply(x), x)
    assert np.array_equal(x - d.apply(x), np.zeros(10))
    assert np.array_equal(d.residual_vjp(x, v), np.zeros(10))
    est = estimate_lipschitz(d, probes=2, iters=10)
    assert abs(est.value - 1.0) < 1e-10


# ------------------------------------------------------------------ smoother


def test_smoother_preserves_constants():
    d = LinearSmoothingDenoiser((16, 16), 1.5)
    x = np.full(256, 0.42)
    assert np.max(np.abs(d.apply(x) - x)) < 1e-12


def test_smoother_vjp_is_i_minus_w():
    # (I - W)v with W v computed by an explicit independent convolution.
    d = LinearSmoothingDenoiser((16, 16), 1.0)
    v = np.random.default_rng(3).standard_normal(256)
    wv = convolve2d_wrap(v.reshape(16, 16), d.kernel).reshape(-1)
    got = d.residual_vjp(probe(4, 256), v)
    assert np.max(np.abs(got - (v - wv))) < 1e-12


def kernel_dft_max(kernel, h, w):
    """max |khat| over the h x w grid, via an embedding built here."""
    r = kernel.shape[0] // 2
    k2 = kernel
    embed = np.zeros((h, w))
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            embed[dy % h, dx % w] += k2[r + dy, r + dx]
    return float(np.max(np.abs(np.fft.fft2(embed))))


def test_smoother_lipschitz_matches_dft():
    d = LinearSmoothingDenoiser((32, 32), 1.5)
    est = estimate_lipschitz(d)
    assert est.value <= 1.0 + 1e-8
    assert abs(est.value - kernel_dft_max(d.kernel, 32, 32)) < 1e-6


def test_smoother_kernel_size_guard():
    with pytest.raises(ValueError):
        LinearSmoothingDenoiser((8, 8), 1.5)  # 4 sigma radius needs 13 pixels
    with pytest.raises(ValueError):
        LinearSmoothingDenoiser((32, 32), 0.0)


# ------------------------------------------------------------- dct threshold


def coeff_image(shape, coeffs):
    return idctn(np.reshape(coeffs, shape), type=2, norm="ortho").reshape(-1)


def test_soft_threshold_shrinks_coefficient():
    # A single DCT coefficient at 2.0 with threshold 0.5 lands at 1.5: past
    # the smoothing band, the threshold is exact.
    d = DctSoftThresholdDenoiser((4, 4), 0.5, 0.05)
    c = np.zeros(16)
    c[5] = 2.0
    out_c = dctn(d.apply(coeff_image((4, 4), c)).reshape(4, 4), type=2, norm="ortho").reshape(-1)
    assert abs(out_c[5] - 1.5) < 1e-12
    others = np.delete(out_c, 5)
    assert np.max(np.abs(others)) < 1e-12


def test_soft_threshold_zero_maps_to_zero():
    d = DctSoftThresholdDenoiser((8, 8), 0.3, 0.05)
    assert np.max(np.abs(d.apply(np.zeros(64)))) < 1e-15


def test_smoothed_threshold_vjp_matches_fd():
    d = DctSoftThresholdDenoiser((8, 8), 0.2, 0.05)
    x = probe(6, 64)
    h = 1e-6
    rng = np.random.default_rng(7)
    for _ in range(5):
        v = rng.standard_normal(64)
        v = v / np.linalg.norm(v)
        xp, xm = x + h * v, x - h * v
        fd = ((xp - d.apply(xp)) - (xm - d.apply(xm))) / (2.0 * h)
        got = d.residual_vjp(x, v)  # symmetric, so VJP == JVP
        rel = np.linalg.norm(got - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel <= 1e-6


def test_threshold_validation():
    with pytest.raises(ValueError):
        DctSoftThresholdDenoiser((4, 4), 0.0, 0.01)
    with pytest.raises(ValueError):
        DctSoftThresholdDenoiser((4, 4), 0.5, -0.1)
    with pytest.raises(ValueError):
        DctSoftThresholdDenoiser((4, 4), 0.5, 0.0)  # the exact, kinked threshold
    with pytest.raises(ValueError):
        DctSoftThresholdDenoiser((4, 4), 0.5, 0.5)  # mu must stay below


# -------------------------------------------------------------------- scaled


def test_scaled_one_is_inner():
    inner = LinearSmoothingDenoiser((16, 16), 1.0)
    d = ScaledDenoiser(inner, 1.0)
    for seed in range(3):
        x = probe(seed, 256)
        assert np.max(np.abs(d.apply(x) - inner.apply(x))) < 1e-15


def test_scaled_smoother_lipschitz():
    d = ScaledDenoiser(LinearSmoothingDenoiser((32, 32), 1.5), 1.5)
    est = estimate_lipschitz(d)
    assert abs(est.value - 1.5) < 1e-4
    assert d.nominal_lipschitz == 1.5


def test_scaled_identity_at_zero():
    d = ScaledDenoiser(IdentityDenoiser(12), 1.5)
    v = np.random.default_rng(8).standard_normal(12)
    assert np.max(np.abs(d.apply(np.zeros(12)))) == 0.0
    assert np.max(np.abs(d.residual_vjp(np.zeros(12), v) + 0.5 * v)) < 1e-15
    with pytest.raises(ValueError):
        ScaledDenoiser(IdentityDenoiser(12), 0.0)


# ------------------------------------------------------------------- convnet


def test_convnet_deterministic():
    a = RandomConvnetDenoiser((8, 8), 3, 0.8, seed=4)
    b = RandomConvnetDenoiser((8, 8), 3, 0.8, seed=4)
    x = probe(9, 64)
    assert np.array_equal(a.apply(x), b.apply(x))
    c = RandomConvnetDenoiser((8, 8), 3, 0.8, seed=5)
    assert not np.array_equal(a.apply(x), c.apply(x))


@pytest.mark.parametrize("channels", [2, 3])
def test_convnet_products_match_dense_jacobian(channels):
    d = RandomConvnetDenoiser((8, 8), channels, 0.9, seed=6)
    x = probe(10, 64)
    jac = dense_residual_jacobian(d, x)
    rng = np.random.default_rng(11)
    for _ in range(4):
        v = rng.standard_normal(64)
        vjp = d.residual_vjp(x, v)
        rel = np.linalg.norm(vjp - jac.T @ v) / np.linalg.norm(jac.T @ v)
        assert rel <= 1e-5
        jvp = d.residual_jvp(x, v)
        rel = np.linalg.norm(jvp - jac @ v) / np.linalg.norm(jac @ v)
        assert rel <= 1e-5


def test_convnet_not_symmetric():
    # J_N is not symmetric, so the convnet needs its own forward sweep: the
    # transpose product is not the product.
    d = RandomConvnetDenoiser((8, 8), 2, 0.8, seed=8)
    x = probe(12, 64)
    v = np.random.default_rng(13).standard_normal(64)
    jv, jtv = d.residual_jvp(x, v), d.residual_vjp(x, v)
    assert np.linalg.norm(jv - jtv) > 0.1 * np.linalg.norm(jv)


def test_convnet_preset_is_certified_expansive():
    # The shipped weight scale lands the estimated Lipschitz constant in
    # the calibrated window on the default experiment shape.
    d = RandomConvnetDenoiser((64, 64), 4, 0.8, seed=11)
    est = estimate_lipschitz(d, probes=3, iters=120)
    assert 1.5 <= est.value <= 3.0


def test_convnet_validation():
    with pytest.raises(ValueError):
        RandomConvnetDenoiser((8, 8), 2, 0.8, seed=-1)
    with pytest.raises(ValueError):
        RandomConvnetDenoiser((8, 8), 0, 0.8, seed=0)
    with pytest.raises(ValueError):
        RandomConvnetDenoiser((8, 8), 2, 0.0, seed=0)
    with pytest.raises(ValueError):
        RandomConvnetDenoiser((2, 8), 2, 0.8, seed=0)


def test_convnet_rejects_non_integral_sizes():
    bad_args = (
        {"channels": 2.5},
        {"seed": 11.5},
        {"channels": "2"},
        {"channels": None},
        {"channels": float("inf")},
        {"weight_scale": float("nan")},
    )
    for bad in bad_args:
        args = {"channels": 2, "weight_scale": 0.8, "seed": 0, **bad}
        with pytest.raises(ValueError):
            RandomConvnetDenoiser((8, 8), **args)
        with pytest.raises(ValueError):
            build_denoiser({"name": "convnet", **args}, (8, 8))
    # Integral floats and numpy integers are the integers they equal.
    x = probe(5, 64)
    want = RandomConvnetDenoiser((8, 8), 2, 0.8, seed=4).apply(x)
    for channels in (2.0, np.int64(2)):
        d = RandomConvnetDenoiser((8, 8), channels, 0.8, seed=np.uint8(4))
        assert (d.channels, d.seed) == (2, 4)
        assert all(type(v) is int for v in (d.channels, d.seed))
        assert np.array_equal(d.apply(x), want)


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def rot(k):
    return k[::-1, ::-1]


class PerChannelConvnet:
    """The convnet one channel at a time with scipy.signal.convolve2d, its
    weights drawn as RandomConvnetDenoiser draws them; each channel sum
    starts from zero."""

    def __init__(self, shape, channels, weight_scale, seed):
        rng = np.random.default_rng(seed)

        def draw(count, fan_in):
            scale = weight_scale / np.sqrt(9.0 * fan_in)
            return scale * rng.standard_normal(count * 9).reshape(count, 3, 3)

        c = channels
        self.shape, self.c = shape, c
        self.w_in = draw(c, 1)
        self.w_out = draw(c, c)

    def _sum(self, planes):
        acc = np.zeros(self.shape)
        for plane in planes:
            acc += plane
        return acc

    def _acts(self, x):
        x2 = x.reshape(self.shape)
        return [np.tanh(convolve2d_wrap(x2, self.w_in[i])) for i in range(self.c)]

    def apply(self, x):
        a = self._acts(x)
        out = self._sum(convolve2d_wrap(a[j], self.w_out[j]) for j in range(self.c))
        return x - out.reshape(-1)

    def vjp(self, x, v):
        a = self._acts(x)
        c, g = self.c, v.reshape(self.shape)
        gs = [convolve2d_wrap(g, rot(self.w_out[j])) * (1.0 - a[j] ** 2) for j in range(c)]
        out = self._sum(convolve2d_wrap(gs[i], rot(self.w_in[i])) for i in range(c))
        return out.reshape(-1)

    def jvp(self, x, v):
        a = self._acts(x)
        c, t = self.c, v.reshape(self.shape)
        ts = [convolve2d_wrap(t, self.w_in[i]) * (1.0 - a[i] ** 2) for i in range(c)]
        out = self._sum(convolve2d_wrap(ts[j], self.w_out[j]) for j in range(c))
        return out.reshape(-1)


@pytest.mark.parametrize("shape", [(8, 8), (33, 35), (64, 64)])
@pytest.mark.parametrize("channels", [1, 2, 3, 4, 9])
def test_convnet_is_bit_equal_to_per_channel_reference(channels, shape):
    # The one bit-for-bit check of _periodic_conv on 3x3 stacks and of the
    # channel sum, .sum(axis=0), which must add the planes in channel order.
    d = RandomConvnetDenoiser(shape, channels, 0.9, seed=21)
    ref = PerChannelConvnet(shape, channels, 0.9, 21)
    rng = np.random.default_rng(22)
    for _ in range(2):
        x = rng.random(d.n)
        v = rng.standard_normal(d.n)
        assert np.array_equal(bits(d.apply(x)), bits(ref.apply(x)))
        assert np.array_equal(bits(d.residual_vjp(x, v)), bits(ref.vjp(x, v)))
        assert np.array_equal(bits(d.residual_jvp(x, v)), bits(ref.jvp(x, v)))


def test_convnet_keeps_the_last_points_activations(monkeypatch):
    d = RandomConvnetDenoiser((16, 16), 4, 0.8, seed=11)
    ref = PerChannelConvnet((16, 16), 4, 0.8, 11)
    runs = []
    network = d._network
    monkeypatch.setattr(d, "_network", lambda x2: runs.append(1) or network(x2))
    rng = np.random.default_rng(30)
    x, z, w = rng.random(256), rng.random(256), rng.random(256)
    v = rng.standard_normal(256)

    def check(point, expect_runs):
        # Any call order gives the reference's bits; runs counts forward passes.
        assert np.array_equal(bits(d.apply(point)), bits(ref.apply(point)))
        assert np.array_equal(bits(d.residual_vjp(point, v)), bits(ref.vjp(point, v)))
        assert np.array_equal(bits(d.residual_jvp(point, v)), bits(ref.jvp(point, v)))
        assert len(runs) == expect_runs

    for k, point in enumerate((x, z, x, z)):
        check(point, k + 1)
    assert np.array_equal(bits(d.residual_vjp(x, v)), bits(ref.vjp(x, v)))
    assert np.array_equal(bits(d.residual_jvp(z, v)), bits(ref.jvp(z, v)))
    assert len(runs) == 6
    # The caller's buffer changes after an apply: the kept point does not.
    y = x.copy()
    d.apply(y)
    y[:] = w
    assert np.array_equal(bits(d.residual_vjp(y, v)), bits(ref.vjp(w, v)))
    assert len(runs) == 8
    # Equal values with other bits are another point.
    check(np.zeros(256), 9)
    check(np.full(256, -0.0), 10)
    # A NaN input propagates; the same bits are the same point, a NaN with
    # another sign is not, and the next finite point is not stale.
    xn = x.copy()
    xn[7] = np.nan
    assert np.array_equal(d.apply(xn), ref.apply(xn), equal_nan=True)
    assert np.array_equal(d.residual_vjp(xn.copy(), v), ref.vjp(xn, v), equal_nan=True)
    assert len(runs) == 11
    xn[7] = -np.nan
    d.apply(xn)
    assert len(runs) == 12
    check(x, 13)


def test_convnet_shared_across_threads():
    # The kept point and its activations are replaced in one assignment, so
    # threads sharing a denoiser never pair one point with another's.
    d = RandomConvnetDenoiser((16, 16), 4, 0.8, seed=11)
    ref = PerChannelConvnet((16, 16), 4, 0.8, 11)
    rng = np.random.default_rng(40)
    points = [rng.random(256) for _ in range(4)]
    v = rng.standard_normal(256)
    want = [bits(ref.vjp(p, v)) for p in points]
    wrong = []

    def work(k):
        for _ in range(200):
            d.apply(points[k])
            if not np.array_equal(bits(d.residual_vjp(points[k], v)), want[k]):
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


# -------------------------------------------------------- lipschitz estimate


def test_lipschitz_scaled_identity():
    est = estimate_lipschitz(ScaledDenoiser(IdentityDenoiser(20), 1.2), probes=2, iters=10)
    assert abs(est.value - 1.2) < 1e-10


def test_lipschitz_certification_boundary():
    # Nonexpansive presets at most 1; scaled presets clear the expansive bar.
    nonexpansive = [
        LinearSmoothingDenoiser((32, 32), 1.5),
        DctSoftThresholdDenoiser((16, 16), 0.1, 0.02),
    ]
    for d in nonexpansive:
        assert estimate_lipschitz(d).value <= 1.0 + 1e-6
    expansive = [
        ScaledDenoiser(IdentityDenoiser(256), 1.6),
        ScaledDenoiser(LinearSmoothingDenoiser((32, 32), 1.5), 1.6),
    ]
    for d in expansive:
        assert estimate_lipschitz(d).value >= 1.2


SHIPPED_NOMINAL = [
    name
    for name in DENOISER_NAMES
    if build_denoiser({"name": name}, (64, 64)).nominal_lipschitz is not None
]


@pytest.mark.parametrize("name", SHIPPED_NOMINAL)
def test_nominal_lipschitz_matches_estimate(name):
    # The sidecar certifies a declared constant without estimating it; the
    # estimator may only fall short of it, and by little.
    d = build_denoiser({"name": name}, (64, 64))
    est = estimate_lipschitz(d)
    assert d.nominal_lipschitz - 1e-3 <= est.value <= d.nominal_lipschitz + 1e-9


class _ConstantDenoiser(Denoiser):
    """D(x) = 0: the Jacobian vanishes and both residual products are v."""

    n = 16

    def apply(self, x):
        return np.zeros_like(self._check(x))

    def residual_vjp(self, x, v):
        self._check(x)
        return self._check(v).copy()

    residual_jvp = residual_vjp


def test_lipschitz_of_a_zero_jacobian_is_zero():
    # J_D^T J_D v = 0 ends the power iteration at its first step.
    est = estimate_lipschitz(_ConstantDenoiser(), probes=2, iters=5)
    assert (est.value, est.converged) == (0.0, True)


def test_lipschitz_method_validation():
    d = IdentityDenoiser(4)
    with pytest.raises(TypeError):
        estimate_lipschitz(d, method="jacobian_power_iteration")
    with pytest.raises(ValueError):
        estimate_lipschitz(d, probes=0)
    with pytest.raises(ValueError):
        estimate_lipschitz(d, iters=0)


def test_lipschitz_estimate_fields():
    est = estimate_lipschitz(IdentityDenoiser(4), probes=3, iters=5)
    assert est.method == "jacobian_power_iteration"
    assert est.probes == 3
    assert est.value >= 0.0


# ---------------------------------------------------------------- invariants


CASES = [
    IdentityDenoiser(64),
    LinearSmoothingDenoiser((8, 8), 0.5),
    DctSoftThresholdDenoiser((8, 8), 0.2, 0.05),
    ScaledDenoiser(LinearSmoothingDenoiser((8, 8), 0.5), 1.6),
    RandomConvnetDenoiser((8, 8), 3, 0.8, seed=1),
]


@pytest.mark.parametrize("d", CASES, ids=lambda d: type(d).__name__)
def test_vjp_linear_in_v(d):
    x = probe(19, d.n)
    rng = np.random.default_rng(20)
    v1 = rng.standard_normal(d.n)
    v2 = rng.standard_normal(d.n)
    lhs = d.residual_vjp(x, 2.0 * v1 - 0.5 * v2)
    rhs = 2.0 * d.residual_vjp(x, v1) - 0.5 * d.residual_vjp(x, v2)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("d", CASES, ids=lambda d: type(d).__name__)
def test_vjp_symmetry(d):
    # <J v, u> == <v, J^T u>: each denoiser's two products are each other's
    # transpose, whether it declares one as the other or sweeps both ways.
    x = probe(21, d.n)
    rng = np.random.default_rng(22)
    for _ in range(5):
        u = rng.standard_normal(d.n)
        v = rng.standard_normal(d.n)
        lhs = float(d.residual_jvp(x, v) @ u)
        rhs = float(v @ d.residual_vjp(x, u))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
