"""The fixed-point operator G, the loss phi = 0.5*||G||^2, its gradient, and
evaluation-cost accounting, all checked against dense-matrix oracles."""

import math

import numpy as np
import pytest

from redlab import (
    DctSoftThresholdDenoiser,
    DeblurOperator,
    EvalCounters,
    IdentityDenoiser,
    LeastSquaresFidelity,
    LinearSmoothingDenoiser,
    RandomConvnetDenoiser,
    REDProblem,
    RngState,
    ScaledDenoiser,
    build_cs_operator,
    gaussian_kernel,
    gaussian_samples,
)

from dense_operator import DenseOperator


def dense_matrix(apply_fn, n):
    cols = np.empty((n, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        cols[:, j] = apply_fn(e)
        e[j] = 0.0
    return cols


def phi(p, x, counters=None):
    """phi(x) = 0.5 * ||G(x)||^2, from one G evaluation."""
    g = p.operator_g(x, counters)
    return 0.5 * float(g @ g)


def grad_phi(p, x):
    return p.eval_state(x)[1]


def smoother_instance(seed=0, h=8, w=8, sigma=0.5, tau=0.1):
    """Deblur fidelity + linear smoother, small enough for dense assembly."""
    op = DeblurOperator((h, w), gaussian_kernel(3, 0.7))
    rng = RngState(seed)
    y = gaussian_samples(rng, h * w)
    den = LinearSmoothingDenoiser((h, w), sigma)
    p = REDProblem(LeastSquaresFidelity(op, y), den, tau)
    a = dense_matrix(op.forward, h * w)
    wmat = dense_matrix(den.apply, h * w)
    m = a.T @ a + tau * (np.eye(h * w) - wmat)
    b = a.T @ y
    return p, m, b, y


# ------------------------------------------------------------------------- G


def test_g_equals_fidelity_gradient_with_identity_denoiser():
    op = DenseOperator(gaussian_samples(RngState(1), 20).reshape(4, 5))
    y = gaussian_samples(RngState(2), 4)
    f = LeastSquaresFidelity(op, y)
    p = REDProblem(f, IdentityDenoiser(5), tau=0.7)
    x = gaussian_samples(RngState(3), 5)
    assert np.array_equal(p.operator_g(x), f.gradient(x))


def test_g_tau_perturbation_bound():
    # |G - grad g| <= tau * ||x - D(x)|| for any tau.
    op = DeblurOperator((8, 8), gaussian_kernel(3, 0.7))
    y = gaussian_samples(RngState(4), 64)
    f = LeastSquaresFidelity(op, y)
    den = LinearSmoothingDenoiser((8, 8), 0.5)
    x = RngState(5).uniform(64)
    resid = np.linalg.norm(x - den.apply(x))
    for tau in (1e-6, 1e-3, 0.5):
        p = REDProblem(f, den, tau)
        gap = np.linalg.norm(p.operator_g(x) - f.gradient(x))
        assert gap <= tau * resid + 1e-15


def test_g_matches_dense_assembly():
    p, m, b, _y = smoother_instance(seed=6)
    x = gaussian_samples(RngState(7), 64)
    assert np.max(np.abs(p.operator_g(x) - (m @ x - b))) < 1e-12


def test_problem_validation():
    op = DenseOperator(np.eye(4))
    f = LeastSquaresFidelity(op, np.zeros(4))
    with pytest.raises(ValueError):
        REDProblem(f, IdentityDenoiser(4), tau=0.0)
    with pytest.raises(ValueError):
        REDProblem(f, IdentityDenoiser(5), tau=0.1)
    p = REDProblem(f, IdentityDenoiser(4), tau=0.1)
    with pytest.raises(ValueError):
        p.operator_g(np.zeros(3))


# ----------------------------------------------------------------------- phi


def test_phi_zero_at_dense_solution():
    p, m, b, _y = smoother_instance(seed=8)
    x_star = np.linalg.solve(m, b)
    scale = max(1.0, phi(p, np.zeros(64)))
    assert phi(p, x_star) <= 1e-16 * scale


def test_phi_known_norm():
    # G(x) = (1+tau)x when A = I, y = 0, and the denoiser contributes the
    # full residual x; pick x so ||G|| = 2.
    f = LeastSquaresFidelity(DenseOperator(np.eye(6)), np.zeros(6))
    p = REDProblem(f, ScaledDenoiser(IdentityDenoiser(6), 0.5), tau=1.0)
    # G = x + 1.0*(x - 0.5x) = 1.5x
    x = np.zeros(6)
    x[0] = 2.0 / 1.5
    assert abs(phi(p, x) - 2.0) < 1e-12


def test_phi_summation_order():
    p, _m, _b, _y = smoother_instance(seed=9)
    x = gaussian_samples(RngState(10), 64)
    g = p.operator_g(x)
    fsum = 0.5 * math.fsum(float(t) * float(t) for t in g)
    assert abs(phi(p, x) - fsum) < 1e-12


def test_phi_deterministic():
    p, _m, _b, _y = smoother_instance(seed=11)
    x = gaussian_samples(RngState(12), 64)
    assert phi(p, x) == phi(p, x)


# ------------------------------------------------------------------ grad phi


def test_grad_phi_zero_at_solution():
    p, m, b, _y = smoother_instance(seed=13)
    x_star = np.linalg.solve(m, b)
    assert np.linalg.norm(grad_phi(p, x_star)) <= 1e-10


def test_grad_phi_matches_quadratic_oracle():
    # phi is exactly quadratic for linear denoisers: grad = M^T (M x - b).
    for tau in (1.0, 0.1, 0.01):
        p, m, b, _y = smoother_instance(seed=14, tau=tau)
        x = gaussian_samples(RngState(15), 64)
        want = m.T @ (m @ x - b)
        got = grad_phi(p, x)
        assert np.max(np.abs(got - want)) <= 1e-11 * max(1.0, np.max(np.abs(want)))


SMOOTH_DENOISER_BUILDERS = {
    "identity": lambda shape: IdentityDenoiser(shape[0] * shape[1]),
    "smoother": lambda shape: LinearSmoothingDenoiser(shape, 1.5),
    "dct_threshold": lambda shape: DctSoftThresholdDenoiser(shape, 0.1, 0.02),
    "convnet": lambda shape: RandomConvnetDenoiser(shape, 2, 4, 0.8, seed=11),
}


@pytest.mark.parametrize("name", sorted(SMOOTH_DENOISER_BUILDERS))
def test_grad_phi_matches_full_finite_differences(name):
    # Full-vector central differences of phi on a 16x16 deblur problem.
    shape = (16, 16)
    n = 256
    op = DeblurOperator(shape, gaussian_kernel(5, 1.2))
    x_true = RngState(16).uniform(n)
    f = LeastSquaresFidelity(op, op.forward(x_true))
    p = REDProblem(f, SMOOTH_DENOISER_BUILDERS[name](shape), tau=0.1)
    h = 1e-5
    rng = RngState(17)
    for _ in range(2):
        x = rng.uniform(n)
        grad = grad_phi(p, x)
        fd = np.empty(n)
        e = np.zeros(n)
        for j in range(n):
            e[j] = h
            fd[j] = (phi(p, x + e) - phi(p, x - e)) / (2.0 * h)
            e[j] = 0.0
        rel = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
        assert rel <= 1e-6


def test_grad_phi_identity_everything():
    # A = I, y = 0, identity denoiser: G(x) = x and grad phi = x.
    f = LeastSquaresFidelity(DenseOperator(np.eye(8)), np.zeros(8))
    p = REDProblem(f, IdentityDenoiser(8), tau=0.3)
    x = gaussian_samples(RngState(18), 8)
    assert np.array_equal(grad_phi(p, x), x)


def test_grad_phi_zero_denoiser_scaling():
    # With D == 0 on the probe set (threshold far above every coefficient),
    # G = (1+tau)x and grad phi = (1+tau)^2 x.
    f = LeastSquaresFidelity(DenseOperator(np.eye(16)), np.zeros(16))
    p = REDProblem(f, DctSoftThresholdDenoiser((4, 4), 10.0, 0.0), tau=0.5)
    x = RngState(19).uniform(16)
    want = (1.5**2) * x
    assert np.max(np.abs(grad_phi(p, x) - want)) < 1e-12


# ---------------------------------------------------- normalized residual


def test_normalized_residual_midpoint_dense():
    p, m, b, _y = smoother_instance(seed=23)
    x0 = np.zeros(64)
    x_star = np.linalg.solve(m, b)
    mid = 0.5 * (x0 + x_star)
    g0 = m @ x0 - b
    gm = m @ mid - b
    want = float(gm @ gm) / float(g0 @ g0)
    got = phi(p, mid) / phi(p, x0)
    assert abs(got - want) < 1e-12


# ------------------------------------------------------------------ counters


def test_counter_accounting():
    p, _m, _b, _y = smoother_instance(seed=24)
    x = RngState(25).uniform(64)
    c = EvalCounters()
    p.operator_g(x, c)
    assert (c.denoiser_applies, c.operator_forwards, c.operator_adjoints) == (1, 1, 1)
    assert (c.vjp_evals, c.grad_phi_evals) == (0, 0)
    phi(p, x, c)
    assert (c.denoiser_applies, c.operator_forwards, c.operator_adjoints) == (2, 2, 2)
    p.eval_state(x, c)
    # One G evaluation plus one Hessian product (forward + adjoint) and one VJP.
    assert c.denoiser_applies == 3
    assert c.operator_forwards == 4
    assert c.operator_adjoints == 4
    assert c.vjp_evals == 1
    assert c.grad_phi_evals == 1
    snap = c.snapshot()
    phi(p, x, c)
    assert snap.denoiser_applies == 3  # snapshot is decoupled
    assert c.denoiser_applies == 4


def test_projection_hessian_g_identity():
    # With orthonormal rows, A^T A G(x) follows from P D(x) alone, with no
    # operator call: b = A^T y and grad g = P x - b lie in the range of P.
    shape = (16, 16)
    op = build_cs_operator(40, 256, seed=3)
    den = LinearSmoothingDenoiser(shape, 1.0)
    p = REDProblem(LeastSquaresFidelity(op, gaussian_samples(RngState(30), 40)), den, tau=0.5)
    x = RngState(31).uniform(256)
    c = EvalCounters()
    grad_g = p.fidelity_gradient(x, c)
    dx = p.denoise(x, c)
    hg = p.projection_hessian_g(grad_g, p.fidelity_hessian_vp(dx, c))
    assert (c.operator_forwards, c.operator_adjoints, c.denoiser_applies) == (2, 2, 1)
    ref = p.fidelity_hessian_vp(p.operator_g(x))
    assert np.max(np.abs(hg - ref)) <= 1e-14 * np.max(np.abs(ref))
    # Handed G, D(x), A^T A G and r, the evaluations charge only what they do.
    g = p.operator_g(x, c, grad_g, dx)
    r = p.residual_vjp(x, g, c)
    phi, grad, _g, hg_out = p.eval_state(x, c, g, hg, r)
    assert hg_out is hg
    assert np.array_equal(grad, hg + p.tau * r)
    assert phi == 0.5 * float(g @ g)
    assert (c.operator_forwards, c.denoiser_applies, c.vjp_evals, c.grad_phi_evals) == (2, 1, 1, 1)


def test_counters_optional():
    p, _m, _b, _y = smoother_instance(seed=26)
    x = RngState(27).uniform(64)
    # No counters passed: evaluations still work.
    assert phi(p, x) >= 0.0


# ----------------------------------------------------------- descent property


@pytest.mark.parametrize("name", sorted(SMOOTH_DENOISER_BUILDERS))
def test_descent_direction(name):
    # phi decreases along -grad within 60 halvings from t = 1.
    shape = (16, 16)
    op = DeblurOperator(shape, gaussian_kernel(5, 1.2))
    x_true = RngState(28).uniform(256)
    f = LeastSquaresFidelity(op, op.forward(x_true))
    p = REDProblem(f, SMOOTH_DENOISER_BUILDERS[name](shape), tau=0.1)
    x = RngState(29).uniform(256)
    phi0 = phi(p, x)
    grad = grad_phi(p, x)
    assert np.linalg.norm(grad) > 0.0
    t = 1.0
    for _ in range(60):
        if phi(p, x - t * grad) < phi0:
            break
        t *= 0.5
    else:
        pytest.fail("no descent found within 60 halvings")
