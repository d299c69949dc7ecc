"""Least-squares fidelity and SNR-exact noise injection."""

import math

import numpy as np
import pytest

from redlab import (
    LeastSquaresFidelity,
    add_noise_at_snr,
    build_cs_operator,
)

from dense_operator import DenseOperator


def small_instance(seed, m=6, n=9):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal(m * n).reshape(m, n)
    op = DenseOperator(mat)
    y = rng.standard_normal(m)
    return op, y, LeastSquaresFidelity(op, y)


def test_gradient_identity_case():
    op = DenseOperator(np.eye(5))
    y = np.random.default_rng(5).standard_normal(5)
    f = LeastSquaresFidelity(op, y)
    x = np.random.default_rng(6).standard_normal(5)
    assert np.array_equal(f.gradient(x), x - y)


def test_gradient_vanishes_at_normal_equations_solution():
    op, y, f = small_instance(7, m=9, n=6)  # overdetermined, unique solution
    x_star = np.linalg.solve(op.matrix.T @ op.matrix, op.matrix.T @ y)
    assert np.linalg.norm(f.gradient(x_star)) <= 1e-10


def test_gradient_matches_finite_differences():
    op, y, f = small_instance(8, m=10, n=12)
    rng = np.random.default_rng(9)
    x = rng.standard_normal(12)

    def value(z):
        r = op.forward(z) - y
        return 0.5 * float(r @ r)

    h = 1e-5
    fd = np.zeros(12)
    e = np.zeros(12)
    for j in range(12):
        e[j] = h
        fd[j] = (value(x + e) - value(x - e)) / (2.0 * h)
        e[j] = 0.0
    grad = f.gradient(x)
    rel = np.linalg.norm(grad - fd) / np.linalg.norm(grad)
    assert rel <= 1e-7


def test_hessian_is_gram_matrix():
    op, _y, f = small_instance(10, m=8, n=16)
    gram = op.matrix.T @ op.matrix
    v = np.random.default_rng(11).standard_normal(16)
    assert np.max(np.abs(f.hessian_vp(v) - gram @ v)) < 1e-12


def test_hessian_null_space_vector():
    # v orthogonal to every row maps to zero.
    mat = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    f = LeastSquaresFidelity(DenseOperator(mat), np.zeros(2))
    v = np.array([0.0, 0.0, 3.0])
    assert np.max(np.abs(f.hessian_vp(v))) < 1e-12


def test_hessian_cs_contraction():
    op = build_cs_operator(8, 40, seed=1)
    f = LeastSquaresFidelity(op, np.zeros(8))
    for seed in range(5):
        v = np.random.default_rng(seed).standard_normal(40)
        assert np.linalg.norm(f.hessian_vp(v)) <= np.linalg.norm(v) + 1e-12


def test_fidelity_validation():
    op = DenseOperator(np.eye(3))
    with pytest.raises(ValueError):
        LeastSquaresFidelity(op, np.zeros(4))
    with pytest.raises(ValueError):
        LeastSquaresFidelity(op, np.array([0.0, np.inf, 0.0]))
    f = LeastSquaresFidelity(op, np.zeros(3))
    with pytest.raises(ValueError):
        f.gradient(np.zeros(2))


def test_noise_hits_snr_exactly():
    op, _y, _f = small_instance(12)
    x = np.random.default_rng(13).random(op.n)
    for snr in (30.0, 10.0, 0.0, -5.0):
        y, e = add_noise_at_snr(op, x, snr, 42)
        clean = op.forward(x)
        realized = 20.0 * math.log10(
            np.linalg.norm(clean) / np.linalg.norm(e)
        )
        assert abs(realized - snr) < 1e-10
        assert np.array_equal(y, clean + e)


def test_noise_infinite_snr_is_noiseless():
    # snr_db None is the config's noiseless input.
    op, _y, _f = small_instance(14)
    x = np.random.default_rng(15).random(op.n)
    y, e = add_noise_at_snr(op, x, None, 42)
    assert np.array_equal(e, np.zeros(op.m))
    assert np.array_equal(y, op.forward(x))


def test_noise_deterministic():
    op, _y, _f = small_instance(16)
    x = np.random.default_rng(17).random(op.n)
    y1, _ = add_noise_at_snr(op, x, 20.0, 5)
    y2, _ = add_noise_at_snr(op, x, 20.0, 5)
    assert np.array_equal(y1, y2)
    y3, _ = add_noise_at_snr(op, x, 20.0, 6)
    assert not np.array_equal(y1, y3)


def test_noise_rejects_zero_measurement():
    op = DenseOperator(np.eye(3))
    with pytest.raises(ValueError):
        add_noise_at_snr(op, np.zeros(3), 30.0, 0)


def test_noise_that_overflows_is_refused():
    # ||e|| = ||A x|| / 10^(snr/20) = 1.7e150 * 1e160 is past the largest float.
    op = DenseOperator(1e150 * np.eye(3))
    with pytest.raises(ValueError, match="noise overflows"):
        add_noise_at_snr(op, np.ones(3), -3200.0, 0)


@pytest.mark.parametrize("snr", [1e300, -1e4, -1e300])
def test_noise_rejects_an_snr_whose_scale_is_not_a_positive_float(snr):
    # 10^(snr/20) overflows above about 6165 dB (an OverflowError) and is 0
    # below about -6466 dB (a division by zero).
    op, _y, _f = small_instance(18)
    x = np.random.default_rng(19).random(op.n)
    with pytest.raises(ValueError, match="out of range"):
        add_noise_at_snr(op, x, snr, 42)
    # The edges of the range still draw finite noise.
    for edge in (6000.0, -6000.0):
        y, e = add_noise_at_snr(op, x, edge, 42)
        assert np.all(np.isfinite(y)) and np.all(np.isfinite(e))
