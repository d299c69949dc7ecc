"""Measurement operators: adjoint consistency, oracles, spectral estimation."""

import ctypes
import glob
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from redlab import operators
from redlab import (
    CompressiveSensingOperator,
    DeblurOperator,
    build_cs_operator,
    gaussian_kernel,
)

from conv_reference import convolve2d_wrap
from dense_operator import DenseOperator


def check_adjoint(op, pairs, seed, tol=1e-10):
    rng = np.random.default_rng(seed)
    for _ in range(pairs):
        v = rng.standard_normal(op.n)
        u = rng.standard_normal(op.m)
        lhs = float(op.forward(v) @ u)
        rhs = float(v @ op.adjoint(u))
        assert abs(lhs - rhs) <= tol * np.linalg.norm(v) * np.linalg.norm(u)


def test_deblur_adjoint_consistency():
    op = DeblurOperator((12, 10), gaussian_kernel(5, 1.1))
    check_adjoint(op, 100, seed=3)


def test_cs_adjoint_consistency():
    op = build_cs_operator(12, 120, seed=7)
    check_adjoint(op, 100, seed=4)


def test_deblur_matches_convolution():
    # The operator and the direct spatial convolution must agree on the
    # same inputs (spec ties them together).
    k = gaussian_kernel(5, 1.2)
    op = DeblurOperator((8, 9), k)
    x = np.random.default_rng(2).standard_normal(72)
    via_op = op.forward(x)
    via_conv = convolve2d_wrap(x.reshape(8, 9), k).reshape(-1)
    assert np.max(np.abs(via_op - via_conv)) < 1e-12
    # Adjoint is convolution with the rotated kernel.
    via_adj = op.adjoint(x)
    via_rot = convolve2d_wrap(x.reshape(8, 9), k[::-1, ::-1]).reshape(-1)
    assert np.max(np.abs(via_adj - via_rot)) < 1e-12


@pytest.mark.parametrize(
    "m, n",
    [
        (50, 4096),  # two full row blocks and a short one
        (10, 4096),  # fewer rows than one block
        (1, 4096),
    ],
)
def test_matrix_gram_matches_adjoint_of_forward(m, n):
    rng = np.random.default_rng(n)
    vs = [rng.standard_normal(n) for _ in range(3)]
    op = CompressiveSensingOperator(m, n, seed=m)
    mat = op.matrix
    assert sum(b.shape[0] for b in op._row_blocks) == m
    assert all(np.shares_memory(b, mat) for b in op._row_blocks)
    for v in vs:
        ref = op.adjoint(op.forward(v))
        assert np.max(np.abs(op.gram(v) - ref)) <= 1e-14 * np.max(np.abs(ref))
        # A vector is a stack of one row.
        assert np.array_equal(op.gram(v), sum((v[None] @ b.T) @ b for b in op._row_blocks)[0])
    for k in (1, 2, 3):
        got = op.gram(np.stack(vs[:k]))
        assert got.shape == (k, n)
        for row, v in zip(got, vs):
            # Bound by the rounding scale |A|^T |A| |v| of any summation
            # order; max |ref| is no such scale where a row's dot product
            # cancels, as the single row of m = 1 does to 1e-3 of |a| |v|.
            scale = np.max(np.abs(mat).T @ (np.abs(mat) @ np.abs(v)))
            assert np.max(np.abs(row - op.gram(v))) <= 1e-15 * scale
    with pytest.raises(ValueError):
        op.gram(np.zeros((2, n + 1)))


@pytest.mark.parametrize("threads", ["1", "2"])
def test_matrix_gram_of_a_vector_is_its_one_row_stack(threads):
    # numpy reads OPENBLAS_NUM_THREADS when it loads, so ask a new process.
    code = (
        "import numpy as np; "
        "from redlab import CompressiveSensingOperator; "
        "op = CompressiveSensingOperator(50, 4096, 3); "
        "v = np.random.default_rng(4).standard_normal(4096); "
        "ref = op.adjoint(op.forward(v)); "
        "print(np.array_equal(op.gram(v), op.gram(v[None])[0]), "
        "np.max(np.abs(op.gram(v) - ref)) <= 1e-14 * np.max(np.abs(ref)))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(operators.__file__)))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["True", "True"]


def test_blas_thread_probe_looks_up_its_library_once(monkeypatch):
    operators._openblas_function.cache_clear()
    patterns = []
    real_glob = glob.glob
    monkeypatch.setattr(glob, "glob", lambda p: patterns.append(p) or real_glob(p))
    first = operators._blas_threads()
    assert operators._blas_threads() == first
    assert len(patterns) == 1
    if first is None or first < 2:
        return
    # The count itself is read anew on every call.
    getter = operators._openblas_function("num_threads", ctypes.c_int)
    lib = ctypes.CDLL(real_glob(patterns[0])[0])
    setter = getattr(lib, getter.__name__.replace("_get_", "_set_"))
    setter.argtypes = [ctypes.c_int]
    setter.restype = None
    try:
        setter(1)
        assert operators._blas_threads() == 1
    finally:
        setter(first)
    assert operators._blas_threads() == first
    assert len(patterns) == 1


@pytest.mark.parametrize("shape, ksize", [((8, 9), 5), ((64, 64), 17)])
def test_deblur_gram_matches_adjoint_of_forward(shape, ksize):
    op = DeblurOperator(shape, gaussian_kernel(ksize, 2.0))
    rng = np.random.default_rng(ksize)
    for _ in range(3):
        v = rng.standard_normal(op.n)
        ref = op.adjoint(op.forward(v))
        assert np.max(np.abs(op.gram(v) - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_deblur_validation():
    with pytest.raises(ValueError):
        DeblurOperator((4, 4), gaussian_kernel(5, 1.0))
    with pytest.raises(ValueError):
        DeblurOperator((8, 8), "not a kernel")
    op = DeblurOperator((8, 8), gaussian_kernel(3, 0.7))
    assert op.m == op.n == 64
    with pytest.raises(ValueError):
        op.forward(np.zeros(63))


def test_cs_rows_orthonormal():
    op = build_cs_operator(2, 8, seed=0)
    aat = op.matrix @ op.matrix.T
    assert np.max(np.abs(aat - np.eye(2))) < 1e-12
    # Larger instance too.
    op = build_cs_operator(41, 410, seed=77)
    aat = op.matrix @ op.matrix.T
    assert np.max(np.abs(aat - np.eye(41))) < 1e-10


def test_cs_operator_orthonormalizes_its_input():
    # The matrix is the sign-fixed reduced QR factor of an independent draw
    # of the same seeded Gaussian, scaled to variance 1/m, from one row to
    # one short of square, where the draw is worst conditioned.
    for m, n, seed in ((30, 200, 9), (1, 200, 9), (199, 200, 9)):
        raw = np.random.default_rng(seed).standard_normal(m * n).reshape(m, n) / np.sqrt(m)
        q, r = np.linalg.qr(raw.T, mode="reduced")
        signs = np.sign(np.diag(r))
        signs[signs == 0.0] = 1.0
        want = (q * signs).T
        op = CompressiveSensingOperator(m, n, seed)
        assert (op.m, op.n) == (m, n) and op.gram_is_projection
        assert np.max(np.abs(op.matrix - want)) <= 1e-13
        # Orthonormal rows spanning the draw's row space.
        assert np.max(np.abs(op.matrix @ op.matrix.T - np.eye(m))) <= 1e-12
        assert np.linalg.matrix_rank(raw) == m
        assert np.max(np.abs(raw - (raw @ op.matrix.T) @ op.matrix)) <= 1e-12 * np.max(np.abs(raw))
        # The convention that makes the factor unique: G A^T = R^T is lower
        # triangular with a positive diagonal.
        lower = raw @ op.matrix.T
        assert np.max(np.abs(np.triu(lower, 1))) <= 1e-13
        assert np.all(np.diag(lower) > 0.0)


def test_cs_operator_leaves_its_input_unchanged():
    # The operator draws its own matrix, so its inputs are the vectors and
    # stacks it is applied to: those keep their bits whatever their layout
    # or writeability, and no result aliases them or the matrix.
    op = CompressiveSensingOperator(40, 300, seed=4)
    a = op.matrix
    rng = np.random.default_rng(5)
    x = rng.standard_normal(300)
    u = rng.standard_normal(40)
    stack = rng.standard_normal(3 * 300).reshape(3, 300)
    frozen = stack.copy()
    frozen.flags.writeable = False
    for v, apply, want in (
        (x, op.forward, a @ x),
        (u, op.adjoint, a.T @ u),
        (x, op.gram, a.T @ (a @ x)),
        (stack.copy(), op.gram, (stack @ a.T) @ a),
        (np.asfortranarray(stack), op.gram, (stack @ a.T) @ a),
        (frozen, op.gram, (stack @ a.T) @ a),
    ):
        before = v.copy()
        got = apply(v)
        assert np.array_equal(v, before)
        assert not np.shares_memory(got, v) and not np.shares_memory(got, a)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_cs_build_memory_stays_near_the_matrix():
    # The draw is the buffer that is factored and kept: the traced peak of a
    # cold build is about twice the matrix, where a QR on copies took 4x.
    operators._cs_operator.cache_clear()
    try:
        tracemalloc.start()
        op = build_cs_operator(410, 4096, seed=77)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        operators._cs_operator.cache_clear()
    assert peak <= 2.5 * op.matrix.nbytes


def test_cs_determinism_and_shape():
    # Two independent builds: without the clear the second is a cache hit.
    a = build_cs_operator(5, 30, seed=123)
    operators._cs_operator.cache_clear()
    b = build_cs_operator(5, 30, seed=123)
    assert a is not b
    assert np.array_equal(a.matrix, b.matrix)
    c = build_cs_operator(5, 30, seed=124)
    assert not np.array_equal(a.matrix, c.matrix)
    assert a.m == 5 and a.n == 30


def test_cs_operator_is_shared_per_arguments():
    operators._cs_operator.cache_clear()
    a = build_cs_operator(5, 30, seed=123)
    assert build_cs_operator(5, 30, 123) is a
    assert build_cs_operator(np.int64(5), np.int32(30), seed=np.uint64(123)) is a
    info = operators._cs_operator.cache_info()
    assert (info.hits, info.misses) == (2, 1)
    c = build_cs_operator(5, 30, seed=124)
    assert c is not a
    # Only the most recent operator is kept.
    again = build_cs_operator(5, 30, seed=123)
    assert again is not a and np.array_equal(again.matrix, a.matrix)


def test_cs_operator_cache_keys_on_blas_threads(monkeypatch):
    # The QR's bits depend on the thread count, so a shared operator must
    # be the one a fresh build would give at the current thread count.  The
    # patch changes only the key, not the count the QR runs at, so the two
    # builds hold the same bits.
    built = {}
    for threads in (1, 2):
        monkeypatch.setattr(operators, "_blas_threads", lambda: threads)
        built[threads] = build_cs_operator(50, 4096, seed=5)
        assert build_cs_operator(50, 4096, seed=5) is built[threads]
    one, two = built[1], built[2]
    assert one is not two
    assert np.array_equal(one.matrix, two.matrix)


def test_cs_operator_is_immutable():
    op = build_cs_operator(50, 4096, seed=5)
    assert set(vars(op)) == {"matrix", "m", "n", "_row_blocks"}
    assert isinstance(op._row_blocks, tuple)
    for arr in (op.matrix, *op._row_blocks):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


def test_cs_rejects_oversampling():
    # Errors are never cached: every call raises again.
    for _ in range(2):
        for build in (build_cs_operator, CompressiveSensingOperator):
            with pytest.raises(ValueError):
                build(8, 8, seed=0)
            with pytest.raises(ValueError):
                build(9, 8, seed=0)
            with pytest.raises(ValueError):
                build(0, 8, seed=0)
            with pytest.raises(ValueError):
                build(5, 30, seed=-1)


@pytest.mark.parametrize(
    "m, n, seed", [(10.7, 100, 2), (10, 100.5, 2), (10, 100, 2.5), ("10", 100, 2)]
)
def test_cs_rejects_non_integral_arguments(m, n, seed):
    # Truncating would build another matrix than the one asked for.
    for build in (build_cs_operator, CompressiveSensingOperator):
        with pytest.raises(ValueError, match="must be an integer"):
            build(m, n, seed)


def test_spectral_cs_is_one():
    # Orthonormal rows: A^T A is a projection, so lambda_max is exactly 1.
    op = build_cs_operator(26, 256, seed=77)
    assert op.exact_spectral_norm_sq() == 1.0
    # The dense eigenvalues and singular values agree.
    dense = np.linalg.eigvalsh(op.matrix.T @ op.matrix).max()
    assert abs(dense - 1.0) < 1e-12
    assert abs(np.linalg.svd(op.matrix, compute_uv=False)[0] ** 2 - dense) < 1e-12


def test_spectral_deblur_matches_dft_oracle():
    # lambda_max(A^T A) = max |khat|^2 with khat the kernel DFT on the grid,
    # computed here by direct summation over shifts.
    h = w = 16
    k = gaussian_kernel(5, 1.5)
    k2 = k
    r = k.shape[0] // 2
    mags = np.zeros((h, w))
    for p in range(h):
        for q in range(w):
            acc = 0.0 + 0.0j
            for dy in range(-r, r + 1):
                for dx in range(-r, r + 1):
                    acc += k2[r + dy, r + dx] * np.exp(
                        -2j * np.pi * (p * dy / h + q * dx / w)
                    )
            mags[p, q] = abs(acc)
    op = DeblurOperator((h, w), k)
    L = op.exact_spectral_norm_sq()
    assert abs(L - float(mags.max() ** 2)) < 1e-12
    # And for a normalized non-negative kernel the max sits at DC and is 1.
    assert abs(L - 1.0) < 1e-12


def test_spectral_deblur_exact_equals_power_iteration():
    # The largest eigenvalue of the dense A^T A of the same operator, and its
    # largest singular value squared, equal the closed-form value taken from
    # the kernel DFT.
    op = DeblurOperator((12, 10), gaussian_kernel(5, 1.1))
    dense = np.column_stack([op.forward(e) for e in np.eye(op.n)])
    want = np.linalg.eigvalsh(dense.T @ dense).max()
    assert abs(want - op.exact_spectral_norm_sq()) < 1e-10
    assert abs(want - np.linalg.svd(dense, compute_uv=False)[0] ** 2) < 1e-10


def test_spectral_rayleigh_monotone():
    # The Rayleigh quotient of power iteration never decreases; replay the
    # iteration by hand and watch the sequence.
    op = DenseOperator(np.random.default_rng(13).standard_normal(15 * 20).reshape(15, 20))
    v = np.random.default_rng(0).standard_normal(op.n)
    v = v / np.linalg.norm(v)
    prev = -np.inf
    for _ in range(60):
        w = op.gram(v)
        rayleigh = float(v @ w)
        assert rayleigh >= prev - 1e-12 * max(1.0, abs(rayleigh))
        prev = rayleigh
        v = w / np.linalg.norm(w)
    dense = np.linalg.eigvalsh(op.matrix.T @ op.matrix).max()
    assert prev <= dense + 1e-9
