"""Linear measurement operators and the exact spectral norm of each.

Two operators ship: periodic deblurring (`DeblurOperator`, circulant) and
compressive sensing (`CompressiveSensingOperator(m, n, seed)`, the one
dense operator, which draws and owns its matrix).  Both map flat
row-major vectors, expose `forward`, `adjoint` and the composition `gram`
(adjoint of forward), give lambda_max(A^T A) in closed form, and are
immutable after construction.  Each `gram` reads its operator's data once
per product, and the dense one reads it once for a whole stack of vectors.
Both need numpy alone.
"""

import ctypes
import functools
import glob
import os

import numpy as np

from .images import CyclicConvolver
from .rng import RngState, _integral, _vector, gaussian_samples

# Row-block size of the dense gram: a block this large stays in a 2 MiB L2
# cache between its two uses, B v and then B^T (B v).  24 rows at n = 4096.
_GRAM_BLOCK_BYTES = 768 * 1024


def _blas_threads():
    """Threads of the OpenBLAS bundled with numpy, or None where not found.

    The library is looked up once per process and asked every time, so a
    thread count changed at run time still reaches the CS operator cache key.
    """
    return _blas_thread_getter()()


@functools.cache
def _blas_thread_getter():
    return _openblas_function("num_threads", ctypes.c_int) or (lambda: None)


def _openblas_function(what, restype):
    """`openblas_get_<what>` of the OpenBLAS bundled with numpy, returning
    `restype`, or None where not found; each call searches anew."""
    libs = os.path.dirname(os.path.dirname(np.__file__))
    for path in glob.glob(os.path.join(libs, "numpy.libs", "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in (
            f"scipy_openblas_get_{what}64_",
            f"openblas_get_{what}64_",
            f"openblas_get_{what}",
        ):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.argtypes = []
                fn.restype = restype
                return fn
    return None


class LinearOperator:
    """Base for linear maps R^n -> R^m with an explicit adjoint.

    Subclasses set `n` and `m` in their constructor and implement
    `forward` and `adjoint` on flat float64 vectors, and the exact
    lambda_max(A^T A) that sets the solvers' step.
    """

    n = 0
    m = 0
    # True where A A^T = I, so that A^T A is an orthogonal projection.
    gram_is_projection = False

    def forward(self, x):
        raise NotImplementedError

    def adjoint(self, u):
        raise NotImplementedError

    def gram(self, v):
        """A^T A v; the Hessian map of the least-squares fidelity."""
        return self.adjoint(self.forward(v))

    def exact_spectral_norm_sq(self):
        """lambda_max(A^T A), exact."""
        raise NotImplementedError

    def _check_domain(self, x):
        return _vector(x, self.n, "domain vector")

    def _check_range(self, u):
        return _vector(u, self.m, "range vector")


class DeblurOperator(LinearOperator):
    """Periodic 2D convolution with a fixed (k, k) blur kernel, k odd and at
    most the image extent; square (m == n)."""

    def __init__(self, shape, kernel):
        self._conv = CyclicConvolver(shape, kernel)
        self.shape = self._conv.shape
        self.kernel = self._conv.kernel
        self.n = self.m = self.shape[0] * self.shape[1]

    def forward(self, x):
        x = self._check_domain(x)
        return self._conv.apply(x.reshape(self.shape)).reshape(-1)

    def adjoint(self, u):
        u = self._check_range(u)
        return self._conv.apply_adjoint(u.reshape(self.shape)).reshape(-1)

    def gram(self, v):
        v = self._check_domain(v)
        return self._conv.apply_gram(v.reshape(self.shape)).reshape(-1)

    def exact_spectral_norm_sq(self):
        # A^T A is circulant; its eigenvalues are |khat|^2 over the DFT grid.
        return self._conv.max_gain_sq()


class CompressiveSensingOperator(LinearOperator):
    """Seeded Gaussian sensing matrix with orthonormal rows (A A^T == I_m).

    The m x n matrix (1 <= m < n) is drawn as G with variance 1/m and its
    rows orthonormalized: A = L^-1 G with L lower triangular and a positive
    diagonal, so G A^T = L.  A is the Q of the reduced QR of G^T with
    positive R, the unique such factor, here found by Cholesky QR done
    twice in numpy.  A^T A is then the orthogonal projection onto the row
    space.  The draw is scaled and orthonormalized in place and kept in
    one buffer; the build holds two more m x m arrays and one row block.

    `gram` walks the matrix once, in row blocks B_k that fit in L2, and
    sums (V B_k^T) B_k for a (k, n) stack V: every block serves all k rows
    while it is in cache, where forward then adjoint would stream the
    matrix twice per row.  A vector is a stack of one row.
    """

    gram_is_projection = True

    def __init__(self, m, n, seed):
        m = _integral(m, "m")
        n = _integral(n, "n")
        if not 1 <= m < n:
            raise ValueError("need 1 <= m < n for an undersampled operator")
        matrix = gaussian_samples(RngState(seed), m * n).reshape(m, n)
        matrix /= np.sqrt(m)
        # Cholesky QR: with L L^T = G G^T, L^-1 G has orthonormal rows.  The
        # second pass restores the orthogonality one pass loses to the
        # squared condition number at high ratios.  The explicit inverse
        # beats a triangular solve per block.  Each pass overwrites the
        # matrix in row blocks, bottom-up, so rows above a block still hold
        # the pass's input, and frees its inverse before the next begins.
        rows = max(1, _GRAM_BLOCK_BYTES // (matrix.itemsize * n))
        for _ in range(2):
            linv = np.linalg.inv(np.linalg.cholesky(matrix @ matrix.T))
            for j in range(m, 0, -rows):
                i = max(0, j - rows)
                matrix[i:j] = linv[i:j, :j] @ matrix[:j]
            del linv
        matrix.flags.writeable = False
        self.matrix = matrix
        self.m, self.n = m, n
        self._row_blocks = tuple(matrix[i : i + rows] for i in range(0, m, rows))

    def forward(self, x):
        return self.matrix @ self._check_domain(x)

    def adjoint(self, u):
        return self.matrix.T @ self._check_range(u)

    def gram(self, v):
        """A^T A v for a vector v, or row by row for a (k, n) stack."""
        stack = np.ndim(v) == 2
        rows = _vector(v, len(v) * self.n if stack else self.n, "gram argument")
        rows = rows.reshape(-1, self.n)
        out = np.zeros(rows.shape)
        for block in self._row_blocks:
            out += (rows @ block.T) @ block
        return out if stack else out[0]

    def exact_spectral_norm_sq(self):
        # A projection has eigenvalues 0 and 1.
        return 1.0


def build_cs_operator(m, n, seed):
    """The shared, immutable `CompressiveSensingOperator(m, n, seed)`.

    One instance per (m, n, seed) at the current BLAS thread count; only
    the most recently built one is kept.
    """
    m, n, seed = _integral(m, "m"), _integral(n, "n"), _integral(seed, "seed")
    return _cs_operator(m, n, seed, _blas_threads())


# One entry: the matrix grows with n^2 (13.4 MB at 64x64, ratio 0.1), and
# every caller uses one matrix at a time.  The thread count is part of the
# key because the QR's bits depend on it.
@functools.lru_cache(maxsize=1)
def _cs_operator(m, n, seed, _threads):
    return CompressiveSensingOperator(m, n, seed)
