"""Linear measurement operators and the exact spectral norm of each.

Two operators ship: periodic deblurring (`DeblurOperator`, circulant) and
compressive sensing (`CompressiveSensingOperator(m, n, seed)`, the one
dense operator, which draws and owns its matrix).  Both map flat
row-major vectors, expose `forward`, `adjoint` and the composition `gram`
(adjoint of forward), give lambda_max(A^T A) in closed form, and are
immutable after construction.  The circulant operator's `gram` reads its
data once per product, and so does the dense one when BLAS runs on one
thread or when it is given a stack of vectors.
"""

import ctypes
import functools
import glob
import os
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .images import CyclicConvolver, Kernel2D
from .rng import RngState, _integral, gaussian_samples

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
    libs = os.path.dirname(os.path.dirname(np.__file__))
    for path in glob.glob(os.path.join(libs, "numpy.libs", "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn
    return lambda: None


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
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        if x.size != self.n:
            raise ValueError(f"expected domain dimension {self.n}, got {x.size}")
        return x

    def _check_range(self, u):
        u = np.asarray(u, dtype=np.float64).reshape(-1)
        if u.size != self.m:
            raise ValueError(f"expected range dimension {self.m}, got {u.size}")
        return u


class DeblurOperator(LinearOperator):
    """Periodic 2D convolution with a fixed blur kernel; square (m == n)."""

    def __init__(self, shape, kernel):
        h, w = int(shape[0]), int(shape[1])
        if h < 1 or w < 1:
            raise ValueError("image shape must be positive")
        if not isinstance(kernel, Kernel2D):
            raise ValueError("kernel must be a Kernel2D")
        if kernel.size > min(h, w):
            raise ValueError(
                f"kernel size {kernel.size} exceeds image extent {h}x{w}"
            )
        self.shape = (h, w)
        self.kernel = kernel
        self._conv = CyclicConvolver((h, w), kernel)
        self.n = h * w
        self.m = h * w

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

    The m x n matrix (1 <= m < n) is drawn with variance 1/m and its rows
    orthonormalized: a reduced QR of the transpose, with the sign of each
    column fixed so the factor is unique.  A^T A is then the orthogonal
    projection onto the row space.  The draw is scaled, factored in place
    and kept in one buffer.

    `gram` walks the matrix once, in row blocks B_k that fit in L2, and
    sums B_k^T (B_k v); forward then adjoint would stream it twice.  That
    holds for one core.  A threaded BLAS reads the whole matrix from every
    core faster than one core reads it once, and does not thread products
    as small as a block, so then a single vector sees the matrix as one
    block.  A (k, n) stack V always walks the row blocks, as the sum of
    (V B_k^T) B_k: every block serves all k rows while it is in cache,
    which beats k threaded products at any thread count.
    """

    gram_is_projection = True

    def __init__(self, m, n, seed):
        m = _integral(m, "m")
        n = _integral(n, "n")
        if not 1 <= m < n:
            raise ValueError("need 1 <= m < n for an undersampled operator")
        matrix = gaussian_samples(RngState(seed), m * n).reshape(m, n)
        matrix /= np.sqrt(m)
        # LAPACK factors the transpose, an F-ordered buffer, in place.  Both
        # calls query the optimal workspace: the default one runs the
        # unblocked algorithm, slower and with other bits.
        a = matrix.T
        *_, work, _ = lapack.dgeqrf(a, lwork=-1, overwrite_a=1)
        a, tau, _, info = lapack.dgeqrf(a, lwork=int(work[0]), overwrite_a=1)
        signs = np.sign(np.diagonal(a))
        signs[signs == 0.0] = 1.0
        _, work, _ = lapack.dorgqr(a, tau, lwork=-1, overwrite_a=1)
        a, _, info_q = lapack.dorgqr(a, tau, lwork=int(work[0]), overwrite_a=1)
        if info or info_q:
            raise np.linalg.LinAlgError(f"QR failed: info {info}, {info_q}")
        a *= signs
        matrix.flags.writeable = False
        self.matrix = matrix
        self.m, self.n = m, n
        rows = max(1, _GRAM_BLOCK_BYTES // (matrix.itemsize * n))
        self._row_blocks = tuple(matrix[i : i + rows] for i in range(0, m, rows))
        self._blocks = self._row_blocks if _blas_threads() == 1 else (matrix,)

    def forward(self, x):
        return self.matrix @ self._check_domain(x)

    def adjoint(self, u):
        return self.matrix.T @ self._check_range(u)

    def gram(self, v):
        """A^T A v for a vector v, or row by row for a (k, n) stack."""
        v = np.asarray(v, dtype=np.float64)
        if v.ndim == 2:
            if v.shape[1] != self.n:
                raise ValueError(f"expected rows of dimension {self.n}, got {v.shape[1]}")
            out = np.zeros(v.shape)
            for block in self._row_blocks:
                out += (v @ block.T) @ block
            return out
        v = self._check_domain(v)
        out = np.zeros(self.n)
        for block in self._blocks:
            out += block.T @ (block @ v)
        return out

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
# key because the operator fixes its gram blocking when it is built.
@functools.lru_cache(maxsize=1)
def _cs_operator(m, n, seed, _threads):
    return CompressiveSensingOperator(m, n, seed)


@dataclass
class SpectralEstimate:
    """Largest eigenvalue of A^T A; exact, so iterations is 0 and converged True."""

    value: float
    iterations: int
    converged: bool


def spectral_norm_sq(op):
    """lambda_max(A^T A), from the operator's closed form."""
    return SpectralEstimate(op.exact_spectral_norm_sq(), 0, True)
