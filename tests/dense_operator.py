"""A dense matrix as a `LinearOperator`, for tests that need an identity or
a non-square operator; the package's one dense operator is a sensing matrix
that it draws itself."""

import numpy as np

from redlab import LinearOperator


class DenseOperator(LinearOperator):
    """A copy of `matrix` as an operator; `gram` is adjoint of forward."""

    def __init__(self, matrix):
        self.matrix = np.array(matrix, dtype=np.float64)
        self.m, self.n = self.matrix.shape

    def forward(self, x):
        return self.matrix @ self._check_domain(x)

    def adjoint(self, u):
        return self.matrix.T @ self._check_range(u)
