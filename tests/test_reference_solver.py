"""`run_solver` against the solvers as the paper prints them.

`run_solver` carries the fidelity gradient by linearity, carries D(x) and
P D(x), takes A^T A G from the projection identity on CS and stacks two
vectors per product; `reference_solver.reference_solve` does none of that.
Both must take the same steps: the same modes, backtracks, step sizes and
termination, and the same ||G|| to within 1e-9 relative plus 1e-14 of
||G(x0)||.  The absolute part is roundoff on the scale of G's terms: the
carried gradient differs from a fresh one by about 1e-16 ||G(x0)||, which
near a fixed point (phi 1e-15 of its start within 30 iterations on deblur
at tau 1) is more than 1e-9 of ||G|| itself.

`run_solver` on an operator of the test's own, which takes every product
one vector at a time as A^T (A v), must take the same steps too.
"""

import math

import numpy as np
import pytest

from redlab import (
    DctSoftThresholdDenoiser,
    DeblurOperator,
    IdentityDenoiser,
    LeastSquaresFidelity,
    LinearOperator,
    LinearSmoothingDenoiser,
    RandomConvnetDenoiser,
    REDProblem,
    ScaledDenoiser,
    SOLVER_NAMES,
    SolverConfig,
    build_cs_operator,
    default_gamma,
    gaussian_kernel,
    run_solver,
)
from reference_solver import reference_solve

SHAPE = (16, 16)

OPERATORS = {
    "deblur": lambda: DeblurOperator(SHAPE, gaussian_kernel(5, 1.2)),
    "cs": lambda: build_cs_operator(40, 256, 5),
}

DENOISERS = {
    "identity": lambda: IdentityDenoiser(256),
    "smoother": lambda: LinearSmoothingDenoiser(SHAPE, 1.0),
    "scaled_smoother": lambda: ScaledDenoiser(LinearSmoothingDenoiser(SHAPE, 1.0), 1.6),
    "dct_threshold": lambda: DctSoftThresholdDenoiser(SHAPE, 0.1, 0.02),
    "convnet": lambda: RandomConvnetDenoiser(SHAPE, 4, 0.8, seed=11),
}

# On CS the start x0 = A^T y gives G(x0) = 0 for the identity denoiser, so
# every phi there is roundoff.
CASES = [
    (op, den) for op in OPERATORS for den in DENOISERS if (op, den) != ("cs", "identity")
]


def _runs(cases, factors, t):
    """(where, name, problem, x0, cfg, reference rows, reference termination)
    for every run of the grid: each case, tau, gamma factor and solver."""
    for op_name, den_name in cases:
        op = OPERATORS[op_name]()
        den = DENOISERS[den_name]()
        y = op.forward(np.random.default_rng(1).random(256))
        x0 = y.copy() if op_name == "deblur" else op.adjoint(y)
        L = op.exact_spectral_norm_sq()
        for tau in (0.1, 1.0):
            p = REDProblem(LeastSquaresFidelity(op, y), den, tau)
            for factor in factors:
                cfg = SolverConfig(gamma=factor * default_gamma(L, tau), t=t)
                for name in SOLVER_NAMES:
                    rows, termination = reference_solve(name, op, y, den, tau, x0, cfg)
                    where = f"{op_name}/{den_name}, {name}, tau {tau}, gamma x{factor}"
                    yield where, name, p, x0, cfg, rows, termination


def _difference(run, rows, termination):
    """How `run` leaves the reference's steps first, or None if it takes
    them all."""
    if run.termination != termination:
        return f"terminates {run.termination}, reference {termination}"
    if len(run.trace) != len(rows):
        return f"{len(run.trace)} rows, reference {len(rows)}"
    g0_norm = math.sqrt(2.0 * rows[0][1])
    for rec, (k, phi, mode, backtracks, step) in zip(run.trace, rows):
        got = (rec.mode, rec.backtracks, rec.step_used)
        if (rec.k, *got) != (k, mode, backtracks, step):
            return f"k {k}: {got}, reference {(mode, backtracks, step)}"
        g_norm = math.sqrt(2.0 * phi)
        if not abs(rec.g_norm - g_norm) <= 1e-9 * g_norm + 1e-14 * g0_norm:
            return f"k {k}: ||G|| {rec.g_norm!r}, reference {g_norm!r}"
    return None


class RowByRow(LinearOperator):
    """`op`, with every A^T A product, each row of a stack alone, taken as
    op.adjoint(op.forward(v))."""

    def __init__(self, op):
        self.op, self.n, self.m = op, op.n, op.m
        self.gram_is_projection = op.gram_is_projection

    def forward(self, x):
        return self.op.forward(x)

    def adjoint(self, u):
        return self.op.adjoint(u)

    def gram(self, v):
        if np.ndim(v) == 1:
            return self.adjoint(self.forward(v))
        return np.stack([self.adjoint(self.forward(row)) for row in v])

    def exact_spectral_norm_sq(self):
        return self.op.exact_spectral_norm_sq()


def _serve_row_by_row(name, p, x0, cfg):
    """`run_solver` on `p` with its operator taken row by row."""
    f = p.fidelity
    row_by_row = REDProblem(LeastSquaresFidelity(RowByRow(f.op), f.y), p.denoiser, p.tau)
    return run_solver(name, row_by_row, x0, cfg)


@pytest.mark.parametrize("op_name,den_name", CASES)
def test_run_solver_takes_the_reference_steps(op_name, den_name):
    for where, name, p, x0, cfg, rows, termination in _runs([(op_name, den_name)], (1.0, 4.0), 30):
        diff = _difference(run_solver(name, p, x0, cfg), rows, termination)
        assert diff is None, f"{where}: {diff}"


# Runs where a row-by-row operator leaves the reference's steps in the
# roundoff tail.  Here ||G|| is 1.2e-15 at k 28, below
# eps * (||grad g|| + tau ||x|| + tau ||D(x)||) = 3.6e-15, and the traced
# phi is 30% off the exact one, so the k-29 sufficient-decrease test
# compares roundoff: products taken in another order flip it (ROADMAP
# item 3).  Each must keep differing, so that a fix shows here.
ROUNDOFF_TAIL = {"deblur/smoother, mred, tau 1.0, gamma x4.0"}


@pytest.mark.parametrize("op_name,den_name", CASES)
def test_a_row_by_row_driver_takes_the_reference_steps(op_name, den_name):
    # A stacked product, or one the operator takes in one pass, differs in
    # its last bits from A^T (A v) of each vector alone; the loop's
    # decisions must not depend on which it is served.
    for where, name, p, x0, cfg, rows, termination in _runs([(op_name, den_name)], (1.0, 4.0), 30):
        diff = _difference(_serve_row_by_row(name, p, x0, cfg), rows, termination)
        if where in ROUNDOFF_TAIL:
            assert diff is not None, f"{where} now takes the reference steps"
        else:
            assert diff is None, f"{where}: {diff}"


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 16: the carried grad g drifts from a fresh one over 100 "
    "iterations on CS at gamma x4, and five runs leave the reference's steps",
)
def test_run_solver_takes_the_reference_steps_on_long_cs_runs():
    cs_cases = [case for case in CASES if case[0] == "cs"]
    differences = []
    for where, name, p, x0, cfg, rows, termination in _runs(cs_cases, (4.0,), 100):
        diff = _difference(run_solver(name, p, x0, cfg), rows, termination)
        if diff is not None:
            differences.append(f"{where}: {diff}")
    assert not differences, "\n".join(differences)
