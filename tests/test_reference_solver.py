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
"""

import math

import numpy as np
import pytest

from redlab import (
    DctSoftThresholdDenoiser,
    DeblurOperator,
    IdentityDenoiser,
    LeastSquaresFidelity,
    LinearSmoothingDenoiser,
    RandomConvnetDenoiser,
    REDProblem,
    RngState,
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


@pytest.mark.parametrize("op_name,den_name", CASES)
def test_run_solver_takes_the_reference_steps(op_name, den_name):
    op = OPERATORS[op_name]()
    den = DENOISERS[den_name]()
    y = op.forward(RngState(1).uniform(256))
    x0 = y.copy() if op_name == "deblur" else op.adjoint(y)
    L = op.exact_spectral_norm_sq()
    for tau in (0.1, 1.0):
        p = REDProblem(LeastSquaresFidelity(op, y), den, tau)
        for factor in (1.0, 4.0):
            cfg = SolverConfig(gamma=factor * default_gamma(L, tau), t=30)
            for name in SOLVER_NAMES:
                run = run_solver(name, p, x0, cfg)
                rows, termination = reference_solve(name, op, y, den, tau, x0, cfg)
                where = f"{name}, tau {tau}, gamma x{factor}"
                assert run.termination == termination, where
                assert len(run.trace) == len(rows), where
                g0_norm = math.sqrt(2.0 * rows[0][1])
                for rec, (k, phi, mode, backtracks, step) in zip(run.trace, rows):
                    at = f"{where}, k {k}"
                    assert (rec.k, rec.mode, rec.backtracks, rec.step_used) == (
                        k, mode, backtracks, step
                    ), at
                    g_norm = math.sqrt(2.0 * phi)
                    assert abs(rec.g_norm - g_norm) <= 1e-9 * g_norm + 1e-14 * g0_norm, at
