"""The three solvers as the paper prints them, for tests to compare
`run_solver` with.

Every iteration evaluates G, phi and grad phi afresh at its point, from
the operator's `forward` and `adjoint` and the denoiser's `apply` and
`residual_vjp`:

    G(x)        = A^T (A x - y) + tau * (x - D(x))
    phi(x)      = 0.5 * ||G(x)||^2
    grad phi(x) = A^T A G(x) + tau * (I - J_D(x))^T G(x)

Nothing is carried from one point to the next, no products are stacked
and nothing is counted.
"""

import math

import numpy as np


def reference_solve(name, op, y, den, tau, x0, cfg):
    """Run solver `name` from x0 with the `SolverConfig` cfg.

    Returns (rows, termination), one row (k, phi, mode, backtracks,
    step_used) per recorded iterate, as in a trace.
    """

    def G(x):
        return op.adjoint(op.forward(x) - y) + tau * (x - den.apply(x))

    def phi(x):
        if not np.all(np.isfinite(x)):
            return math.inf
        g = G(x)
        return 0.5 * float(g @ g)

    def grad_phi(x):
        g = G(x)
        return op.adjoint(op.forward(g)) + tau * den.residual_vjp(x, g)

    x = np.array(x0, dtype=np.float64)
    phi_x = phi0 = phi(x)
    rows = [(0, phi_x, "init", 0, 0.0)]
    gamma = cfg.gamma
    for k in range(1, cfg.t + 1):
        if name == "mred":
            grad = grad_phi(x)
            if not (math.isfinite(phi_x) and np.all(np.isfinite(grad))):
                return rows, "diverged"
            grad_sq = float(grad @ grad)
        alpha = cfg.alpha0
        mode, backtracks, step, d = "red_step", 0, gamma, G(x)
        while True:
            x_new = x - step * d
            phi_new = phi(x_new)
            if math.isfinite(phi_new):
                if name == "red":
                    break
                if name == "red_bls" and phi_new <= phi_x:
                    break
                if name == "mred" and phi_new <= phi_x - alpha * cfg.theta * grad_sq:
                    break
            if name == "red":
                return rows, "diverged"
            backtracks += 1
            if name == "red_bls":
                # The shrunk step is kept for every later iteration.
                gamma = step = cfg.beta * gamma
                if gamma < cfg.epsilon:
                    return rows, "step_floor"
                continue
            # mred: backtrack a gradient step on phi, shrinking alpha right
            # after each one.
            if grad_sq == 0.0:
                return rows, "step_floor"
            mode, d = "gradient_step", grad
            step = alpha
            alpha = cfg.beta * alpha
            if alpha < cfg.epsilon:
                return rows, "step_floor"
        x, phi_x = x_new, phi_new
        rows.append((k, phi_x, mode, backtracks, step))
        normalized = 0.0 if phi0 == 0.0 else phi_x / phi0
        if normalized > cfg.divergence_cap:
            return rows, "diverged"
        if cfg.converge_tol > 0.0 and normalized <= cfg.converge_tol:
            return rows, "converged_tol"
    return rows, "max_iters"
