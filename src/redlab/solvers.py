"""Three solvers for zer(G): one iteration with three acceptance rules.

Each of at most t outer iterations tests the fixed-step trial x - gamma*G(x)
and further candidates against the solver's bound, then records the first
that passes.  A run stops early on divergence (normalized residual above a
cap), on an optional residual tolerance, or when a line search shrinks its
step below the floor epsilon.

- red: any finite candidate passes; a non-finite one is divergence.
- red_bls: ||G|| must not grow; a rejection shrinks gamma for good, so
  repeated growth drives it below epsilon and the run stops at the previous
  iterate with `step_floor`.
- mred: phi = 0.5*||G||^2 must decrease sufficiently,
  phi(candidate) <= phi(x) - alpha*theta*||grad phi(x)||^2; a rejection
  backtracks a gradient step of length alpha on phi, so the recorded phi
  never increases.  As printed, alpha shrinks right after each gradient
  step, so the next test uses the shrunk value.  alpha restarts from alpha0
  at every outer iteration, and gamma never changes.  When every trial
  passes, the run is red's.

An iteration costs one Hessian product A^T A G and one denoiser apply per
candidate.  mred adds one residual VJP for grad phi, and a fallback one
Hessian product of grad phi.  Where A^T A is a projection, both products
follow from products of stacks of two vectors, each of which serves the
iteration that takes it and, when its guess is right, the next one: a run
whose trials pass makes one pass over A per two iterations, and a run that
keeps falling back makes one per iteration.
"""

import math
import sys
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .red import EvalCounters
from .rng import _integral, _is_real, _vector

SOLVER_NAMES = ("red", "red_bls", "mred")


@dataclass
class SolverConfig:
    """Shared solver parameters; gamma is the fixed-point step size."""

    gamma: float
    alpha0: float = 1.0
    beta: float = 0.5
    theta: float = 0.1
    epsilon: float = 1e-12
    t: int = 1000
    divergence_cap: float = 1e2
    converge_tol: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float and not _is_real(value):
                raise ValueError(f"{f.name} must be a real number, got {value!r}")
        for name in ("gamma", "alpha0", "epsilon", "divergence_cap", "converge_tol"):
            # Not math.isfinite, which overflows on an int too large for a float.
            if not abs(getattr(self, name)) <= sys.float_info.max:
                raise ValueError(f"{name} must be finite")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if not self.alpha0 > 0:
            raise ValueError("alpha0 must be positive")
        if not 0 < self.beta < 1:
            raise ValueError("beta must lie in (0, 1)")
        if not 0 < self.theta < 0.5:
            raise ValueError("theta must lie in (0, 1/2)")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        self.t = _integral(self.t, "t")
        if self.t < 1:
            raise ValueError("t must be an integer >= 1")
        if not self.divergence_cap > 0:
            raise ValueError("divergence_cap must be positive")
        if not self.converge_tol >= 0:
            raise ValueError("converge_tol must be non-negative")


@dataclass
class IterationRecord:
    k: int
    phi: float
    g_norm: float
    normalized_residual: float
    mode: str
    backtracks: int
    step_used: float
    psnr_db: Optional[float]
    counters: EvalCounters


@dataclass
class SolveResult:
    x_star: np.ndarray
    trace: list
    termination: str
    solver: str
    config: SolverConfig
    counters: EvalCounters

    @property
    def final_normalized_residual(self):
        return self.trace[-1].normalized_residual


def default_gamma(L, tau):
    """Step size 1/(L + 2 tau) for fidelity gradient Lipschitz constant L."""
    if not L >= 0:
        raise ValueError("L must be non-negative")
    if not tau > 0:
        raise ValueError("tau must be positive")
    gamma = 1.0 / (L + 2.0 * tau)
    if gamma == 0.0:
        raise ValueError(f"tau {tau!r} is too large: the default step 1/(L + 2 tau) rounds to 0")
    return gamma


def _psnr_of(x, ref):
    if ref is None:
        return None
    diff = x - ref
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def run_solver(name, p, x0, cfg, psnr_ref=None):
    """Run the solver `name`, one of SOLVER_NAMES, from x0.

    The loop carries the current point x, its fidelity gradient grad g(x),
    D(x) and G(x).  grad g is evaluated exactly only at x0.  Every later
    point is x - s*d for a direction d whose A^T A d the loop already holds,
    and since g is quadratic, grad g(x - s*d) = grad g(x) - s * A^T A d.  A
    candidate thus costs one denoiser apply and no operator call.  Row 0 of
    the trace is charged with grad g(x0) and D(x0) alone: every other
    evaluation at a point, mred's grad phi too, is made in the iteration
    that leaves it.

    Where A^T A is a projection P, A^T A G(x) follows from P D(x) (see
    `REDProblem.projection_hessian_g`), and the loop also carries P D(x)
    once a product has given it.  Each product then takes a stack of two
    vectors, the second a guess at the next product needed.  After a passed
    trial (or at the start) the stack is [D(x), D(x - gamma*G)]: the trial
    point's D is needed anyway, and if the trial passes, the next iteration
    needs no product.  After a fallback, mred expects another and stacks
    [G, r] with the residual VJP r, for A^T A grad phi = P G + tau * P r.
    """
    if name not in SOLVER_NAMES:
        raise ValueError(f"unknown solver {name!r}; valid: {SOLVER_NAMES}")
    x = _vector(x0, p.n, "x0").copy()
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")
    if psnr_ref is not None:
        psnr_ref = _vector(psnr_ref, p.n, "psnr_ref")
    counters = EvalCounters()
    trace = []
    pairs = p.fidelity.op.gram_is_projection
    grad_g = p.fidelity_gradient(x, counters)
    dx = p.denoise(x, counters)
    g = p.operator_g(x, counters, grad_g, dx)
    g_sq = g0_sq = float(g @ g)
    pdx = None

    def record(k, mode, backtracks, step_used):
        trace.append(
            IterationRecord(
                k=k,
                phi=0.5 * g_sq,
                g_norm=math.sqrt(g_sq),
                # Convention: a start already in zer(G) reports residual 0
                # instead of 0/0, so such runs trace cleanly.
                normalized_residual=0.0 if g0_sq == 0.0 else g_sq / g0_sq,
                mode=mode,
                backtracks=backtracks,
                step_used=step_used,
                psnr_db=_psnr_of(x, psnr_ref),
                counters=counters.snapshot(),
            )
        )

    def result(termination):
        return SolveResult(x, trace, termination, name, cfg, counters)

    record(0, "init", 0, 0.0)
    mode, gamma = "red_step", cfg.gamma
    for k in range(1, cfg.t + 1):
        # D and P D of the trial point, and P r, where a stack gave them.
        d_try = pd_try = pr = None
        if pairs and pdx is None and mode == "red_step":
            # A passed trial tends to follow a passed trial: D of the next
            # trial point joins D(x) in one product.
            x_try = x - gamma * g
            if np.all(np.isfinite(x_try)):
                d_try = p.denoise(x_try, counters)
                pdx, pd_try = p.fidelity_hessian_vp(np.stack((dx, d_try)), counters)
        hg = None if pdx is None else p.projection_hessian_g(grad_g, pdx)
        if name == "mred":
            r = p.residual_vjp(x, g, counters)
            if hg is None and pairs:
                # A fallback tends to follow a fallback: A^T A G and
                # P r, for A^T A grad phi, from one product.
                hg, pr = p.fidelity_hessian_vp(np.stack((g, r)), counters)
            phi, grad, _g, hg = p.eval_state(x, counters, g, hg, r)
            if not (math.isfinite(phi) and np.all(np.isfinite(grad))):
                return result("diverged")
            gp_sq = float(grad @ grad)
        elif hg is None:
            # Every candidate steps along G(x): one product serves all.
            hg = p.fidelity_hessian_vp(g, counters)
        alpha = cfg.alpha0
        mode, backtracks, step, d, hd = "red_step", 0, gamma, g, hg
        while True:
            x_new = x - step * d
            g_new_sq = math.inf
            if np.all(np.isfinite(x_new)):
                grad_g_new = grad_g - step * hd
                d_new = p.denoise(x_new, counters) if d_try is None else d_try
                g_new = p.operator_g(x_new, counters, grad_g_new, d_new)
                g_new_sq = float(g_new @ g_new)
            if math.isfinite(g_new_sq) and (
                name == "red"
                or name == "red_bls" and g_new_sq <= g_sq
                or name == "mred" and 0.5 * g_new_sq <= phi - alpha * cfg.theta * gp_sq
            ):
                break
            if name == "red":
                return result("diverged")
            # Any further candidate is another point than the trial.
            d_try = pd_try = None
            backtracks += 1
            if name == "red_bls":
                gamma = step = cfg.beta * gamma
                if gamma < cfg.epsilon:
                    return result("step_floor")
                continue
            if gp_sq == 0.0:
                # Stationary point of phi with a failing trial: no descent
                # direction remains.
                return result("step_floor")
            if mode == "red_step":
                # The gradient candidates share one Hessian product.
                if pr is None:
                    hgrad = p.fidelity_hessian_vp(grad, counters)
                else:
                    hgrad = hg + p.tau * pr
                mode, d, hd = "gradient_step", grad, hgrad
            step = alpha
            alpha = cfg.beta * alpha
            if alpha < cfg.epsilon:
                return result("step_floor")
        x, grad_g, dx, g, g_sq, pdx = x_new, grad_g_new, d_new, g_new, g_new_sq, pd_try
        record(k, mode, backtracks, step)
        nr = trace[-1].normalized_residual
        if nr > cfg.divergence_cap:
            return result("diverged")
        if cfg.converge_tol > 0.0 and nr <= cfg.converge_tol:
            return result("converged_tol")
    return result("max_iters")
