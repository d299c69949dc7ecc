"""Three solvers for zer(G): one iteration with three acceptance rules.

Each of at most t outer iterations tests the fixed-step trial x - gamma*G(x)
and further candidates against the solver's bound, then records the first
that passes.  A run stops early on divergence (normalized residual above a
cap), on an optional residual tolerance, or when a line search shrinks its
step below the floor epsilon.

- red: any finite candidate passes; a non-finite one is divergence.
- red_bls: ||G|| must not grow; a rejection shrinks gamma for good.
- mred: phi = 0.5*||G||^2 must decrease sufficiently; a rejection backtracks
  a gradient step on phi, so the recorded phi never increases.  When every
  trial passes, the run is red's.

An iteration costs one Hessian product A^T A G and one denoiser apply per
candidate.  mred adds one residual VJP for grad phi, and a fallback one
Hessian product of grad phi, unless eval_state took it with A^T A G.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .red import EvalCounters

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
    conventional_armijo: bool = False

    def __post_init__(self):
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
        if int(self.t) != self.t or self.t < 1:
            raise ValueError("t must be an integer >= 1")
        self.t = int(self.t)
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


def _solve(solver, p, x0, cfg, psnr_ref):
    """The iteration the three solvers share; `solver` names the rule.

    The loop carries the current point x, its fidelity gradient grad g(x),
    and G(x).  grad g is evaluated exactly only at x0.  Every later point is
    x - s*d for a direction d whose A^T A d the loop already holds, and since
    g is quadratic, grad g(x - s*d) = grad g(x) - s * A^T A d.  A candidate
    thus costs one denoiser apply and no operator call.
    """
    x = np.array(x0, dtype=np.float64).reshape(-1)
    if x.size != p.n:
        raise ValueError(f"x0 has dimension {x.size}, problem is {p.n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")
    counters = EvalCounters()
    trace = []
    grad_g = p.fidelity_gradient(x, counters)
    g = p.operator_g(x, counters, grad_g)
    g_sq = g0_sq = float(g @ g)

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
        return SolveResult(x, trace, termination, solver, cfg, counters)

    if solver == "mred":
        phi, grad, _g, hg, hgrad = p.eval_state(x, counters, g)
    record(0, "init", 0, 0.0)
    gamma = cfg.gamma
    for k in range(1, cfg.t + 1):
        if solver != "mred":
            # Every candidate steps along G(x): one Hessian product serves all.
            hg = p.fidelity_hessian_vp(g, counters)
        elif k > 1:
            # A fallback tends to follow a fallback; then A^T A grad phi
            # comes with the same pass over A where the operator allows it.
            phi, grad, _g, hg, hgrad = p.eval_state(
                x, counters, g, want_hgrad=mode == "gradient_step"
            )
        if solver == "mred":
            if not (math.isfinite(phi) and np.all(np.isfinite(grad))):
                return result("diverged")
            gp_sq = float(grad @ grad)
        alpha = cfg.alpha0
        mode, backtracks, step, d, hd = "red_step", 0, gamma, g, hg
        while True:
            x_new = x - step * d
            g_new_sq = math.inf
            if np.all(np.isfinite(x_new)):
                grad_g_new = grad_g - step * hd
                g_new = p.operator_g(x_new, counters, grad_g_new)
                g_new_sq = float(g_new @ g_new)
            if math.isfinite(g_new_sq) and (
                solver == "red"
                or solver == "red_bls" and g_new_sq <= g_sq
                or solver == "mred" and 0.5 * g_new_sq <= phi - alpha * cfg.theta * gp_sq
            ):
                break
            if solver == "red":
                return result("diverged")
            backtracks += 1
            if solver == "red_bls":
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
                if hgrad is None:
                    hgrad = p.fidelity_hessian_vp(grad, counters)
                mode, d, hd = "gradient_step", grad, hgrad
            elif cfg.conventional_armijo:
                alpha = cfg.beta * alpha
                if alpha < cfg.epsilon:
                    return result("step_floor")
            step = alpha
            if not cfg.conventional_armijo:
                alpha = cfg.beta * alpha
                if alpha < cfg.epsilon:
                    return result("step_floor")
        x, grad_g, g, g_sq = x_new, grad_g_new, g_new, g_new_sq
        record(k, mode, backtracks, step)
        nr = trace[-1].normalized_residual
        if nr > cfg.divergence_cap:
            return result("diverged")
        if cfg.converge_tol > 0.0 and nr <= cfg.converge_tol:
            return result("converged_tol")
    return result("max_iters")


def red_sd_fixed(p, x0, cfg, psnr_ref=None):
    """Fixed-step iteration x <- x - gamma * G(x); diverged on a non-finite step."""
    return _solve("red", p, x0, cfg, psnr_ref)


def red_bls(p, x0, cfg, psnr_ref=None):
    """Fixed-point iteration that shrinks gamma whenever ||G|| would grow.

    The shrink is persistent: gamma never resets across outer iterations,
    so repeated growth drives it below epsilon and the solver returns the
    previous iterate with termination `step_floor`.
    """
    return _solve("red_bls", p, x0, cfg, psnr_ref)


def mred(p, x0, cfg, psnr_ref=None):
    """Monotone hybrid: fixed-step trial, gradient-step fallback on phi.

    Per outer iteration: evaluate phi and grad phi at the current point
    once; take the fixed-step trial; accept any candidate satisfying
    phi(candidate) <= phi(x) - alpha*theta*||grad phi(x)||^2, otherwise
    replace it by a gradient step of length alpha.  Following the printed
    procedure, alpha shrinks immediately after each gradient step, so the
    next acceptance test uses the shrunk value; the conventional_armijo
    switch instead tests each step against the value that produced it.
    alpha restarts from alpha0 at every outer iteration; gamma never
    changes.
    """
    return _solve("mred", p, x0, cfg, psnr_ref)


def run_solver(name, p, x0, cfg, psnr_ref=None):
    """Dispatch by solver name: red, red_bls, or mred."""
    if name == "red":
        return red_sd_fixed(p, x0, cfg, psnr_ref)
    if name == "red_bls":
        return red_bls(p, x0, cfg, psnr_ref)
    if name == "mred":
        return mred(p, x0, cfg, psnr_ref)
    raise ValueError(f"unknown solver {name!r}; valid: {SOLVER_NAMES}")
