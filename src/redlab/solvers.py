"""Three solvers for zer(G): fixed step, norm backtracking, and monotone hybrid.

All three iterate from x0 for at most t outer iterations, record every
accepted iterate, and terminate early on divergence (normalized residual
above a cap), on an optional residual tolerance, or when a line search
shrinks its step below the floor epsilon.

The monotone solver first tries the plain fixed-step update and accepts it
whenever it passes a sufficient-decrease test on phi = 0.5*||G||^2; otherwise
it backtracks gradient steps on phi, which guarantees the recorded phi
sequence never increases.
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
        if self.converge_tol < 0:
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
    if L < 0:
        raise ValueError("L must be non-negative")
    if tau <= 0:
        raise ValueError("tau must be positive")
    return 1.0 / (L + 2.0 * tau)


def _psnr_of(x, ref):
    if ref is None:
        return None
    diff = x - ref
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


class _RunState:
    """Bookkeeping shared by the three solver loops.

    Carries the current point x, its fidelity gradient grad g(x), and G(x).
    grad g is evaluated exactly only at x0.  Every later point is x - s*d
    for a direction d whose A^T A d the loop already holds, and since g is
    quadratic, grad g(x - s*d) = grad g(x) - s * A^T A d.
    """

    def __init__(self, solver, p, x0, cfg, psnr_ref):
        x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
        if x0.size != p.n:
            raise ValueError(f"x0 has dimension {x0.size}, problem is {p.n}")
        if not np.all(np.isfinite(x0)):
            raise ValueError("x0 must be finite")
        self.solver = solver
        self.p = p
        self.cfg = cfg
        self.psnr_ref = psnr_ref
        self.counters = EvalCounters()
        self.trace = []
        self.x = x0.copy()
        self.grad_g = p.fidelity_gradient(self.x, self.counters)
        self.g = p.operator_g(self.x, self.counters, self.grad_g)
        self.g_sq = float(self.g @ self.g)

    def evaluate(self, x_new, step, hd):
        """(grad g, G) at x_new = x - step*d, given hd = A^T A d.

        Costs one denoiser apply and no operator call.
        """
        grad_g = self.grad_g - step * hd
        return grad_g, self.p.operator_g(x_new, self.counters, grad_g)

    def accept(self, x, grad_g, g, g_sq):
        self.x, self.grad_g, self.g, self.g_sq = x, grad_g, g, g_sq

    def residual_of(self, g_sq):
        # Convention: a start already in zer(G) reports residual 0 instead of
        # 0/0, so such runs trace cleanly.
        if self.g0_sq == 0.0:
            return 0.0
        return g_sq / self.g0_sq

    def record_initial(self):
        self.g0_sq = self.g_sq
        self.record(0, "init", 0, 0.0)

    def record(self, k, mode, backtracks, step_used):
        """Append the current point as iterate k."""
        self.trace.append(
            IterationRecord(
                k=k,
                phi=0.5 * self.g_sq,
                g_norm=math.sqrt(self.g_sq),
                normalized_residual=self.residual_of(self.g_sq),
                mode=mode,
                backtracks=backtracks,
                step_used=step_used,
                psnr_db=_psnr_of(self.x, self.psnr_ref),
                counters=self.counters.snapshot(),
            )
        )

    def should_stop(self):
        """Cap / tolerance check on the last recorded residual."""
        nr = self.trace[-1].normalized_residual
        if nr > self.cfg.divergence_cap:
            return "diverged"
        if self.cfg.converge_tol > 0.0 and nr <= self.cfg.converge_tol:
            return "converged_tol"
        return None

    def result(self, termination):
        return SolveResult(
            x_star=self.x,
            trace=self.trace,
            termination=termination,
            solver=self.solver,
            config=self.cfg,
            counters=self.counters,
        )


def red_sd_fixed(p, x0, cfg, psnr_ref=None):
    """Fixed-step iteration x <- x - gamma * G(x)."""
    st = _RunState("red", p, x0, cfg, psnr_ref)
    st.record_initial()
    termination = "max_iters"
    for k in range(1, cfg.t + 1):
        x_new = st.x - cfg.gamma * st.g
        if not np.all(np.isfinite(x_new)):
            termination = "diverged"
            break
        grad_g, g_new = st.evaluate(x_new, cfg.gamma, p.fidelity_hessian_vp(st.g, st.counters))
        g_new_sq = float(g_new @ g_new)
        if not math.isfinite(g_new_sq):
            termination = "diverged"
            break
        st.accept(x_new, grad_g, g_new, g_new_sq)
        st.record(k, "red_step", 0, cfg.gamma)
        stop = st.should_stop()
        if stop:
            termination = stop
            break
    return st.result(termination)


def red_bls(p, x0, cfg, psnr_ref=None):
    """Fixed-point iteration that shrinks gamma whenever ||G|| would grow.

    The shrink is persistent: gamma never resets across outer iterations,
    so repeated growth drives it below epsilon and the solver returns the
    previous iterate with termination `step_floor`.
    """
    st = _RunState("red_bls", p, x0, cfg, psnr_ref)
    st.record_initial()
    gamma = cfg.gamma
    termination = "max_iters"
    for k in range(1, cfg.t + 1):
        # Every candidate steps along G(x): one Hessian product serves all.
        hg = p.fidelity_hessian_vp(st.g, st.counters)
        backtracks = 0
        while True:
            x_new = st.x - gamma * st.g
            grad_g, g_new = st.evaluate(x_new, gamma, hg)
            g_new_sq = float(g_new @ g_new)
            if math.isfinite(g_new_sq) and g_new_sq <= st.g_sq:
                break
            gamma = cfg.beta * gamma
            backtracks += 1
            if gamma < cfg.epsilon:
                return st.result("step_floor")
        st.accept(x_new, grad_g, g_new, g_new_sq)
        st.record(k, "red_step", backtracks, gamma)
        stop = st.should_stop()
        if stop:
            termination = stop
            break
    return st.result(termination)


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
    st = _RunState("mred", p, x0, cfg, psnr_ref)
    phi_prev, grad, _g, hg, hgrad = p.eval_state(st.x, st.counters, st.g)
    st.record_initial()
    termination = "max_iters"
    for k in range(1, cfg.t + 1):
        if k > 1:
            # A fallback tends to follow a fallback; then A^T A grad phi
            # comes with the same pass over A where the operator allows it.
            phi_prev, grad, _g, hg, hgrad = p.eval_state(
                st.x, st.counters, st.g, want_hgrad=mode == "gradient_step"
            )
        if not (math.isfinite(phi_prev) and np.all(np.isfinite(grad))):
            termination = "diverged"
            break
        gp_sq = float(grad @ grad)
        alpha = cfg.alpha0
        mode = "red_step"
        backtracks = 0
        step_used = cfg.gamma
        d, hd = st.g, hg
        floored = False
        while True:
            x_new = st.x - step_used * d
            phi_new = math.inf
            if np.all(np.isfinite(x_new)):
                grad_g, g_new = st.evaluate(x_new, step_used, hd)
                g_new_sq = float(g_new @ g_new)
                phi_new = 0.5 * g_new_sq
            if math.isfinite(phi_new) and phi_new <= phi_prev - alpha * cfg.theta * gp_sq:
                break
            if gp_sq == 0.0:
                # Stationary point of phi with a failing trial: no descent
                # direction remains.
                floored = True
                break
            if mode == "red_step":
                # The gradient candidates share one Hessian product.
                if hgrad is None:
                    hgrad = p.fidelity_hessian_vp(grad, st.counters)
                mode, d, hd = "gradient_step", grad, hgrad
            elif cfg.conventional_armijo:
                alpha = cfg.beta * alpha
                if alpha < cfg.epsilon:
                    floored = True
                    break
            step_used = alpha
            backtracks += 1
            if not cfg.conventional_armijo:
                alpha = cfg.beta * alpha
                if alpha < cfg.epsilon:
                    floored = True
                    break
        if floored:
            return st.result("step_floor")
        st.accept(x_new, grad_g, g_new, g_new_sq)
        st.record(k, mode, backtracks, step_used)
        stop = st.should_stop()
        if stop:
            termination = stop
            break
    return st.result(termination)


def run_solver(name, p, x0, cfg, psnr_ref=None):
    """Dispatch by solver name: red, red_bls, or mred."""
    if name == "red":
        return red_sd_fixed(p, x0, cfg, psnr_ref)
    if name == "red_bls":
        return red_bls(p, x0, cfg, psnr_ref)
    if name == "mred":
        return mred(p, x0, cfg, psnr_ref)
    raise ValueError(f"unknown solver {name!r}; valid: {SOLVER_NAMES}")
