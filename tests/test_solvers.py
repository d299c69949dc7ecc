"""Solver loop behavior: fixed-step divergence, norm backtracking, and the
monotone hybrid, on small deblur instances with known limits."""

import math

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator as ScipyLinearOperator
from scipy.sparse.linalg import cg, eigsh

from redlab import (
    CompressiveSensingOperator,
    DeblurOperator,
    Denoiser,
    IdentityDenoiser,
    LeastSquaresFidelity,
    LinearSmoothingDenoiser,
    RandomConvnetDenoiser,
    REDProblem,
    RngState,
    ScaledDenoiser,
    SolverConfig,
    default_gamma,
    gaussian_kernel,
    SOLVER_NAMES,
    build_cs_operator,
    gaussian_samples,
    run_solver,
)
from redlab.config import from_dict
from redlab.experiments import run_experiment
from redlab.presets import experiment_preset

from dense_operator import DenseOperator

SHAPE = (16, 16)
N = 256


def deblur_problem(denoiser, tau, seed=0, kernel_sigma=1.2, kernel_size=5):
    op = DeblurOperator(SHAPE, gaussian_kernel(kernel_size, kernel_sigma))
    x_true = RngState(seed).uniform(N)
    y = op.forward(x_true)
    return REDProblem(LeastSquaresFidelity(op, y), denoiser, tau), y, x_true


def expansive_problem(seed=0):
    # Scaled identity above 1 makes G lose monotonicity: fixed steps diverge.
    return deblur_problem(ScaledDenoiser(IdentityDenoiser(N), 1.6), 1.0, seed=seed)


def phis(result):
    return [r.phi for r in result.trace]


# ------------------------------------------------------------------- config


def test_config_validation():
    good = dict(gamma=0.5)
    SolverConfig(**good)
    for bad in (
        dict(gamma=0.0),
        dict(gamma=0.5, alpha0=0.0),
        dict(gamma=0.5, beta=0.0),
        dict(gamma=0.5, beta=1.0),
        dict(gamma=0.5, theta=0.0),
        dict(gamma=0.5, theta=0.5),
        dict(gamma=0.5, epsilon=0.0),
        dict(gamma=0.5, t=0),
        dict(gamma=0.5, t=5.5),
        dict(gamma=0.5, divergence_cap=0.0),
        dict(gamma=0.5, converge_tol=-1e-3),
    ):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    assert SolverConfig(gamma=0.5, t=5.0).t == 5


def test_default_gamma():
    assert abs(default_gamma(1.0, 0.1) - 1.0 / 1.2) < 1e-15
    assert abs(default_gamma(1.0, 1.0) - 1.0 / 3.0) < 1e-15
    assert default_gamma(0.0, 0.5) == 1.0
    with pytest.raises(ValueError):
        default_gamma(-1.0, 0.1)
    with pytest.raises(ValueError):
        default_gamma(1.0, 0.0)


def test_x0_validation():
    p, y, _ = deblur_problem(IdentityDenoiser(N), 0.1)
    cfg = SolverConfig(gamma=0.5, t=1)
    with pytest.raises(ValueError):
        run_solver("red", p, np.zeros(N - 1), cfg)
    bad = y.copy()
    bad[0] = np.nan
    with pytest.raises(ValueError):
        run_solver("red", p, bad, cfg)


# ------------------------------------------------- fixed step: convergence


def test_red_identity_denoiser_reaches_deconvolution_limit():
    # With the identity denoiser the iteration solves the normal equations;
    # for an invertible periodic blur the limit is pointwise DFT division.
    kernel = gaussian_kernel(3, 0.6)
    p, y, _x_true = deblur_problem(IdentityDenoiser(N), 0.1, kernel_sigma=0.6, kernel_size=3)
    # Run deep: 1/lambda_min of the blur amplifies the leftover residual
    # into iterate error, so the limit check needs a tight tolerance.
    cfg = SolverConfig(gamma=default_gamma(1.0, 0.1), t=2000, converge_tol=1e-18)
    res = run_solver("red", p, y.copy(), cfg)
    assert res.termination == "converged_tol"
    assert res.final_normalized_residual <= 1e-8
    h, w = SHAPE
    embed = np.zeros(SHAPE)
    c = kernel.shape[0] // 2
    k2 = kernel
    for dy in range(-c, c + 1):
        for dx in range(-c, c + 1):
            embed[dy % h, dx % w] += k2[c + dy, c + dx]
    khat = np.fft.fft2(embed)
    x_oracle = np.real(np.fft.ifft2(np.fft.fft2(y.reshape(SHAPE)) / khat)).reshape(-1)
    assert np.max(np.abs(res.x_star - x_oracle)) < 1e-6


def test_red_trace_shape_and_modes():
    p, y, x_true = deblur_problem(LinearSmoothingDenoiser(SHAPE, 1.5), 0.1)
    cfg = SolverConfig(gamma=default_gamma(1.0, 0.1), t=20)
    res = run_solver("red", p, y.copy(), cfg, psnr_ref=x_true)
    assert res.termination == "max_iters"
    assert len(res.trace) == 21
    assert [r.k for r in res.trace] == list(range(21))
    assert res.trace[0].mode == "init"
    assert res.trace[0].step_used == 0.0
    assert res.trace[0].normalized_residual == 1.0
    for r in res.trace[1:]:
        assert r.mode == "red_step"
        assert r.backtracks == 0
        assert r.step_used == cfg.gamma
        assert r.psnr_db is not None
    # PSNR column matches the usual peak-1 formula.
    mse = float(np.mean((res.x_star - x_true) ** 2))
    assert abs(res.trace[-1].psnr_db - 10.0 * math.log10(1.0 / mse)) < 1e-12
    # A reference equal to the iterate has zero error: +inf dB.
    at_x0 = run_solver("red", p, y.copy(), cfg, psnr_ref=y)
    assert at_x0.trace[0].psnr_db == math.inf
    assert math.isfinite(at_x0.trace[1].psnr_db)


# ------------------------------------------------- start at the fixed point


def test_start_in_solution_set_stays_fixed():
    f = LeastSquaresFidelity(DenseOperator(np.eye(12)), np.zeros(12))
    p = REDProblem(f, IdentityDenoiser(12), tau=0.5)
    x0 = np.zeros(12)
    cfg = SolverConfig(gamma=0.4, t=5)
    for name in SOLVER_NAMES:
        res = run_solver(name, p, x0, cfg)
        assert res.termination == "max_iters"
        assert np.array_equal(res.x_star, x0)
        assert all(r.normalized_residual == 0.0 for r in res.trace)
        assert all(r.backtracks == 0 for r in res.trace)


# ------------------------------------------------------------ norm backtrack


def test_bls_matches_red_when_norm_never_grows():
    p, y, _ = deblur_problem(LinearSmoothingDenoiser(SHAPE, 1.5), 0.1)
    cfg = SolverConfig(gamma=default_gamma(1.0, 0.1), t=50)
    a = run_solver("red", p, y.copy(), cfg)
    b = run_solver("red_bls", p, y.copy(), cfg)
    assert len(a.trace) == len(b.trace)
    for ra, rb in zip(a.trace, b.trace):
        assert abs(ra.phi - rb.phi) <= 1e-12 * max(1.0, abs(ra.phi))
        assert rb.backtracks == 0
    assert np.max(np.abs(a.x_star - b.x_star)) <= 1e-12
    # Neither takes grad phi.  One evaluation at x0 plus, per iteration, one
    # Hessian product of G and one denoiser apply for the accepted trial.
    for res in (a, b):
        c = res.counters
        assert c.vjp_evals == c.grad_phi_evals == 0
        assert c.operator_forwards == c.operator_adjoints == c.denoiser_applies == len(res.trace)


def test_bls_norm_never_increases():
    p, y, _ = expansive_problem()
    cfg = SolverConfig(gamma=default_gamma(1.0, 1.0), t=100)
    res = run_solver("red_bls", p, y.copy(), cfg)
    norms = [r.g_norm for r in res.trace]
    assert all(b <= a for a, b in zip(norms, norms[1:]))


def test_bls_expansive_hits_step_floor():
    p, y, _ = expansive_problem()
    cfg = SolverConfig(gamma=default_gamma(1.0, 1.0), t=200)
    res = run_solver("red_bls", p, y.copy(), cfg)
    assert res.termination == "step_floor"
    assert len(res.trace) < 201
    # The returned point is the last accepted iterate, strictly better than
    # the start but far from a solution.
    assert 0.0 < res.final_normalized_residual < 1.0
    # The floored iteration took its Hessian product of G too, and evaluated
    # every candidate it tried: gamma shrinks from the last accepted step
    # until it drops below epsilon.
    gamma, floored = res.trace[-1].step_used, 0
    while gamma >= cfg.epsilon:
        gamma, floored = cfg.beta * gamma, floored + 1
    c = res.counters
    assert c.vjp_evals == c.grad_phi_evals == 0
    assert c.operator_forwards == c.operator_adjoints == len(res.trace) + 1
    steps = res.trace[1:]
    assert c.denoiser_applies == 1 + sum(1 + r.backtracks for r in steps) + floored


# ------------------------------------------------------------ monotone hybrid


def test_mred_monotone_on_expansive():
    p, y, _ = expansive_problem()
    cfg = SolverConfig(gamma=default_gamma(1.0, 1.0), t=100)
    res = run_solver("mred", p, y.copy(), cfg)
    assert res.termination == "max_iters"
    ph = phis(res)
    assert all(b <= a * (1.0 + 1e-14) for a, b in zip(ph, ph[1:]))
    assert any(r.mode == "gradient_step" for r in res.trace)


def test_mred_beats_norm_backtracking_on_expansive():
    p, y, _ = expansive_problem()
    cfg = SolverConfig(gamma=default_gamma(1.0, 1.0), t=200)
    floor = run_solver("red_bls", p, y.copy(), cfg)
    mono = run_solver("mred", p, y.copy(), cfg)
    assert floor.termination == "step_floor"
    assert mono.final_normalized_residual < floor.final_normalized_residual


def test_mred_matches_red_when_trial_always_accepted():
    # Strongly monotone instance: the fixed-step trial passes the decrease
    # test at every iteration, so the hybrid reduces to the fixed-step run.
    p, y, _ = deblur_problem(LinearSmoothingDenoiser(SHAPE, 1.5), 0.1)
    cfg = SolverConfig(gamma=default_gamma(1.0, 0.1), t=50)
    a = run_solver("red", p, y.copy(), cfg)
    b = run_solver("mred", p, y.copy(), cfg)
    assert len(a.trace) == len(b.trace)
    for ra, rb in zip(a.trace, b.trace):
        assert abs(ra.phi - rb.phi) <= 1e-12 * max(1.0, abs(ra.phi))
        assert rb.backtracks == 0
    assert all(r.mode == "red_step" for r in b.trace[1:])
    assert np.max(np.abs(a.x_star - b.x_star)) <= 1e-12
    # Both carry grad g with the same Hessian product of G: bit-equal runs.
    assert phis(a) == phis(b)
    assert np.array_equal(a.x_star, b.x_star)
    # One phi/grad evaluation per outer iteration, never more.
    assert b.counters.grad_phi_evals == len(b.trace) - 1
    # One evaluation at x0 plus, per iteration, one denoiser apply and one
    # Hessian product of G, which also moves grad g along the trial step.
    c = b.counters
    assert c.operator_forwards == c.operator_adjoints == c.denoiser_applies == len(b.trace)


def test_mred_cost_per_iteration_on_expansive():
    p, y, _ = expansive_problem()
    cfg = SolverConfig(gamma=default_gamma(1.0, 1.0), t=100)
    res = run_solver("mred", p, y.copy(), cfg)
    assert res.termination == "max_iters"
    steps = res.trace[1:]
    c = res.counters
    # One denoiser apply at x0, then one per candidate: the trial and each
    # backtracked gradient step.
    assert c.denoiser_applies == 1 + sum(1 + r.backtracks for r in steps)
    # The exact grad g at x0, the Hessian product of G per iteration, and one
    # more of grad phi per fallback, shared by all its candidates.
    fallbacks = sum(r.mode == "gradient_step" for r in steps)
    assert fallbacks > 0
    assert c.operator_forwards == c.operator_adjoints == 1 + len(steps) + fallbacks
    assert c.operator_forwards <= 1 + 2 * len(steps)


def test_mred_tiny_theta_matches_norm_backtracking():
    # As theta shrinks toward zero the acceptance test degenerates to
    # "phi must not grow", which on this instance accepts every trial,
    # exactly like the norm backtracking run.
    p, y, _ = deblur_problem(LinearSmoothingDenoiser(SHAPE, 1.5), 0.1)
    cfg = SolverConfig(gamma=default_gamma(1.0, 0.1), t=40, theta=1e-12)
    a = run_solver("red_bls", p, y.copy(), cfg)
    b = run_solver("mred", p, y.copy(), cfg)
    assert len(a.trace) == len(b.trace)
    for ra, rb in zip(a.trace, b.trace):
        assert abs(ra.phi - rb.phi) <= 1e-12 * max(1.0, abs(ra.phi))
        assert ra.backtracks == 0 and rb.backtracks == 0


def test_mred_inner_loop_terminates_before_floor():
    # For a smooth quadratic phi the Armijo test succeeds long before the
    # step decays through 60 halvings, so even a tiny epsilon never floors.
    p, y, _ = expansive_problem()
    cfg = SolverConfig(gamma=default_gamma(1.0, 1.0), t=30, epsilon=1e-20)
    res = run_solver("mred", p, y.copy(), cfg)
    assert res.termination == "max_iters"
    assert max(r.backtracks for r in res.trace) < 60


def test_mred_gradient_step_sizes_follow_shrink_schedule():
    p, y, _ = expansive_problem()
    # At alpha0 = 16 the fallbacks backtrack up to three times.
    cfg = SolverConfig(gamma=default_gamma(1.0, 1.0), t=40, alpha0=16.0)
    res = run_solver("mred", p, y.copy(), cfg)
    assert any(r.backtracks >= 2 for r in res.trace)
    for r in res.trace[1:]:
        if r.mode == "gradient_step":
            # Recorded step is alpha0 * beta^(backtracks - 1): the first
            # gradient step has length alpha0.
            assert r.backtracks >= 1
            assert abs(r.step_used - cfg.alpha0 * cfg.beta ** (r.backtracks - 1)) < 1e-15
        else:
            assert r.step_used == cfg.gamma


class _QuadraticDenoiser(Denoiser):
    """D(x) = x + (x - c - x^2) on R^1.  With A = I, y = 0 and tau = 1,
    G(x) = c + x^2 and grad phi(x) = 2 x G(x), which is exactly 0 at x = 0."""

    n = 1

    def __init__(self, c):
        self.c = c

    def apply(self, x):
        x = self._check(x)
        return x + (x - self.c - x * x)

    def residual_vjp(self, x, v):
        return (2.0 * self._check(x) - 1.0) * self._check(v)

    # A 1x1 Jacobian is symmetric.
    residual_jvp = residual_vjp


def scalar_problem(denoiser, y):
    """A = I on R^1, tau = 1."""
    fidelity = LeastSquaresFidelity(DenseOperator(np.eye(1)), np.array([y]))
    return REDProblem(fidelity, denoiser, 1.0)


def test_mred_stops_at_a_stationary_point_of_phi():
    # At x = 0, G = 0.5 but grad phi = 0: the trial x - gamma G raises phi,
    # and no gradient step can lower it, so the run stops at once rather
    # than idle through zero-length gradient steps until t.
    p = scalar_problem(_QuadraticDenoiser(0.5), 0.0)
    cfg = SolverConfig(gamma=default_gamma(1.0, 1.0), t=20)
    res = run_solver("mred", p, np.zeros(1), cfg)
    assert res.termination == "step_floor"
    assert len(res.trace) == 1
    assert res.trace[0].phi == 0.125


class _NanVjpDenoiser(IdentityDenoiser):
    """The identity, with a residual VJP that is NaN everywhere."""

    def residual_vjp(self, x, v):
        return np.full(self.n, np.nan)


def test_mred_diverges_on_a_non_finite_grad_phi():
    # phi(x0) is finite but grad phi is not, so no step can be tested.
    p, y, _ = deblur_problem(_NanVjpDenoiser(N), 0.1)
    res = run_solver("mred", p, y.copy(), SolverConfig(gamma=0.5, t=10))
    assert res.termination == "diverged"
    assert len(res.trace) == 1


def test_mred_trial_needs_sufficient_decrease_not_just_decrease():
    # G(x) = x - 1 from x = 0: phi = 0.5 and |grad phi|^2 = 1.  The trial at
    # gamma = 0.1 lowers phi to 0.81 phi, but the Armijo test at theta =
    # 0.15 asks for phi - 0.15 = 0.7 phi, so the step falls back to a
    # gradient step of length 1, which lands on the solution.
    p = scalar_problem(IdentityDenoiser(1), 1.0)
    cfg = SolverConfig(gamma=0.1, theta=0.15, t=1)
    res = run_solver("mred", p, np.zeros(1), cfg)
    first = res.trace[1]
    assert (first.mode, first.backtracks, first.step_used) == ("gradient_step", 1, 1.0)
    assert first.phi == 0.0


def test_stop_rules_are_inclusive_and_strict_at_their_bounds():
    # converge_tol stops a run whose residual equals it; divergence_cap
    # stops only a residual above it.
    p, y, _ = deblur_problem(LinearSmoothingDenoiser(SHAPE, 1.5), 0.1)
    cfg = SolverConfig(gamma=default_gamma(1.0, 0.1), t=1)
    nr = run_solver("red", p, y.copy(), cfg).trace[1].normalized_residual
    assert 0.0 < nr < 1.0
    tol = run_solver("red", p, y.copy(), SolverConfig(gamma=cfg.gamma, t=5, converge_tol=nr))
    assert (tol.termination, len(tol.trace)) == ("converged_tol", 2)
    cap = run_solver("red", p, y.copy(), SolverConfig(gamma=cfg.gamma, t=1, divergence_cap=nr))
    assert cap.termination == "max_iters"
    assert cap.trace[1].normalized_residual == nr


# ------------------------------------------------- projection identity on CS


@pytest.mark.parametrize(
    "solver, denoiser, tau, gamma_factor",
    [
        # Trials pass now and then between fallbacks, so a trial point's
        # D and P D are taken ahead and then fail.
        ("mred", ScaledDenoiser(LinearSmoothingDenoiser(SHAPE, 1.0), 1.6), 0.5, 1.0),
        # Too long a step: the first trial and its shrunk successor fail.
        ("red_bls", LinearSmoothingDenoiser(SHAPE, 1.0), 1.0, 10.0),
    ],
)
def test_a_failed_trial_leaves_no_product_behind(solver, denoiser, tau, gamma_factor, monkeypatch):
    # A stack that took D and P D of a trial point ahead serves no other
    # candidate and no later iteration once that trial fails.
    op = build_cs_operator(40, N, seed=5)
    y = op.forward(RngState(30).uniform(N)) + 0.01 * gaussian_samples(RngState(5), 40)
    p = REDProblem(LeastSquaresFidelity(op, y), denoiser, tau)
    cfg = SolverConfig(gamma=gamma_factor * default_gamma(1.0, tau), t=100)
    new = run_solver(solver, p, op.adjoint(y), cfg)
    with monkeypatch.context() as mp:
        mp.setattr(CompressiveSensingOperator, "gram_is_projection", False)
        old = run_solver(solver, p, op.adjoint(y), cfg)
    modes = "".join("g" if r.mode == "gradient_step" else "r" for r in new.trace[1:])
    if solver == "mred":
        # After a fallback, a passed trial, then a failed speculative one.
        assert modes.count("grg") >= 5
    else:
        assert new.trace[1].backtracks == 2
    assert new.termination == old.termination == "max_iters"
    assert [(r.mode, r.backtracks, r.step_used) for r in new.trace] == [
        (r.mode, r.backtracks, r.step_used) for r in old.trace
    ]
    for a, b in zip(new.trace, old.trace):
        assert abs(a.phi - b.phi) <= 1e-12 * b.phi


# ----------------------------------------------------------------- divergence


def test_red_diverges_on_expansive():
    p, y, _ = expansive_problem()
    cfg = SolverConfig(gamma=default_gamma(1.0, 1.0), t=200)
    res = run_solver("red", p, y.copy(), cfg)
    assert res.termination == "diverged"
    assert res.final_normalized_residual > cfg.divergence_cap
    assert len(res.trace) < 201
    # One evaluation at x0, then one Hessian product of G and one denoiser
    # apply per iteration, up to the one that crossed the cap.
    c = res.counters
    assert c.vjp_evals == c.grad_phi_evals == 0
    assert c.operator_forwards == c.operator_adjoints == c.denoiser_applies == len(res.trace)


def test_red_nonfinite_iterate_reported_as_divergence():
    p, y, _ = expansive_problem()
    # Cap high enough that the overflow check fires first.
    cfg = SolverConfig(gamma=1e8, t=500, divergence_cap=1e300)
    with np.errstate(over="ignore", invalid="ignore"):
        res = run_solver("red", p, y.copy(), cfg)
    assert res.termination == "diverged"
    for r in res.trace:
        assert math.isfinite(r.phi)


# ---------------------------------------------------------------- determinism


def test_runs_are_bitwise_deterministic():
    den = RandomConvnetDenoiser(SHAPE, 4, 0.8, seed=11)
    p, y, _ = deblur_problem(den, 0.1)
    cfg = SolverConfig(gamma=default_gamma(1.0, 0.1), t=30)
    a = run_solver("mred", p, y.copy(), cfg)
    b = run_solver("mred", p, y.copy(), cfg)
    assert np.array_equal(a.x_star, b.x_star)
    assert phis(a) == phis(b)
    assert [r.g_norm for r in a.trace] == [r.g_norm for r in b.trace]
    assert [r.step_used for r in a.trace] == [r.step_used for r in b.trace]


# ------------------------------------------------------------------- dispatch


def test_run_solver_dispatch():
    p, y, _ = deblur_problem(LinearSmoothingDenoiser(SHAPE, 1.5), 0.1)
    cfg = SolverConfig(gamma=default_gamma(1.0, 0.1), t=10)
    for name in SOLVER_NAMES:
        assert run_solver(name, p, y.copy(), cfg).solver == name
    with pytest.raises(ValueError, match="unknown solver 'sd'"):
        run_solver("sd", p, y.copy(), cfg)


def _gap_bound(problem, x_run, x_ref, lam_min):
    # For affine G(x) = M x - A^T y with M symmetric positive definite,
    # x - x* = M^-1 G(x), so ||x - x*|| <= ||G(x)|| / lambda_min(M) at any x;
    # applied to the run's x_star and to the reference point, it bounds their
    # gap.  The reference, computed without redlab's G, must be a zero of G
    # to rounding, relative to ||A^T y||.  Returns (gap, bound).
    assert lam_min > 0.0
    g_run = np.linalg.norm(problem.operator_g(x_run))
    g_ref = np.linalg.norm(problem.operator_g(x_ref))
    assert g_ref <= 1e-12 * np.linalg.norm(problem.fidelity_gradient(np.zeros(problem.n)))
    return np.linalg.norm(x_run - x_ref), (g_run + g_ref) / lam_min


def _deblur_closed_form_gap(preset):
    # With a linear denoiser W, G(x) = M x - A^T y for M = A^T A + tau (I - W),
    # and M is diagonal in the DFT: x* = F^-1[conj(khat) yhat / (|khat|^2 +
    # tau (1 - what))], with what = 1 for the identity.  lambda_min is exact
    # from the spectra.
    cfg = from_dict(experiment_preset(preset))
    result, built, _ = run_experiment(cfg)
    shape = tuple(cfg.shape)

    def spectrum(kernel):
        r = kernel.shape[0] // 2
        offsets = np.arange(-r, r + 1)
        embed = np.zeros(shape)
        embed[np.ix_(offsets % shape[0], offsets % shape[1])] = kernel
        return np.fft.fft2(embed)

    khat = spectrum(built.problem.fidelity.op.kernel)
    what = 1.0
    if isinstance(built.problem.denoiser, LinearSmoothingDenoiser):
        what = spectrum(built.problem.denoiser.kernel)
        assert np.max(np.abs(what.imag)) < 1e-15
        what = what.real
    else:
        assert isinstance(built.problem.denoiser, IdentityDenoiser)
    eig = np.abs(khat) ** 2 + built.problem.tau * (1.0 - what)
    closed = np.fft.ifft2(np.conj(khat) * np.fft.fft2(built.problem.fidelity.y.reshape(shape)) / eig)
    assert np.max(np.abs(closed.imag)) < 1e-14
    return _gap_bound(built.problem, result.x_star, closed.real.reshape(-1), float(eig.min()))


def test_deblur_nonexpansive_reaches_the_closed_form_fixed_point():
    gap, bound = _deblur_closed_form_gap("deblur_nonexpansive")
    assert gap <= bound


def test_deblur_identity_reaches_the_closed_form_fixed_point():
    # The spectral-division oracle of the preset's comment: W = I.
    gap, bound = _deblur_closed_form_gap("deblur_identity")
    assert gap <= bound


def test_cs_nonexpansive_reaches_the_conjugate_gradient_fixed_point():
    # M = A^T A + tau (I - W) is symmetric positive definite here: A^T A is a
    # projection, I - W is PSD with the constants as its null space, and the
    # projection does not annihilate them.  CG solves M x = A^T y to 1e-14;
    # Lanczos gives lambda_min(M) to machine precision.
    cfg = from_dict(experiment_preset("cs_nonexpansive"))
    result, built, _ = run_experiment(cfg)
    p = built.problem
    op, w = p.fidelity.op, p.denoiser
    assert isinstance(w, LinearSmoothingDenoiser)
    m = ScipyLinearOperator(
        (p.n, p.n), matvec=lambda v: op.gram(v) + p.tau * (v - w.apply(v)), dtype=float
    )
    x_cg, info = cg(m, op.adjoint(p.fidelity.y), rtol=1e-14, atol=0.0)
    assert info == 0
    v0 = RngState(0).uniform(p.n)
    lam_min = float(eigsh(m, k=1, which="SA", v0=v0, return_eigenvectors=False)[0])
    gap, bound = _gap_bound(p, result.x_star, x_cg, lam_min)
    assert gap <= bound
