"""The denoiser-regularized fixed-point operator, its squared-norm loss, and
cost accounting.

For a fidelity g and denoiser D with weight tau, the residual operator is

    G(x) = grad g(x) + tau * (x - D(x))

and the scalar loss driving the monotone solver is phi(x) = 0.5 * ||G(x)||^2
with gradient  A^T A G(x) + tau * (I - J_D(x))^T G(x)  for quadratic g.
"""

from dataclasses import dataclass

from .rng import _positive, _vector


@dataclass
class EvalCounters:
    """Evaluation counts accumulated over one solver run.

    A Hessian product of the quadratic fidelity is charged as one operator
    forward plus one adjoint, even where the operator computes it in one
    pass, and so is a product of a whole stack of vectors taken in one
    call.  The two operator counters thus count passes over the operator's
    data, not vectors.  A denoiser apply is charged where it is computed,
    which may be ahead of the G evaluation that uses it.
    """

    denoiser_applies: int = 0
    vjp_evals: int = 0
    operator_forwards: int = 0
    operator_adjoints: int = 0
    grad_phi_evals: int = 0

    def snapshot(self):
        return EvalCounters(**vars(self))


class REDProblem:
    """Bundles fidelity, denoiser, and regularization weight tau.

    Immutable and shareable.  `run_solver` evaluates the fidelity and the
    denoiser itself and charges their costs; the two exact evaluations
    here count nothing.
    """

    def __init__(self, fidelity, denoiser, tau):
        tau = _positive(tau, "tau")
        if fidelity.op.n != denoiser.n:
            raise ValueError(
                f"fidelity domain dimension {fidelity.op.n} != denoiser dimension {denoiser.n}"
            )
        self.fidelity = fidelity
        self.denoiser = denoiser
        self.tau = tau

    @property
    def n(self):
        return self.denoiser.n

    def operator_g(self, x):
        """G(x) = grad g(x) + tau * (x - D(x))."""
        x = _vector(x, self.n, "x")
        return self.fidelity.gradient(x) + self.tau * (x - self.denoiser.apply(x))

    def grad_phi(self, x):
        """grad phi(x) = A^T A G(x) + tau * (I - J_D(x))^T G(x)."""
        g = self.operator_g(x)
        return self.fidelity.hessian_vp(g) + self.tau * self.denoiser.residual_vjp(x, g)
