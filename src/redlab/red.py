"""The denoiser-regularized fixed-point operator, its squared-norm loss, and
cost accounting.

For a fidelity g and denoiser D with weight tau, the residual operator is

    G(x) = grad g(x) + tau * (x - D(x))

and the scalar loss driving the monotone solver is phi(x) = 0.5 * ||G(x)||^2
with gradient  A^T A G(x) + tau * (I - J_D(x))^T G(x)  for quadratic g.
"""

from dataclasses import dataclass, replace

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
        return replace(self)


class REDProblem:
    """Bundles fidelity, denoiser, and regularization weight tau.

    Immutable and shareable; evaluation methods are pure and report their
    costs into a caller-owned EvalCounters when one is passed.
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

    def fidelity_gradient(self, x, counters=None):
        """grad g(x) = A^T (A x - y); costs one forward, one adjoint."""
        if counters is not None:
            counters.operator_forwards += 1
            counters.operator_adjoints += 1
        return self.fidelity.gradient(x)

    def fidelity_hessian_vp(self, v, counters=None):
        """A^T A v, row by row for a stack where the operator takes one.

        Costs one forward, one adjoint.
        """
        if counters is not None:
            counters.operator_forwards += 1
            counters.operator_adjoints += 1
        return self.fidelity.hessian_vp(v)

    def denoise(self, x, counters=None):
        """D(x); costs one denoiser apply."""
        if counters is not None:
            counters.denoiser_applies += 1
        return self.denoiser.apply(x)

    def residual_vjp(self, x, v, counters=None):
        """(I - J_D(x))^T v; costs one residual VJP."""
        if counters is not None:
            counters.vjp_evals += 1
        return self.denoiser.residual_vjp(x, v)

    def operator_g(self, x, counters=None):
        """G(x) = grad g(x) + tau * (x - D(x)); costs one fidelity gradient
        and one denoiser apply."""
        x = _vector(x, self.n, "x")
        return self.fidelity_gradient(x, counters) + self.tau * (x - self.denoise(x, counters))

    def grad_phi(self, x, counters=None):
        """grad phi(x) = A^T A G(x) + tau * (I - J_D(x))^T G(x).

        Costs one G evaluation, one Hessian product and one residual VJP.
        """
        g = self.operator_g(x, counters)
        r = self.residual_vjp(x, g, counters)
        if counters is not None:
            counters.grad_phi_evals += 1
        return self.fidelity_hessian_vp(g, counters) + self.tau * r
