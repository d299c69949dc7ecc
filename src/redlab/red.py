"""The denoiser-regularized fixed-point operator, its squared-norm loss, and
cost accounting.

For a fidelity g and denoiser D with weight tau, the residual operator is

    G(x) = grad g(x) + tau * (x - D(x))

and the scalar loss driving the monotone solver is phi(x) = 0.5 * ||G(x)||^2
with gradient  A^T A G(x) + tau * (I - J_D(x))^T G(x)  for quadratic g.
"""

from dataclasses import dataclass, replace

import numpy as np


@dataclass
class EvalCounters:
    """Evaluation counts accumulated over one solver run.

    A Hessian product of the quadratic fidelity is charged as one operator
    forward plus one adjoint, even where the operator computes it in one
    pass, and so is a product of a whole stack of vectors taken in one
    call.  The two operator counters thus count passes over the operator's
    data, not vectors.
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
        if not 0 < tau < np.inf:
            raise ValueError("tau must be positive and finite")
        if fidelity.op.n != denoiser.n:
            raise ValueError(
                f"fidelity domain dimension {fidelity.op.n} != denoiser dimension {denoiser.n}"
            )
        self.fidelity = fidelity
        self.denoiser = denoiser
        self.tau = float(tau)

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

    def operator_g(self, x, counters=None, grad_g=None):
        """G(x); costs one denoiser apply.

        The fidelity gradient costs one forward and one adjoint more, unless
        the caller already holds it and passes it as `grad_g`.
        """
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        if x.size != self.n:
            raise ValueError(f"expected dimension {self.n}, got {x.size}")
        if grad_g is None:
            grad_g = self.fidelity_gradient(x, counters)
        gx = grad_g + self.tau * (x - self.denoiser.apply(x))
        if counters is not None:
            counters.denoiser_applies += 1
        return gx

    def eval_state(self, x, counters=None, g=None, want_hgrad=False):
        """(phi, grad phi, G, A^T A G, A^T A grad phi) from at most one G evaluation.

        G is evaluated unless the caller passes it as `g`.  grad phi is the
        fidelity Hessian applied to G plus tau times the residual VJP r at x
        in the direction G; the Hessian product is returned as well, since
        it also moves the fidelity gradient along a step in the direction G.

        The last entry is None unless `want_hgrad` is set and A^T A is a
        projection P.  Then P grad phi = P G + tau * P r, so one Hessian
        product of the stack [G, r] gives both, in one pass over A.
        """
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        if g is None:
            g = self.operator_g(x, counters)
        r = self.denoiser.residual_vjp(x, g)
        hgrad = None
        if want_hgrad and self.fidelity.op.gram_is_projection:
            hg, hr = self.fidelity_hessian_vp(np.stack((g, r)), counters)
            hgrad = hg + self.tau * hr
        else:
            hg = self.fidelity_hessian_vp(g, counters)
        grad = hg + self.tau * r
        if counters is not None:
            counters.vjp_evals += 1
            counters.grad_phi_evals += 1
        return 0.5 * float(g @ g), grad, g, hg, hgrad
