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
    costs into a caller-owned EvalCounters when one is passed.  Where the
    operator's A^T A is a projection P, `projection_hessian_g` gives
    A^T A G(x) from P D(x) and the fidelity's b = A^T y, so a caller that
    stacks D(x) with another vector gets both products from one pass.
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

    def operator_g(self, x, counters=None, grad_g=None, dx=None):
        """G(x) = grad g(x) + tau * (x - D(x)).

        D(x) costs one denoiser apply, unless the caller already holds it
        and passes it as `dx`.  The fidelity gradient costs one forward and
        one adjoint more, unless the caller passes it as `grad_g`.
        """
        x = _vector(x, self.n, "x")
        if grad_g is None:
            grad_g = self.fidelity_gradient(x, counters)
        if dx is None:
            dx = self.denoise(x, counters)
        return grad_g + self.tau * (x - dx)

    def projection_hessian_g(self, grad_g, pdx):
        """A^T A G(x) from P D(x) where A^T A = P is a projection; no operator call.

        b = A^T y lies in the range of P, and so does grad g = P x - b, so
        P G(x) = P grad g + tau * (P x - P D(x)) = (1 + tau) grad g + tau * (b - P D(x)).
        """
        return (1.0 + self.tau) * grad_g + self.tau * (self.fidelity.b - pdx)

    def eval_state(self, x, counters=None, g=None, hg=None, r=None):
        """(phi, grad phi, G, A^T A G) from at most one G evaluation.

        grad phi is the fidelity Hessian applied to G plus tau times the
        residual VJP r at x in the direction G; the Hessian product is
        returned as well, since it also moves the fidelity gradient along a
        step in the direction G.  G, A^T A G and r are computed unless the
        caller passes them as `g`, `hg` and `r`.
        """
        if g is None:
            g = self.operator_g(x, counters)
        if r is None:
            r = self.residual_vjp(x, g, counters)
        if hg is None:
            hg = self.fidelity_hessian_vp(g, counters)
        if counters is not None:
            counters.grad_phi_evals += 1
        return 0.5 * float(g @ g), hg + self.tau * r, g, hg
