"""Solvers for image inverse problems regularized by denoisers.

The package provides linear measurement operators (periodic deblurring,
random-projection compressive sensing), a family of denoisers with analytic
residual vector-Jacobian products, and three iterative solvers built on the
denoiser-regularized fixed-point map: a fixed-step iteration, a
norm-backtracking variant, and a monotone hybrid that falls back to
sufficient-decrease gradient steps on the squared-residual loss.
"""

__version__ = "0.1.0"

from .rng import RngState, gaussian_samples
from .images import (
    TEST_IMAGE_NAMES,
    gaussian_kernel,
    named_test_image,
)
from .operators import (
    CompressiveSensingOperator,
    DeblurOperator,
    LinearOperator,
    build_cs_operator,
)
from .fidelity import LeastSquaresFidelity, add_noise_at_snr
from .denoisers import (
    Denoiser,
    DctSoftThresholdDenoiser,
    IdentityDenoiser,
    LinearSmoothingDenoiser,
    LipschitzEstimate,
    RandomConvnetDenoiser,
    ScaledDenoiser,
    estimate_lipschitz,
)
from .red import EvalCounters, REDProblem
from .solvers import (
    IterationRecord,
    SolveResult,
    SolverConfig,
    SOLVER_NAMES,
    default_gamma,
    run_solver,
)

__all__ = [
    "RngState",
    "gaussian_samples",
    "TEST_IMAGE_NAMES",
    "gaussian_kernel",
    "named_test_image",
    "LinearOperator",
    "DeblurOperator",
    "CompressiveSensingOperator",
    "build_cs_operator",
    "LeastSquaresFidelity",
    "add_noise_at_snr",
    "Denoiser",
    "IdentityDenoiser",
    "LinearSmoothingDenoiser",
    "DctSoftThresholdDenoiser",
    "ScaledDenoiser",
    "RandomConvnetDenoiser",
    "LipschitzEstimate",
    "estimate_lipschitz",
    "EvalCounters",
    "REDProblem",
    "SOLVER_NAMES",
    "SolverConfig",
    "IterationRecord",
    "SolveResult",
    "default_gamma",
    "run_solver",
]
