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
    ImageGrid,
    Kernel2D,
    TEST_IMAGE_NAMES,
    gaussian_kernel,
    named_test_image,
)
from .operators import (
    CompressiveSensingOperator,
    DeblurOperator,
    LinearOperator,
    SpectralEstimate,
    build_cs_operator,
    spectral_norm_sq,
)
from .fidelity import LeastSquaresFidelity, NoiseSpec, add_noise_at_snr
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
    default_gamma,
    mred,
    red_bls,
    red_sd_fixed,
    run_solver,
)

__all__ = [
    "RngState",
    "gaussian_samples",
    "ImageGrid",
    "Kernel2D",
    "TEST_IMAGE_NAMES",
    "gaussian_kernel",
    "named_test_image",
    "LinearOperator",
    "DeblurOperator",
    "CompressiveSensingOperator",
    "SpectralEstimate",
    "build_cs_operator",
    "spectral_norm_sq",
    "LeastSquaresFidelity",
    "NoiseSpec",
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
    "SolverConfig",
    "IterationRecord",
    "SolveResult",
    "default_gamma",
    "red_sd_fixed",
    "red_bls",
    "mred",
    "run_solver",
]
