"""Least-squares data fidelity and seeded noise injection.

The fidelity g(x) = 0.5 * ||y - A x||^2 supplies value, gradient, and
Hessian products to the solvers.  Noise is white Gaussian, rescaled after
sampling so the realized input SNR matches the request exactly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .rng import RngState, gaussian_samples


class LeastSquaresFidelity:
    """Quadratic data-fit term 0.5 * ||y - A x||^2 for a linear operator."""

    def __init__(self, op, y):
        y = np.asarray(y, dtype=np.float64).reshape(-1).copy()
        if y.size != op.m:
            raise ValueError(f"measurement has dimension {y.size}, operator range is {op.m}")
        if not np.all(np.isfinite(y)):
            raise ValueError("measurement values must be finite")
        y.flags.writeable = False
        self.op = op
        self.y = y

    def gradient(self, x):
        return self.op.adjoint(self.op.forward(x) - self.y)

    def hessian_vp(self, v):
        """A^T A v; independent of the evaluation point."""
        return self.op.gram(v)


@dataclass
class NoiseSpec:
    """Measurement-noise request: target input SNR in dB plus sampling seed.

    input_snr_db may be math.inf for a noiseless measurement.
    """

    input_snr_db: float
    seed: int


def add_noise_at_snr(op, x_true, spec):
    """Measure x_true through op and add AWGN at exactly the requested SNR.

    Returns (y, e) with y = A x_true + e.  The sampled noise is rescaled so
    that 20*log10(||A x_true|| / ||e||) equals spec.input_snr_db to rounding.
    """
    clean = op.forward(x_true)
    clean_norm = float(np.linalg.norm(clean))
    if clean_norm == 0.0:
        raise ValueError("clean measurement is zero; SNR is undefined")
    if math.isinf(spec.input_snr_db):
        e = np.zeros(op.m)
        return clean.copy(), e
    w = gaussian_samples(RngState(spec.seed), op.m)
    w_norm = float(np.linalg.norm(w))
    if w_norm == 0.0:
        raise RuntimeError("degenerate noise draw")
    sigma = clean_norm / (w_norm * 10.0 ** (spec.input_snr_db / 20.0))
    e = sigma * w
    return clean + e, e
