"""Least-squares data fidelity and seeded noise injection.

The fidelity g(x) = 0.5 * ||y - A x||^2 supplies value, gradient, and
Hessian products to the solvers.  Noise is white Gaussian, rescaled after
sampling so the realized input SNR matches the request exactly.
"""

import math

import numpy as np

from .rng import RngState, _vector, gaussian_samples


class LeastSquaresFidelity:
    """Quadratic data-fit term 0.5 * ||y - A x||^2 for a linear operator.

    Where A^T A is a projection (`op.gram_is_projection`), keeps
    b = A^T y, so that grad g(x) = A^T A x - b; else b is None.
    """

    def __init__(self, op, y):
        y = _vector(y, op.m, "measurement").copy()
        if not np.all(np.isfinite(y)):
            raise ValueError("measurement values must be finite")
        y.flags.writeable = False
        b = None
        if op.gram_is_projection:
            b = op.adjoint(y)
            b.flags.writeable = False
        self.op = op
        self.y = y
        self.b = b

    def gradient(self, x):
        return self.op.adjoint(self.op.forward(x) - self.y)

    def hessian_vp(self, v):
        """A^T A v; independent of the evaluation point."""
        return self.op.gram(v)


def _amplitude_ratio(snr_db):
    """||A x|| / ||e|| at snr_db: 10^(snr_db / 20), which must be a positive
    finite float."""
    try:
        ratio = 10.0 ** (snr_db / 20.0)
    except OverflowError:
        ratio = math.inf
    if not 0.0 < ratio < math.inf:
        raise ValueError(
            f"input SNR {snr_db!r} dB is out of range: 10^(snr/20) must be a positive finite float"
        )
    return ratio


def add_noise_at_snr(op, x_true, snr_db, seed):
    """Measure x_true through op and add AWGN at exactly the requested SNR.

    Returns (y, e) with y = A x_true + e.  The noise is drawn from `seed`
    and rescaled so that 20*log10(||A x_true|| / ||e||) equals snr_db to
    rounding; snr_db None means a noiseless measurement, e = 0.
    """
    clean = op.forward(x_true)
    clean_norm = float(np.linalg.norm(clean))
    if clean_norm == 0.0:
        raise ValueError("clean measurement is zero; SNR is undefined")
    if snr_db is None:
        return clean.copy(), np.zeros(op.m)
    w = gaussian_samples(RngState(seed), op.m)
    w_norm = float(np.linalg.norm(w))
    if w_norm == 0.0:
        raise RuntimeError("degenerate noise draw")
    sigma = clean_norm / (w_norm * _amplitude_ratio(snr_db))
    e = sigma * w
    return clean + e, e
