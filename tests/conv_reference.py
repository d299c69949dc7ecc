"""Periodic convolution by scipy.signal.convolve2d: the tests' reference,
independent of the package's own convolution code."""

from scipy.signal import convolve2d


def convolve2d_wrap(arr, kern):
    """Periodic 2D convolution with a centered odd kernel:
    out[p] = sum_d kern[c + d] * arr[(p - d) mod shape]."""
    return convolve2d(arr, kern, mode="same", boundary="wrap")
