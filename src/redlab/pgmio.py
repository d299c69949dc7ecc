"""Binary PGM (P5) image files and plain-text kernel files.

Writing quantizes [0, 1] pixel values to 16-bit levels, big-endian per the
PGM format; values outside [0, 1] are clipped first.  Reading also takes
8-bit files.  Kernel files hold the kernel size on the first line and then size^2 weights
in row-major order, whitespace separated.  Images and kernels are (h, w) and
(k, k) float64 arrays; the readers return them read-only.
"""

import numpy as np

from .rng import _floats


def write_pgm(path, img):
    """Write the 2-D array `img` as a 16-bit PGM."""
    img = _floats(img, "image")
    if img.ndim != 2:
        raise ValueError(f"expected a 2D image, got shape {img.shape}")
    # A NaN has no defined level once cast to an integer.
    if not np.all(np.isfinite(img)):
        raise ValueError("image values must be finite")
    vals = np.clip(img, 0.0, 1.0)
    # Round half away from zero so that quantization is platform independent.
    levels = np.floor(vals * 65535 + 0.5).astype(np.int64)
    levels = np.clip(levels, 0, 65535).astype(">u2")
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n65535\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(levels.tobytes())


def _read_pgm_tokens(data, count):
    """Pull `count` whitespace-separated ASCII tokens, skipping # comments."""
    tokens = []
    i = 0
    n = len(data)
    while len(tokens) < count:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i : i + 1] == b"#":
            while i < n and data[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < n and not data[i : i + 1].isspace():
            i += 1
        if start == i:
            raise ValueError("truncated PGM header")
        tokens.append(data[start:i])
    return tokens, i


def read_pgm(path):
    """Read a binary PGM into a read-only (height, width) array of values
    scaled to [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != b"P5":
        raise ValueError("not a binary PGM (P5) file")
    tokens, pos = _read_pgm_tokens(data[2:], 3)
    pos += 2
    width, height, maxval = (int(t) for t in tokens)
    if width < 1 or height < 1:
        raise ValueError("invalid PGM dimensions")
    if maxval < 1 or maxval > 65535:
        raise ValueError(f"invalid PGM maxval {maxval}")
    # Exactly one whitespace byte separates the header from the raster.
    pos += 1
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype(">u1")
    count = width * height
    raster = data[pos : pos + count * dtype.itemsize]
    if len(raster) != count * dtype.itemsize:
        raise ValueError("truncated PGM raster")
    levels = np.frombuffer(raster, dtype=dtype).astype(np.float64)
    img = (levels / maxval).reshape(height, width)
    img.flags.writeable = False
    return img


def write_kernel_file(path, kernel):
    """Write the square (k, k) array `kernel` as a kernel file."""
    lines = [str(kernel.shape[0])]
    for row in kernel:
        lines.append(" ".join(repr(float(v)) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_kernel_file(path):
    """Read a kernel file into a read-only (size, size) array."""
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError("empty kernel file")
    try:
        size = int(tokens[0])
    except ValueError:
        raise ValueError(f"invalid kernel size token {tokens[0]!r}") from None
    if size < 1 or size % 2 == 0:
        raise ValueError("kernel size must be odd and positive")
    need = size * size
    weights = tokens[1:]
    if len(weights) != need:
        raise ValueError(f"expected {need} kernel weights, got {len(weights)}")
    try:
        vals = np.array([float(t) for t in weights])
    except ValueError as exc:
        raise ValueError(f"invalid kernel weight: {exc}") from None
    if not np.all(np.isfinite(vals)):
        raise ValueError("kernel weights must be finite")
    kernel = vals.reshape(size, size)
    kernel.flags.writeable = False
    return kernel
