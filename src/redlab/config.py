"""Strict experiment configuration: JSON in, normalized dataclass out.

Every key is declared once, with its default, in one table per section, and
a value must have its default's type (see _like).  Unknown keys are errors
at every nesting level, so typos never silently fall back to defaults.
Parsing fills every default, which makes configs round-trip:
to_dict(from_dict(d)) parses back to an equal object.
"""

import json
import math
import os
from dataclasses import asdict, dataclass, fields

from .images import MIN_TEST_IMAGE_EXTENT, TEST_IMAGE_NAMES
from .presets import DENOISER_NAMES, DENOISERS
from .solvers import SOLVER_NAMES, SolverConfig

_PROBLEMS = ("deblur", "cs")

# {key: default} per section; problem and denoiser have no default.
_TOP = {
    "problem": None,
    "image": "phantom",
    "shape": [64, 64],
    "image_seed": 1234,
    "operator": {},
    "noise": {},
    "denoiser": None,
    "tau": 0.1,
    "solver": {},
}
# A deblur operator may instead be {"kernel_path": path}.
_OPERATOR = {
    "deblur": {"kernel_size": 17, "kernel_sigma": 2.0},
    "cs": {"ratio": 0.1, "seed": 77},
}
_NOISE = {
    "deblur": {"input_snr_db": 30.0, "seed": 42},
    "cs": {"input_snr_db": None, "seed": 42},
}
_SOLVER = {
    "name": "mred",
    "gamma": None,
    **{f.name: f.default for f in fields(SolverConfig) if f.name != "gamma"},
}
# Floats that may be null: a null gamma means the default step
# 1/(L + 2 tau), a null input_snr_db noiseless measurements.
_NULLABLE = ("gamma", "input_snr_db")


class ConfigError(ValueError):
    """Configuration problem; message carries the offending key path."""


def _fail(path, msg):
    raise ConfigError(f"{path}: {msg}")


def _like(v, default, path):
    """`v` checked to have the type of `default`.

    A bool or int default takes exactly that type; a float default takes any
    finite number that is not a bool, and returns it as a float.
    """
    if isinstance(default, int):  # bool is an int too
        if type(v) is not type(default):
            _fail(path, "expected a boolean" if type(default) is bool else "expected an integer")
        return v
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(path, "expected a number")
    try:
        v = float(v)
    except OverflowError:
        v = math.inf
    # No key takes an infinite value: a noiseless input_snr_db is null.
    if not math.isfinite(v):
        _fail(path, "expected a finite number")
    return v


def _section(d, defaults, path):
    """The object `d`, keyed by `defaults` only, with every default filled in.

    Numbers and booleans pass _like, as do the nullable floats unless null;
    values with other defaults are left to the caller.
    """
    if not isinstance(d, dict):
        _fail(path, "expected an object")
    unknown = sorted(set(d) - set(defaults))
    if unknown:
        _fail(path, f"unknown key(s) {unknown}")
    out = {**defaults, **d}
    for key, default in defaults.items():
        if key in _NULLABLE:
            if out[key] is None:
                continue
            default = 0.0  # a float
        if isinstance(default, (int, float)):
            out[key] = _like(out[key], default, f"{path}.{key}")
    return out


def _file(v, base_dir, path):
    """Absolute path of an existing file, so the config round-trips from any
    directory."""
    if not isinstance(v, str):
        _fail(path, "expected a path string")
    v = os.path.abspath(os.path.join(base_dir, v))
    if not os.path.isfile(v):
        _fail(path, f"file not found: {v}")
    return v


@dataclass
class ExperimentConfig:
    """Fully resolved experiment description with all defaults applied."""

    problem: str
    image: dict
    shape: tuple
    image_seed: int
    operator: dict
    noise: dict
    denoiser: dict
    tau: float
    solver: dict


def from_dict(raw, base_dir="."):
    """Validate a raw config dict and return an ExperimentConfig."""
    top = _section(raw, _TOP, "config")
    problem = top["problem"]
    if problem not in _PROBLEMS:
        _fail("config.problem", f"expected one of {_PROBLEMS}, got {problem!r}")

    image = top["image"]
    if isinstance(image, str):
        if image not in TEST_IMAGE_NAMES:
            _fail("config.image", f"unknown image preset {image!r}; valid: {TEST_IMAGE_NAMES}")
        image = {"preset": image}
    elif isinstance(image, dict) and list(image) == ["pgm"]:
        image = {"pgm": _file(image["pgm"], base_dir, "config.image.pgm")}
    else:
        _fail("config.image", "expected a preset name or {'pgm': path}")

    shape = top["shape"]
    if not isinstance(shape, (list, tuple)) or len(shape) != 2:
        _fail("config.shape", "expected [height, width] integers")
    shape = tuple(_like(v, 1, "config.shape") for v in shape)
    if min(shape) < 1:
        _fail("config.shape", "dimensions must be positive")
    # Here, not only when the image is drawn, so that a sweep fails before any run.
    if "preset" in image and min(shape) < MIN_TEST_IMAGE_EXTENT:
        m = MIN_TEST_IMAGE_EXTENT
        _fail("config.shape", f"a named test image is at least {m}x{m}")

    op = top["operator"]
    if problem == "cs":
        operator = _section(op, _OPERATOR["cs"], "config.operator")
        # The operator measures m = round(ratio * n) of the n pixels.
        ratio, n = operator["ratio"], shape[0] * shape[1]
        if not (0.0 < ratio < 1.0 and 1 <= round(ratio * n) < n):
            _fail("config.operator.ratio", f"must lie in (0, 1) and give 1 <= m < n = {n}")
    elif isinstance(op, dict) and "kernel_path" in op:
        if len(op) > 1:
            _fail("config.operator", "kernel_path excludes every other key")
        kernel_path = _file(op["kernel_path"], base_dir, "config.operator.kernel_path")
        operator = {"kernel_path": kernel_path}
    else:
        operator = _section(op, _OPERATOR["deblur"], "config.operator")
        if operator["kernel_size"] < 1 or operator["kernel_size"] % 2 == 0:
            _fail("config.operator.kernel_size", "must be odd and positive")
        # Checked here, before the kernel is built: its size grows with k^2.
        if operator["kernel_size"] > min(shape):
            h, w = shape
            _fail("config.operator.kernel_size", f"must not exceed the image extent {h}x{w}")
        if operator["kernel_sigma"] <= 0:
            _fail("config.operator.kernel_sigma", "must be positive")

    noise = _section(top["noise"], _NOISE[problem], "config.noise")

    den = top["denoiser"]
    name = den.get("name") if isinstance(den, dict) else None
    if name not in DENOISER_NAMES:
        _fail("config.denoiser", f"expected an object with a 'name' in {DENOISER_NAMES}")
    denoiser = _section(den, {"name": name, **DENOISERS[name][0]}, "config.denoiser")

    if top["tau"] <= 0:
        _fail("config.tau", "must be positive")

    solver = _section(top["solver"], _SOLVER, "config.solver")
    if solver["name"] not in SOLVER_NAMES:
        _fail("config.solver.name", f"expected one of {SOLVER_NAMES}, got {solver['name']!r}")
    # SolverConfig owns the ranges; a null gamma stands for a positive one.
    checked = {**solver, "gamma": 1.0 if solver["gamma"] is None else solver["gamma"]}
    del checked["name"]
    try:
        SolverConfig(**checked)
    except ValueError as exc:
        _fail("config.solver", str(exc))

    return ExperimentConfig(
        problem=problem,
        image=image,
        shape=shape,
        image_seed=top["image_seed"],
        operator=operator,
        noise=noise,
        denoiser=denoiser,
        tau=top["tau"],
        solver=solver,
    )


def to_dict(cfg):
    """Plain-JSON form of a config; from_dict of the result compares equal."""
    d = asdict(cfg)
    d["image"] = cfg.image.get("preset", d["image"])
    d["shape"] = list(cfg.shape)
    return d


def load_config(path):
    """Read and validate a JSON config file; paths resolve from its directory."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return from_dict(raw, base_dir=os.path.dirname(os.path.abspath(path)))
