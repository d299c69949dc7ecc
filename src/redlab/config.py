"""Strict experiment configuration: JSON in, normalized dataclass out.

Unknown keys are errors at every nesting level, so typos never silently
fall back to defaults.  Parsing fills every default, which makes configs
round-trip: to_dict(from_dict(d)) parses back to an equal object.
"""

import json
import math
import os
from dataclasses import dataclass, field

from .images import TEST_IMAGE_NAMES
from .presets import resolve_denoiser_spec
from .solvers import SOLVER_NAMES

_PROBLEMS = ("deblur", "cs")

_TOP_KEYS = {
    "problem",
    "image",
    "shape",
    "image_seed",
    "operator",
    "noise",
    "denoiser",
    "tau",
    "solver",
    "out",
}

_SOLVER_DEFAULTS = {
    "name": "mred",
    "gamma": None,
    "alpha0": 1.0,
    "beta": 0.5,
    "theta": 0.1,
    "epsilon": 1e-12,
    "t": 1000,
    "divergence_cap": 1e2,
    "converge_tol": 0.0,
    "conventional_armijo": False,
}


class ConfigError(ValueError):
    """Configuration problem; message carries the offending key path."""


def _fail(path, msg):
    raise ConfigError(f"{path}: {msg}")


def _check_keys(d, allowed, path):
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        _fail(path, f"unknown key(s) {unknown}")


def _number(d, key, path, default=None, required=False, allow_none=False):
    if key not in d:
        if required:
            _fail(path, f"missing required key {key!r}")
        return default
    v = d[key]
    if v is None and allow_none:
        return None
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(f"{path}.{key}", "expected a number")
    try:
        v = float(v)
    except OverflowError:
        v = math.inf
    # No key takes an infinite value: a noiseless input_snr_db is null.
    if not math.isfinite(v):
        _fail(f"{path}.{key}", "expected a finite number")
    return v


def _integer(d, key, path, default=None, required=False):
    if key not in d:
        if required:
            _fail(path, f"missing required key {key!r}")
        return default
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(f"{path}.{key}", "expected an integer")
    return int(v)


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
    out: str = field(default="runs")


def from_dict(raw, base_dir="."):
    """Validate a raw config dict and return an ExperimentConfig."""
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object at top level")
    _check_keys(raw, _TOP_KEYS, "config")

    problem = raw.get("problem")
    if problem not in _PROBLEMS:
        _fail("config.problem", f"expected one of {_PROBLEMS}, got {problem!r}")

    image_raw = raw.get("image", "phantom")
    if isinstance(image_raw, str):
        if image_raw not in TEST_IMAGE_NAMES:
            _fail(
                "config.image",
                f"unknown image preset {image_raw!r}; valid: {TEST_IMAGE_NAMES}",
            )
        image = {"preset": image_raw}
    elif isinstance(image_raw, dict):
        _check_keys(image_raw, {"pgm"}, "config.image")
        if "pgm" not in image_raw or not isinstance(image_raw["pgm"], str):
            _fail("config.image", "expected {'pgm': path}")
        # Stored absolute so the config round-trips from any directory.
        pgm_path = os.path.abspath(os.path.join(base_dir, image_raw["pgm"]))
        if not os.path.isfile(pgm_path):
            _fail("config.image.pgm", f"file not found: {pgm_path}")
        image = {"pgm": pgm_path}
    else:
        _fail("config.image", "expected a preset name or {'pgm': path}")

    shape_raw = raw.get("shape", [64, 64])
    if (
        not isinstance(shape_raw, (list, tuple))
        or len(shape_raw) != 2
        or any(isinstance(v, bool) or not isinstance(v, int) for v in shape_raw)
    ):
        _fail("config.shape", "expected [height, width] integers")
    shape = (int(shape_raw[0]), int(shape_raw[1]))
    if min(shape) < 1:
        _fail("config.shape", "dimensions must be positive")

    image_seed = _integer(raw, "image_seed", "config", default=1234)

    op_raw = raw.get("operator", {})
    if not isinstance(op_raw, dict):
        _fail("config.operator", "expected an object")
    if problem == "deblur":
        _check_keys(
            op_raw, {"kernel_path", "kernel_size", "kernel_sigma"}, "config.operator"
        )
        if "kernel_path" in op_raw:
            if "kernel_size" in op_raw or "kernel_sigma" in op_raw:
                _fail(
                    "config.operator",
                    "kernel_path excludes kernel_size/kernel_sigma",
                )
            kp = op_raw["kernel_path"]
            if not isinstance(kp, str):
                _fail("config.operator.kernel_path", "expected a path string")
            kp = os.path.abspath(os.path.join(base_dir, kp))
            if not os.path.isfile(kp):
                _fail("config.operator.kernel_path", f"file not found: {kp}")
            operator = {"kernel_path": kp}
        else:
            size = _integer(op_raw, "kernel_size", "config.operator", default=17)
            sigma = _number(op_raw, "kernel_sigma", "config.operator", default=2.0)
            if size < 1 or size % 2 == 0:
                _fail("config.operator.kernel_size", "must be odd and positive")
            if sigma <= 0:
                _fail("config.operator.kernel_sigma", "must be positive")
            operator = {"kernel_size": size, "kernel_sigma": sigma}
    else:
        _check_keys(op_raw, {"ratio", "seed"}, "config.operator")
        ratio = _number(op_raw, "ratio", "config.operator", default=0.1)
        if not 0.0 < ratio < 1.0:
            _fail("config.operator.ratio", "must lie in (0, 1)")
        seed = _integer(op_raw, "seed", "config.operator", default=77)
        operator = {"ratio": ratio, "seed": seed}

    noise_raw = raw.get("noise", {})
    if not isinstance(noise_raw, dict):
        _fail("config.noise", "expected an object")
    _check_keys(noise_raw, {"input_snr_db", "seed"}, "config.noise")
    default_snr = 30.0 if problem == "deblur" else None
    snr = _number(
        noise_raw,
        "input_snr_db",
        "config.noise",
        default=default_snr,
        allow_none=True,
    )
    noise = {
        "input_snr_db": snr,
        "seed": _integer(noise_raw, "seed", "config.noise", default=42),
    }

    den_raw = raw.get("denoiser")
    if not isinstance(den_raw, dict):
        _fail("config.denoiser", "expected an object with a 'name' key")
    try:
        denoiser = resolve_denoiser_spec(den_raw)
    except ValueError as exc:
        _fail("config.denoiser", str(exc))

    tau = _number(raw, "tau", "config", default=0.1)
    if tau <= 0:
        _fail("config.tau", "must be positive")

    sol_raw = raw.get("solver", {})
    if not isinstance(sol_raw, dict):
        _fail("config.solver", "expected an object")
    _check_keys(sol_raw, set(_SOLVER_DEFAULTS), "config.solver")
    solver = dict(_SOLVER_DEFAULTS)
    name = sol_raw.get("name", solver["name"])
    if name not in SOLVER_NAMES:
        _fail("config.solver.name", f"expected one of {SOLVER_NAMES}, got {name!r}")
    solver["name"] = name
    solver["gamma"] = _number(
        sol_raw, "gamma", "config.solver", default=None, allow_none=True
    )
    if solver["gamma"] is not None and solver["gamma"] <= 0:
        _fail("config.solver.gamma", "must be positive when given")
    for key in ("alpha0", "beta", "theta", "epsilon", "divergence_cap", "converge_tol"):
        solver[key] = _number(sol_raw, key, "config.solver", default=solver[key])
    solver["t"] = _integer(sol_raw, "t", "config.solver", default=solver["t"])
    ca = sol_raw.get("conventional_armijo", solver["conventional_armijo"])
    if not isinstance(ca, bool):
        _fail("config.solver.conventional_armijo", "expected a boolean")
    solver["conventional_armijo"] = ca

    out = raw.get("out", "runs")
    if not isinstance(out, str):
        _fail("config.out", "expected a path string")

    return ExperimentConfig(
        problem=problem,
        image=image,
        shape=shape,
        image_seed=image_seed,
        operator=operator,
        noise=noise,
        denoiser=denoiser,
        tau=tau,
        solver=solver,
        out=out,
    )


def to_dict(cfg):
    """Plain-JSON form of a config; from_dict of the result compares equal."""
    image = cfg.image["preset"] if "preset" in cfg.image else dict(cfg.image)
    snr = cfg.noise["input_snr_db"]
    return {
        "problem": cfg.problem,
        "image": image,
        "shape": list(cfg.shape),
        "image_seed": cfg.image_seed,
        "operator": dict(cfg.operator),
        "noise": {
            "input_snr_db": None if snr is None or math.isinf(snr) else snr,
            "seed": cfg.noise["seed"],
        },
        "denoiser": dict(cfg.denoiser),
        "tau": cfg.tau,
        "solver": dict(cfg.solver),
        "out": cfg.out,
    }


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
