"""Named denoiser builders and shipped experiment configurations.

Denoiser specs are plain dicts ({"name": ..., parameters...}) so they can
live inside JSON configs.  Experiment presets are complete config dicts;
the expansive ones are calibrated so the fixed-step solver demonstrably
diverges at the default step size while the monotone solver still makes
progress, and the convnet weight scale is pinned where its estimated
Lipschitz constant lands between 1.5 and 3 (about 2.14 for its seeded
weights).
"""

import copy

from .denoisers import (
    DctSoftThresholdDenoiser,
    IdentityDenoiser,
    LinearSmoothingDenoiser,
    RandomConvnetDenoiser,
    ScaledDenoiser,
)


def _pixels(shape):
    return int(shape[0]) * int(shape[1])


# Each denoiser by name: its parameters with their defaults, and its
# constructor, called as (shape, parameters).
DENOISERS = {
    "identity": ({}, lambda shape, p: IdentityDenoiser(_pixels(shape))),
    "smoother": ({"sigma": 1.5}, lambda shape, p: LinearSmoothingDenoiser(shape, p["sigma"])),
    "dct_threshold": (
        {"threshold": 0.1, "smoothing_mu": 0.02},
        lambda shape, p: DctSoftThresholdDenoiser(shape, p["threshold"], p["smoothing_mu"]),
    ),
    "scaled_identity": (
        {"scale": 1.6},
        lambda shape, p: ScaledDenoiser(IdentityDenoiser(_pixels(shape)), p["scale"]),
    ),
    "scaled_smoother": (
        {"sigma": 1.5, "scale": 1.6},
        lambda shape, p: ScaledDenoiser(LinearSmoothingDenoiser(shape, p["sigma"]), p["scale"]),
    ),
    "convnet": (
        {"channels": 4, "weight_scale": 0.8, "seed": 11},
        lambda shape, p: RandomConvnetDenoiser(shape, p["channels"], p["weight_scale"], p["seed"]),
    ),
}

DENOISER_NAMES = tuple(sorted(DENOISERS))


def build_denoiser(spec, shape):
    """Construct the denoiser a spec ({"name": ..., parameters...}) names for
    a shape; absent parameters take their defaults."""
    defaults, make = DENOISERS[spec["name"]]
    return make(shape, {**defaults, **spec})


_DEBLUR_BASE = {
    "problem": "deblur",
    "image": "phantom",
    "shape": [64, 64],
    "operator": {"kernel_size": 17, "kernel_sigma": 2.0},
    "noise": {"input_snr_db": 30.0, "seed": 42},
}

_CS_BASE = {
    "problem": "cs",
    "image": "phantom",
    "shape": [64, 64],
    "operator": {"ratio": 0.1, "seed": 77},
    "noise": {"input_snr_db": None, "seed": 42},
}

# Complete experiment configs, ready for config.from_dict.
EXPERIMENT_PRESETS = {
    # Identity denoiser over a sharp invertible kernel: the iteration solves
    # the plain least-squares problem, so the limit has a spectral-division
    # oracle and the residual reaches 1e-9.
    "deblur_identity": {
        **_DEBLUR_BASE,
        "operator": {"kernel_size": 3, "kernel_sigma": 0.6},
        "denoiser": {"name": "identity"},
        "tau": 0.1,
        "solver": {"name": "red", "t": 2000, "converge_tol": 1e-9},
    },
    "deblur_nonexpansive": {
        **_DEBLUR_BASE,
        "denoiser": {"name": "smoother", "sigma": 1.5},
        "tau": 0.1,
        "solver": {"name": "mred"},
    },
    # Scaling the identity by 1.6 gives a certified Lipschitz-1.6 denoiser;
    # at tau = 1 the fixed-step map has strongly negative curvature
    # directions and diverges within tens of iterations.
    "deblur_expansive": {
        **_DEBLUR_BASE,
        "denoiser": {"name": "scaled_identity", "scale": 1.6},
        "tau": 1.0,
        "solver": {"name": "mred"},
    },
    "deblur_convnet": {
        **_DEBLUR_BASE,
        "denoiser": {"name": "convnet"},
        "tau": 0.1,
        "solver": {"name": "mred"},
    },
    "cs_nonexpansive": {
        **_CS_BASE,
        "denoiser": {"name": "smoother", "sigma": 1.5},
        "tau": 0.1,
        "solver": {"name": "mred"},
    },
    # The scaled smoother mixes the measurement subspace with the smoothing
    # spectrum, so unlike a scaled identity the divergent directions are
    # actually excited from the backprojected start.
    "cs_expansive": {
        **_CS_BASE,
        "denoiser": {"name": "scaled_smoother", "sigma": 1.5, "scale": 1.6},
        "tau": 1.0,
        "solver": {"name": "mred"},
    },
}

PRESET_NAMES = tuple(sorted(EXPERIMENT_PRESETS))

# Denoiser specs used by the monotonicity suite: one nonexpansive and one
# certified expansive per operator.
SUITE_DENOISERS = {
    "deblur": {
        "nonexpansive": {"name": "smoother", "sigma": 1.5},
        "expansive": {"name": "scaled_identity", "scale": 1.6},
    },
    "cs": {
        "nonexpansive": {"name": "smoother", "sigma": 1.5},
        "expansive": {"name": "scaled_smoother", "sigma": 1.5, "scale": 1.6},
    },
}


def experiment_preset(name):
    """Deep copy of a shipped experiment config dict."""
    if name not in EXPERIMENT_PRESETS:
        raise ValueError(f"unknown preset {name!r}; valid: {PRESET_NAMES}")
    return copy.deepcopy(EXPERIMENT_PRESETS[name])
