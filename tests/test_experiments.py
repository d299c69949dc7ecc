"""Experiment configs, run artifacts, sweeps, plots, and the CLI."""

import copy
import dataclasses
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import redlab
from redlab import experiments, operators
from redlab import (
    CompressiveSensingOperator,
    DctSoftThresholdDenoiser,
    IdentityDenoiser,
    LeastSquaresFidelity,
    LinearSmoothingDenoiser,
    REDProblem,
    RngState,
    ScaledDenoiser,
    SOLVER_NAMES,
    SolverConfig,
    TEST_IMAGE_NAMES,
    default_gamma,
    gaussian_kernel,
    named_test_image,
    run_solver,
)
from redlab.cli import main
from redlab.config import ConfigError, ExperimentConfig, from_dict, load_config, to_dict
from redlab.experiments import (
    build_experiment,
    grad_check,
    lipschitz_report,
    make_data,
    run_dir,
    run_experiment,
    run_sweep,
)
from redlab.pgmio import read_kernel_file, read_pgm, write_kernel_file, write_pgm
from redlab.presets import (
    DENOISERS,
    EXPERIMENT_PRESETS,
    PRESET_NAMES,
    build_denoiser,
    experiment_preset,
)
from redlab.svgplot import plot_residual_curves
from redlab.traceio import (
    read_aggregate_csv,
    read_sidecar,
    read_trace_csv,
    write_aggregate_csv,
    write_trace_csv,
)

from dense_operator import DenseOperator

SMALL = {
    "problem": "deblur",
    "shape": [32, 32],
    "operator": {"kernel_size": 9, "kernel_sigma": 2.0},
    "denoiser": {"name": "smoother", "sigma": 1.5},
    "tau": 0.1,
    "solver": {"name": "mred", "t": 20},
}

EXPANSIVE_SMALL = {
    "problem": "deblur",
    "shape": [32, 32],
    "operator": {"kernel_size": 5, "kernel_sigma": 1.2},
    "denoiser": {"name": "scaled_identity", "scale": 1.6},
    "tau": 1.0,
    "solver": {"name": "red", "t": 200},
}


CS_SMALL = {
    "problem": "cs",
    "shape": [32, 32],
    "operator": {"ratio": 0.1, "seed": 5},
    "denoiser": {"name": "smoother", "sigma": 1.5},
    "tau": 0.1,
    "solver": {"name": "mred", "t": 20},
}


def write_config(tmp_path, raw, name="cfg.json"):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as fh:
        json.dump(raw, fh)
    return path


# -------------------------------------------------------------------- config


def test_config_defaults():
    cfg = from_dict({"problem": "deblur", "denoiser": {"name": "smoother"}})
    assert cfg.image == {"preset": "phantom"}
    assert cfg.shape == (64, 64)
    assert cfg.image_seed == 1234
    assert cfg.operator == {"kernel_size": 17, "kernel_sigma": 2.0}
    assert cfg.noise == {"input_snr_db": 30.0, "seed": 42}
    assert cfg.denoiser["name"] == "smoother"
    assert cfg.denoiser["sigma"] == 1.5
    assert cfg.tau == 0.1
    assert cfg.solver == {
        "name": "mred",
        "gamma": None,
        "alpha0": 1.0,
        "beta": 0.5,
        "theta": 0.1,
        "epsilon": 1e-12,
        "t": 1000,
        "divergence_cap": 100.0,
        "converge_tol": 0.0,
    }
    # Where a run goes is the caller's choice, not part of the config.
    assert "out" not in to_dict(cfg)


def test_config_cs_defaults():
    cfg = from_dict({"problem": "cs", "denoiser": {"name": "identity"}})
    assert cfg.operator == {"ratio": 0.1, "seed": 77}
    assert cfg.noise["input_snr_db"] is None


@pytest.mark.parametrize("name", sorted(EXPERIMENT_PRESETS))
def test_config_round_trip_presets(name):
    cfg = from_dict(experiment_preset(name))
    assert from_dict(to_dict(cfg)) == cfg
    assert isinstance(cfg, ExperimentConfig)


def test_config_round_trip_with_files(tmp_path):
    tmp = str(tmp_path)
    img = named_test_image("ramp", 1, (32, 32))
    write_pgm(os.path.join(tmp, "img.pgm"), img)
    write_kernel_file(os.path.join(tmp, "k.txt"), gaussian_kernel(5, 1.0))
    raw = {
        "problem": "deblur",
        "image": {"pgm": "img.pgm"},
        "shape": [32, 32],
        "operator": {"kernel_path": "k.txt"},
        "denoiser": {"name": "identity"},
    }
    cfg = from_dict(raw, base_dir=tmp)
    assert os.path.isabs(cfg.image["pgm"])
    assert os.path.isabs(cfg.operator["kernel_path"])
    assert from_dict(to_dict(cfg)) == cfg


def test_config_unknown_keys():
    base = {"problem": "deblur", "denoiser": {"name": "identity"}}
    for raw, fragment in (
        ({**base, "images": "x"}, "config"),
        ({**base, "operator": {"sigma": 1.0}}, "config.operator"),
        ({**base, "noise": {"snr": 30}}, "config.noise"),
        ({**base, "solver": {"step": 0.1}}, "config.solver"),
        # The convnet has two layers, and no key to set them.
        (
            {**base, "denoiser": {"name": "convnet", "layers": 2}},
            "config.denoiser: unknown key(s) ['layers']",
        ),
    ):
        with pytest.raises(ConfigError) as exc:
            from_dict(raw)
        assert fragment in str(exc.value)


def test_config_value_errors():
    base = {"problem": "deblur", "denoiser": {"name": "identity"}}
    bad = [
        {},
        {**base, "tau": 0.0},
        {**base, "shape": [0, 4]},
        {**base, "shape": [16]},
        {**base, "operator": {"kernel_size": 4}},
        {**base, "operator": {"kernel_path": "nope.txt", "kernel_size": 5}},
        {**base, "solver": {"name": "sd"}},
        {**base, "solver": {"gamma": -1.0}},
        {**base, "denoiser": {"name": "wavelet"}},
        {**base, "denoiser": {"name": "smoother", "width": 2}},
        {"problem": "cs", "denoiser": {"name": "identity"}, "operator": {"ratio": 1.2}},
        {**base, "image": "lenna"},
        {**base, "image": {"pgm": "/does/not/exist.pgm"}},
    ]
    for raw in bad:
        with pytest.raises(ConfigError):
            from_dict(raw)


@pytest.mark.parametrize(
    "raw, message",
    [
        ({"operator": 5}, "config.operator: expected an object"),
        ({"image": {"pgm": 5}}, "config.image.pgm: expected a path string"),
        ({"image": 5}, "config.image: expected a preset name or {'pgm': path}"),
        ({"image": {"pgm": "x.pgm", "seed": 1}}, "config.image: expected a preset name"),
    ],
    ids=["section_not_object", "pgm_not_string", "image_number", "image_extra_key"],
)
def test_config_refuses_malformed_sections(raw, message):
    with pytest.raises(ConfigError) as exc:
        from_dict({"problem": "deblur", "denoiser": {"name": "identity"}, **raw})
    assert message in str(exc.value)


def test_config_rejects_a_named_image_below_32x32(tmp_path, capsys):
    # Rejected by the parser, so a sweep fails before any run and writes
    # nothing, rather than failing each run in named_test_image.
    tmp = str(tmp_path)
    raw = {
        "problem": "deblur",
        "shape": [16, 16],
        "operator": {"kernel_size": 3, "kernel_sigma": 0.6},
        "denoiser": {"name": "identity"},
    }
    message = r"^config\.shape: a named test image is at least 32x32$"
    for shape in ([16, 16], [31, 64], [64, 31]):
        with pytest.raises(ConfigError, match=message):
            from_dict({**raw, "shape": shape})
    assert from_dict({**raw, "shape": [32, 32]}).shape == (32, 32)
    out = os.path.join(tmp, "out")
    assert main(["sweep", "--config", write_config(tmp, raw), "--out", out]) == 1
    assert "config error: config.shape" in capsys.readouterr().err
    assert not os.path.exists(out)
    # A 16x16 PGM is a valid run, but a sweep swaps in the named images.
    write_pgm(os.path.join(tmp, "small.pgm"), np.full((16, 16), 0.5))
    cfg = from_dict({**raw, "image": {"pgm": "small.pgm"}}, base_dir=tmp)
    with pytest.raises(ConfigError, match=r"^config\.shape"):
        run_sweep(cfg, [0.1], ["mred"], out)
    assert not os.path.exists(out)


@pytest.mark.parametrize("shape, size", [([64, 64], 1001), ([64, 64], 65), ([32, 64], 33)])
def test_config_rejects_a_kernel_wider_than_the_image(shape, size):
    # Rejected by the parser, before a (size, size) kernel is built.
    raw = {"problem": "deblur", "shape": shape, "denoiser": {"name": "identity"}}
    with pytest.raises(ConfigError, match=r"^config\.operator\.kernel_size: must not exceed"):
        from_dict({**raw, "operator": {"kernel_size": size}})
    widest = min(shape) - (min(shape) % 2 == 0)
    assert from_dict({**raw, "operator": {"kernel_size": widest}}).operator["kernel_size"] == widest


@pytest.mark.parametrize(
    "operator, noise, key",
    [
        ({"kernel_size": 9, "kernel_sigma": 1e-300}, {}, "operator.kernel_sigma"),
        ({"kernel_size": 9, "kernel_sigma": 1e300}, {}, "operator.kernel_sigma"),
        ({"kernel_size": 9, "kernel_sigma": -1.0}, {}, "operator.kernel_sigma"),
        ({"kernel_path": "k4.txt"}, {}, "operator.kernel_path"),
        ({"kernel_path": "k33.txt"}, {}, "operator.kernel_path"),
        ({"kernel_path": "knan.txt"}, {}, "operator.kernel_path"),
        ({}, {"input_snr_db": 1e300}, "noise.input_snr_db"),
        ({}, {"input_snr_db": -1e4}, "noise.input_snr_db"),
        ({}, {"input_snr_db": -1e300}, "noise.input_snr_db"),
    ],
    ids=[
        "tiny_sigma", "huge_sigma", "negative_sigma", "even_file", "wide_file",
        "nan_file", "huge_snr", "very_negative_snr", "huge_negative_snr",
    ],
)
def test_kernel_and_noise_scale_are_checked_at_parse_time(tmp_path, capsys, operator, noise, key):
    # The parser builds the deblur kernel and the noise scale, so each of
    # these is a config error naming its key, and neither `run` nor `sweep`
    # writes anything.
    tmp = str(tmp_path)
    write_kernel_file(os.path.join(tmp, "k4.txt"), np.full((4, 4), 1.0 / 16))
    write_kernel_file(os.path.join(tmp, "k33.txt"), np.full((33, 33), 1.0 / 33**2))
    with open(os.path.join(tmp, "knan.txt"), "w") as fh:
        fh.write("3\n" + " ".join(["0.1"] * 4 + ["nan"] + ["0.1"] * 4) + "\n")
    raw = copy.deepcopy(SMALL)
    raw["operator"] = operator or raw["operator"]
    raw["noise"] = noise
    with pytest.raises(ConfigError, match=rf"^config\.{key}: "):
        from_dict(raw, base_dir=tmp)
    out = os.path.join(tmp, "out")
    for command in ("run", "sweep"):
        assert main([command, "--config", write_config(tmp, raw), "--out", out]) == 1
        assert f"config error: config.{key}: " in capsys.readouterr().err
        assert not os.path.exists(out)


def test_config_null_snr_means_noiseless():
    cfg = from_dict(
        {
            "problem": "deblur",
            "denoiser": {"name": "identity"},
            "noise": {"input_snr_db": None},
        }
    )
    assert cfg.noise["input_snr_db"] is None
    assert to_dict(cfg)["noise"]["input_snr_db"] is None


@pytest.mark.parametrize(
    "patch, tau_arg",
    [
        ({"tau": math.nan}, None),
        ({"tau": math.inf}, None),
        ({"tau": 10**400}, None),
        ({"operator": {"kernel_size": 5, "kernel_sigma": math.nan}}, None),
        ({"solver": {"name": "red", "converge_tol": math.nan}}, None),
        ({"denoiser": {"name": "scaled_identity", "scale": math.nan}}, None),
        ({}, "nan"),
        ({}, "inf"),
    ],
)
def test_non_finite_numbers_are_rejected(tmp_path, capsys, patch, tau_arg):
    # Python's json reads and writes NaN and Infinity, and a long integer
    # literal overflows a float; a config changed in code skips the parser.
    raw = {**EXPANSIVE_SMALL, **patch}
    with pytest.raises(ValueError):  # ConfigError is a ValueError
        cfg = from_dict(raw)
        if tau_arg is not None:
            cfg = dataclasses.replace(cfg, tau=float(tau_arg))
        build_experiment(cfg)
    tmp = str(tmp_path)
    out = os.path.join(tmp, "out")
    args = ["run", "--config", write_config(tmp, raw), "--out", out]
    assert main(args + (["--tau", tau_arg] if tau_arg else [])) == 1
    assert not os.path.exists(out)
    capsys.readouterr()


@pytest.mark.parametrize(
    "params, key",
    [
        ({"name": "smoother", "sigma": "x"}, "sigma"),
        ({"name": "dct_threshold", "threshold": [1]}, "threshold"),
        ({"name": "smoother", "sigma": 1e400}, "sigma"),
        ({"name": "smoother", "sigma": True}, "sigma"),
        ({"name": "convnet", "channels": 2.5}, "channels"),
    ],
)
def test_denoiser_parameters_are_checked_at_the_boundary(tmp_path, capsys, params, key):
    # Each value has the type of its schema default: a finite non-bool
    # number for a float default, an integer for an int default.
    raw = {**SMALL, "denoiser": params}
    with pytest.raises(ConfigError, match=rf"^config\.denoiser\.{key}: expected"):
        from_dict(raw)
    tmp = str(tmp_path)
    path = os.path.join(tmp, "cfg.json")
    with open(path, "w") as fh:
        # json writes an infinite float as Infinity; keep the literal 1e400.
        fh.write(json.dumps(raw).replace("Infinity", "1e400"))
    out = os.path.join(tmp, "out")
    assert main(["run", "--config", path, "--out", out]) == 1
    assert f"config error: config.denoiser.{key}: expected" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "params, message",
    [
        ({"name": "smoother", "sigma": 0.0}, "sigma must be positive and finite"),
        ({"name": "scaled_identity", "scale": 0.0}, "scale must be positive and finite"),
        ({"name": "smoother", "sigma": 9.0}, "smoothing kernel size 73 exceeds image extent 32x32"),
        ({"name": "dct_threshold", "smoothing_mu": 0.0}, "smoothing_mu must lie in (0, threshold)"),
        ({"name": "convnet", "seed": -1}, "seed must fit in an unsigned 64-bit integer"),
    ],
    ids=["zero_sigma", "zero_scale", "wide_kernel", "kinked_threshold", "negative_seed"],
)
def test_denoiser_is_built_at_parse_time(tmp_path, capsys, params, message):
    # The parser builds the denoiser, so its constructor's checks are config
    # errors: a sweep fails before its first run and writes nothing, not
    # even the output root or summary.json.
    raw = {**SMALL, "denoiser": params}
    with pytest.raises(ConfigError) as exc:
        from_dict(raw)
    assert str(exc.value) == f"config.denoiser: {message}"
    tmp = str(tmp_path)
    out = os.path.join(tmp, "out")
    assert main(["sweep", "--config", write_config(tmp, raw), "--out", out]) == 1
    assert f"config error: config.denoiser: {message}" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("key", ["image_seed", "noise.seed", "operator.seed"])
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seeds_are_checked_at_parse_time(tmp_path, capsys, key, seed):
    # Every seed must seed an RngState: an integer in [0, 2^64).
    raw = copy.deepcopy(CS_SMALL)
    section, _, name = key.rpartition(".")
    (raw.setdefault(section, {}) if section else raw)[name] = seed
    message = f"config.{key}: seed must fit in an unsigned 64-bit integer"
    with pytest.raises(ConfigError) as exc:
        from_dict(raw)
    assert str(exc.value) == message
    tmp = str(tmp_path)
    out = os.path.join(tmp, "out")
    assert main(["run", "--config", write_config(tmp, raw), "--out", out]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not os.path.exists(out)
    (raw.setdefault(section, {}) if section else raw)[name] = 2**64 - 1
    from_dict(raw)


def test_denoiser_parameters_are_normalized_by_type():
    cfg = from_dict({**SMALL, "denoiser": {"name": "convnet", "weight_scale": 1, "seed": 3}})
    assert cfg.denoiser["weight_scale"] == 1.0 and type(cfg.denoiser["weight_scale"]) is float
    assert cfg.denoiser["seed"] == 3 and type(cfg.denoiser["seed"]) is int


@pytest.mark.parametrize(
    "solver, fragment",
    [
        ({"beta": 2}, "beta must lie in (0, 1)"),
        ({"t": 0}, "t must be an integer >= 1"),
        ({"theta": 0.5}, "theta must lie in (0, 1/2)"),
        ({"alpha0": 0.0}, "alpha0 must be positive"),
        ({"gamma": 0.0}, "gamma must be positive"),
    ],
)
def test_solver_ranges_are_checked_at_parse_time(tmp_path, capsys, solver, fragment):
    # Without the check every run of a sweep would record the same error.
    raw = {**SMALL, "solver": solver}
    with pytest.raises(ConfigError) as exc:
        from_dict(raw)
    assert str(exc.value) == f"config.solver: {fragment}"
    tmp = str(tmp_path)
    out = os.path.join(tmp, "out")
    assert main(["sweep", "--config", write_config(tmp, raw), "--out", out]) == 1
    assert f"config.solver: {fragment}" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cs_ratio_is_checked_against_the_shape_at_parse_time(tmp_path, capsys):
    # round(1e-4 * 32 * 32) = 0 rows: the ratio lies in (0, 1) but measures
    # nothing, which every run of a sweep would otherwise find on its own.
    raw = {**CS_SMALL, "operator": {"ratio": 1e-4, "seed": 5}}
    with pytest.raises(ConfigError, match=r"^config\.operator\.ratio: "):
        from_dict(raw)
    assert from_dict({**raw, "shape": [128, 128]}).operator["ratio"] == 1e-4
    tmp = str(tmp_path)
    out = os.path.join(tmp, "out")
    assert main(["sweep", "--config", write_config(tmp, raw), "--out", out]) == 1
    assert "config error: config.operator.ratio: " in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cli_overrides_go_through_the_parser(tmp_path, capsys):
    tmp = str(tmp_path)
    out = os.path.join(tmp, "out")
    path = write_config(tmp, SMALL)
    for cmd, tau in (("run", "nan"), ("sweep", "0.1,nan"), ("sweep", "0.1,-1")):
        assert main([cmd, "--config", path, "--out", out, "--tau", tau]) == 1
        assert "config error: config.tau: " in capsys.readouterr().err
        assert not os.path.exists(out)


@pytest.mark.parametrize(
    "cmd, tau, message",
    [
        ("run", "-1e-3", "config error: config.tau: must be positive"),
        ("sweep", "-1e-3,0.1", "config error: config.tau: must be positive"),
        ("run", "-x", "argument --tau: expected one argument"),
        ("sweep", ",", "config error: empty tau list"),
        ("sweep", "0.1,x", "config error: invalid tau list '0.1,x'"),
    ],
    ids=["run_negative_exponent", "sweep_negative_exponent", "run_option", "sweep_empty", "sweep_invalid"],
)
def test_cli_tau_values_meet_the_checks(tmp_path, capsys, cmd, tau, message):
    # A negative tau in exponent form is a value, not an option, so it meets
    # the config check; a dash before a letter is still an option.
    tmp = str(tmp_path)
    out = os.path.join(tmp, "out")
    path = write_config(tmp, SMALL)
    assert main([cmd, "--config", path, "--out", out, "--tau", tau]) == 1
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cli_run_refuses_to_replace_another_configs_run(tmp_path, capsys):
    # Both presets write <out>/mred_tau0.1_phantom.  The sidecar records
    # no path, so only the config decides.
    tmp = str(tmp_path)
    out = os.path.join(tmp, "runs")
    first, second = (
        write_config(tmp, experiment_preset(name), f"{name}.json")
        for name in ("deblur_nonexpansive", "cs_nonexpansive")
    )
    code = main(["run", "--config", first, "--out", out])
    assert code != 1
    run_dir = os.path.join(out, "mred_tau0.1_phantom")

    def digests():
        return {
            name: hashlib.sha256(Path(run_dir, name).read_bytes()).hexdigest()
            for name in ("trace.csv", "sidecar.json", "recon.pgm")
        }

    before = digests()
    assert "out" not in read_sidecar(os.path.join(run_dir, "sidecar.json"))["config"]
    capsys.readouterr()
    assert main(["run", "--config", second, "--out", out]) == 1
    assert "config error: " in capsys.readouterr().err
    assert digests() == before
    # The same config reruns into its own directory, with the same bytes.
    assert main(["run", "--config", first, "--out", out]) == code
    assert digests() == before


def test_run_experiment_refuses_to_replace_another_configs_run(tmp_path, monkeypatch):
    # The library call refuses as `redlab run` does, before it builds.
    raw = experiment_preset("deblur_nonexpansive")
    raw["solver"]["t"] = 3
    out_dir = str(tmp_path / "run")
    run_experiment(from_dict(raw), out_dir)
    names = ("trace.csv", "sidecar.json", "recon.pgm")
    before = {name: Path(out_dir, name).read_bytes() for name in names}

    def no_build(cfg):
        raise AssertionError("built a run that check_run_dir refuses")

    monkeypatch.setattr(experiments, "build_experiment", no_build)
    # The message names no command-line option: a library caller has none.
    message = f"{out_dir} holds a run of another config; choose another output directory"
    with pytest.raises(ConfigError) as exc:
        run_experiment(from_dict({**raw, "tau": 0.5}), out_dir)
    assert str(exc.value) == message
    assert {name: Path(out_dir, name).read_bytes() for name in names} == before


def test_cli_run_reruns_into_one_directory_under_any_spelling(tmp_path, capsys, monkeypatch):
    # The directory is not part of the config, so `r2`, `r2/`, `./r2` and
    # the absolute path all hold the same run; another config is refused.
    monkeypatch.chdir(tmp_path)
    tmp = str(tmp_path)
    first, second = write_config(tmp, SMALL, "a.json"), write_config(tmp, CS_SMALL, "b.json")

    def artifacts():
        return {
            os.path.relpath(os.path.join(d, f), "r2"): hashlib.sha256(
                Path(d, f).read_bytes()
            ).hexdigest()
            for d, _dirs, files in os.walk("r2")
            for f in files
        }

    seen = []
    for out in ("r2", "r2/", "./r2", os.path.join(tmp, "r2")):
        assert main(["run", "--config", first, "--out", out]) == 0
        seen.append(artifacts())
    assert sorted(seen[0]) == [
        os.path.join("mred_tau0.1_phantom", name)
        for name in ("recon.pgm", "sidecar.json", "trace.csv")
    ]
    assert all(digests == seen[0] for digests in seen)
    capsys.readouterr()
    assert main(["run", "--config", second, "--out", "r2"]) == 1
    assert "holds a run of another config" in capsys.readouterr().err
    assert artifacts() == seen[0]


def test_sweep_writes_the_same_bytes_under_any_root(tmp_path, monkeypatch):
    # No artifact of a sweep records the root it was written under.
    monkeypatch.chdir(tmp_path)
    cfg = from_dict({**SMALL, "solver": {"name": "mred", "t": 2}})
    roots = ("a", os.path.join(str(tmp_path), "b", "c"))
    files = []
    for root in roots:
        run_sweep(cfg, [0.1], ["mred"], root)
        files.append({
            os.path.relpath(os.path.join(d, f), root): Path(d, f).read_bytes()
            for d, _dirs, names in os.walk(root)
            for f in names
        })
    assert files[0] == files[1]
    sidecars = [data for rel, data in files[0].items() if rel.endswith("sidecar.json")]
    assert len(sidecars) == len(TEST_IMAGE_NAMES)
    for data in sidecars:
        assert "out" not in json.loads(data)["config"]
        assert str(tmp_path).encode() not in data


def test_config_file_with_out_is_refused(tmp_path, capsys, monkeypatch):
    # `out` is an unknown key like any other; --out names the directory.
    monkeypatch.chdir(tmp_path)
    path = write_config(str(tmp_path), {**SMALL, "out": "runs"})
    for cmd in ("run", "sweep"):
        assert main([cmd, "--config", path]) == 1
        assert "config error: config: unknown key(s) ['out']" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["cfg.json"]


def test_cli_sweep_lists_are_the_grid_not_overrides(tmp_path, monkeypatch):
    seen = {}

    def fake_sweep(cfg, taus, solvers, out_root, parallel=False):
        seen.update(cfg=cfg, taus=taus, solvers=solvers, out_root=out_root)
        return {"runs": [], "failures": [], "aggregates": []}

    monkeypatch.setattr("redlab.cli.run_sweep", fake_sweep)
    tmp = str(tmp_path)
    args = ["sweep", "--config", write_config(tmp, SMALL), "--out", os.path.join(tmp, "x"),
            "--tau", "1,0.1", "--solver", "red,mred", "--seed", "7"]
    assert main(args) == 0
    assert seen["taus"] == [1.0, 0.1] and seen["solvers"] == ["red", "mred"]
    assert seen["cfg"] == from_dict({**SMALL, "noise": {"seed": 7}})
    assert seen["out_root"] == os.path.join(tmp, "x")
    assert main(args[:3] + args[5:]) == 0
    assert seen["out_root"] == "runs"


def test_cli_run_names_tau_when_the_default_step_rounds_to_zero(tmp_path, capsys):
    # 1/(L + 2 tau) is 0 once L + 2 tau overflows; the user set tau, not gamma.
    tmp = str(tmp_path)
    out = os.path.join(tmp, "out")
    args = ["run", "--config", write_config(tmp, SMALL), "--out", out, "--tau", "1e308"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "tau 1e+308 is too large" in err and "gamma" not in err
    assert not os.path.exists(out)


def test_classes_reject_nan_parameters():
    nan = math.nan
    fid = LeastSquaresFidelity(DenseOperator(np.eye(4)), np.zeros(4))
    for make in (
        lambda: gaussian_kernel(5, nan),
        lambda: LinearSmoothingDenoiser((16, 16), nan),
        lambda: DctSoftThresholdDenoiser((8, 8), nan, 0.02),
        lambda: DctSoftThresholdDenoiser((8, 8), 0.1, nan),
        lambda: ScaledDenoiser(IdentityDenoiser(4), nan),
        lambda: REDProblem(fid, IdentityDenoiser(4), nan),
        lambda: REDProblem(fid, IdentityDenoiser(4), math.inf),
        lambda: SolverConfig(gamma=0.5, converge_tol=nan),
        lambda: default_gamma(nan, 0.1),
        lambda: default_gamma(1.0, nan),
    ):
        with pytest.raises(ValueError):
            make()


def test_load_config(tmp_path):
    tmp = str(tmp_path)
    img = named_test_image("ramp", 1, (32, 32))
    write_pgm(os.path.join(tmp, "img.pgm"), img)
    raw = dict(SMALL)
    raw["image"] = {"pgm": "img.pgm"}
    path = write_config(tmp, raw)
    cfg = load_config(path)
    # Relative paths resolve against the config file's directory.
    assert cfg.image["pgm"] == os.path.join(tmp, "img.pgm")
    bad = os.path.join(tmp, "bad.json")
    with open(bad, "w") as fh:
        fh.write("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    with pytest.raises(ConfigError):
        load_config(os.path.join(tmp, "missing.json"))


# ------------------------------------------------------------------ trace io


COUNTER_FIELDS = (
    "denoiser_applies",
    "vjp_evals",
    "operator_forwards",
    "operator_adjoints",
    "grad_phi_evals",
)


def small_result(t=5, psnr_ref=None):
    f = LeastSquaresFidelity(DenseOperator(np.eye(4)), np.ones(4))
    p = REDProblem(f, IdentityDenoiser(4), tau=0.2)
    return run_solver("mred", p, np.zeros(4), SolverConfig(gamma=0.5, t=t), psnr_ref=psnr_ref)


def test_trace_csv_round_trip(tmp_path):
    res = small_result(psnr_ref=np.ones(4))
    path = os.path.join(str(tmp_path), "trace.csv")
    write_trace_csv(path, res)
    rows = read_trace_csv(path)
    assert len(rows) == len(res.trace)
    for row, rec in zip(rows, res.trace):
        assert row["k"] == rec.k
        assert row["phi"] == rec.phi  # repr round-trips floats exactly
        assert row["g_norm"] == rec.g_norm
        assert row["norm_resid"] == rec.normalized_residual
        assert row["mode"] == rec.mode
        assert row["backtracks"] == rec.backtracks
        assert row["step_used"] == rec.step_used
        assert row["psnr_db"] == rec.psnr_db
        for field in COUNTER_FIELDS:
            assert row[field] == getattr(rec.counters, field)
    assert set(COUNTER_FIELDS) == set(vars(res.counters))


def test_trace_csv_none_psnr(tmp_path):
    res = small_result()
    path = os.path.join(str(tmp_path), "trace.csv")
    write_trace_csv(path, res)
    rows = read_trace_csv(path)
    assert all(row["psnr_db"] is None for row in rows)


def test_trace_csv_rejects_bad_files(tmp_path):
    path = os.path.join(str(tmp_path), "bad.csv")
    with open(path, "w") as fh:
        fh.write("k,phi\n0,1.0\n")
    with pytest.raises(ValueError):
        read_trace_csv(path)
    res = small_result()
    good = os.path.join(str(tmp_path), "trace.csv")
    write_trace_csv(good, res)
    with open(good) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text + "1,2.0\n")
    with pytest.raises(ValueError):
        read_trace_csv(path)


def test_aggregate_csv_round_trip(tmp_path):
    path = os.path.join(str(tmp_path), "agg.csv")
    rows = [(0, 1.0), (1, 0.25), (2, 0.0625)]
    write_aggregate_csv(path, 0.1, "mred", rows, 6)
    meta, back = read_aggregate_csv(path)
    assert meta == {"tau": 0.1, "solver": "mred", "images": 6}
    assert back == rows
    with open(path, "w") as fh:
        fh.write("k,mean_norm_resid\n0,1.0\n")
    with pytest.raises(ValueError):
        read_aggregate_csv(path)
    with open(path, "w") as fh:
        fh.write("# tau=0.1 solver=mred images=6\nk,mean_norm_resid\n")
    with pytest.raises(ValueError):
        read_aggregate_csv(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("# tau=0.1 solver mred images=6\nk,mean_norm_resid\n0,1.0\n", "malformed metadata token"),
        ("# tau=0.1 solver=mred\nk,mean_norm_resid\n0,1.0\n", "incomplete aggregate metadata"),
        ("# tau=0.1 solver=mred images=6\nk,resid\n0,1.0\n", "unexpected aggregate header"),
        ("# tau=0.1 solver=mred images=6\nk,mean_norm_resid\n0,1.0,2\n", "malformed row"),
    ],
    ids=["metadata_token", "missing_key", "header", "three_fields"],
)
def test_malformed_aggregates_are_refused(tmp_path, capsys, text, message):
    path = os.path.join(str(tmp_path), "agg.csv")
    with open(path, "w") as fh:
        fh.write(text)
    with pytest.raises(ValueError, match=message):
        read_aggregate_csv(path)
    svg = os.path.join(str(tmp_path), "p.svg")
    assert main(["plot", path, "--out", svg]) == 1
    assert message in capsys.readouterr().err
    assert not os.path.exists(svg)


# ------------------------------------------------------------------ building


def test_build_deblur_starts_from_measurements():
    built = build_experiment(from_dict(copy.deepcopy(SMALL)))
    assert np.array_equal(built.x0, built.problem.fidelity.y)
    assert built.x0 is not built.problem.fidelity.y
    assert built.solver_config.gamma == 1.0 / (built.L + 2.0 * 0.1)


def test_build_cs_starts_from_backprojection():
    raw = {
        "problem": "cs",
        "shape": [32, 32],
        "denoiser": {"name": "identity"},
        "solver": {"name": "mred", "t": 5},
    }
    built = build_experiment(from_dict(raw))
    op, y = built.problem.fidelity.op, built.problem.fidelity.y
    assert op.m == round(0.1 * 1024)
    assert np.array_equal(built.x0, op.adjoint(y))
    # Default CS noise is off: measurements are exactly A x_true.
    assert np.array_equal(y, op.forward(built.x_true))


def test_build_honors_explicit_gamma():
    raw = copy.deepcopy(SMALL)
    raw["solver"]["gamma"] = 0.125
    built = build_experiment(from_dict(raw))
    assert built.solver_config.gamma == 0.125


def test_build_rejects_shape_mismatched_pgm(tmp_path):
    tmp = str(tmp_path)
    img = named_test_image("ramp", 1, (32, 32))
    write_pgm(os.path.join(tmp, "img.pgm"), img)
    raw = copy.deepcopy(SMALL)
    raw["image"] = {"pgm": "img.pgm"}
    raw["shape"] = [64, 64]
    raw["operator"] = {"kernel_size": 9, "kernel_sigma": 2.0}
    with pytest.raises(ValueError):
        build_experiment(from_dict(raw, base_dir=tmp))


def test_run_from_a_pgm_image(tmp_path):
    # The true image is the file's 16-bit levels, and a rerun writes the
    # same bytes.
    tmp = str(tmp_path)
    img = named_test_image("texture", 3, (32, 32))
    write_pgm(os.path.join(tmp, "img.pgm"), img)
    cfg = from_dict({**SMALL, "image": {"pgm": "img.pgm"}}, base_dir=tmp)
    out = os.path.join(tmp, "run")

    def digests():
        return {
            name: hashlib.sha256(Path(out, name).read_bytes()).hexdigest()
            for name in sorted(os.listdir(out))
        }

    _result, built, _metrics = run_experiment(cfg, out)
    assert np.array_equal(built.x_true, (np.floor(img * 65535 + 0.5) / 65535).reshape(-1))
    first = digests()
    assert len(first) == 3
    run_experiment(cfg, out)
    assert digests() == first


# ---------------------------------------------------------------------- runs


def test_run_experiment_artifacts(tmp_path):
    out = os.path.join(str(tmp_path), "run")
    cfg = from_dict(copy.deepcopy(SMALL))
    result, built, metrics = run_experiment(cfg, out)
    assert sorted(os.listdir(out)) == ["recon.pgm", "sidecar.json", "trace.csv"]
    rows = read_trace_csv(os.path.join(out, "trace.csv"))
    assert len(rows) == metrics["iterations"] + 1
    assert metrics["termination"] == "max_iters"
    with open(os.path.join(out, "sidecar.json")) as fh:
        sidecar = json.load(fh)
    # The sidecar config reparses to exactly the run's config.
    assert from_dict(sidecar["config"]) == cfg
    assert sidecar["gamma"] == built.solver_config.gamma
    assert sidecar["iterations"] == metrics["iterations"]
    assert sidecar["counters"]["denoiser_applies"] == result.counters.denoiser_applies
    assert sidecar["lipschitz"]["value"] <= 1.0 + 1e-6
    recon = read_pgm(os.path.join(out, "recon.pgm"))
    assert recon.shape == (32, 32)
    assert np.max(np.abs(recon.reshape(-1) - np.clip(result.x_star, 0, 1))) <= 0.5 / 65535


def test_run_sidecar_certificates(tmp_path):
    # Every preset's L is the operator's closed form, bit for bit, and its
    # step is derived from it.  A declared denoiser constant is exact; the
    # convnet declares none, so its certificate is still estimated.
    for name in sorted(EXPERIMENT_PRESETS):
        raw = experiment_preset(name)
        raw["solver"]["t"] = 2
        out = os.path.join(str(tmp_path), name)
        run_experiment(from_dict(raw), out)
        sidecar = read_sidecar(os.path.join(out, "sidecar.json"))
        cfg = from_dict(sidecar["config"])
        L = experiments._build_operator(cfg).exact_spectral_norm_sq()
        assert type(sidecar["L"]) is float and sidecar["L"] == L
        assert sidecar["gamma"] == default_gamma(L, cfg.tau)
        lip = sidecar["lipschitz"]
        if cfg.denoiser["name"] == "convnet":
            assert lip["method"] == "jacobian_power_iteration"
        else:
            assert (lip["method"], lip["converged"]) == ("analytic", True)


def test_sidecar_records_the_blas_thread_count(tmp_path, monkeypatch):
    # CS bits depend on the BLAS thread count, so every sidecar records it:
    # the probe's int, or null where no OpenBLAS is found.
    out = os.path.join(str(tmp_path), "cs")
    run_experiment(from_dict(copy.deepcopy(CS_SMALL)), out)
    threads = operators._blas_threads()
    assert threads is None or isinstance(threads, int)
    assert read_sidecar(os.path.join(out, "sidecar.json"))["blas_threads"] == threads
    monkeypatch.setattr(operators, "_blas_thread_getter", lambda: lambda: None)
    out = os.path.join(str(tmp_path), "none")
    run_experiment(from_dict(copy.deepcopy(SMALL)), out)
    assert read_sidecar(os.path.join(out, "sidecar.json"))["blas_threads"] is None
    if threads is None:
        return
    # numpy reads OPENBLAS_NUM_THREADS when it loads, so ask a new process.
    cfg = os.path.join(str(tmp_path), "small.json")
    with open(cfg, "w") as fh:
        json.dump(SMALL, fh)
    out = os.path.join(str(tmp_path), "one")
    src = os.path.dirname(os.path.dirname(os.path.abspath(redlab.__file__)))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": src}
    subprocess.run(
        [sys.executable, "-m", "redlab.cli", "run", "--config", cfg, "--out", out],
        env=env, capture_output=True, text=True, check=True,
    )
    (run_dir,) = os.listdir(out)
    assert read_sidecar(os.path.join(out, run_dir, "sidecar.json"))["blas_threads"] == 1


@pytest.mark.parametrize("preset", ["deblur_expansive", "cs_nonexpansive", "cs_expansive"])
def test_carried_gradient_keeps_the_residual_exact(preset):
    # The solvers update grad g by linearity after x0; after a full run the
    # traced residual must still be what an exact evaluation of G gives.
    built = build_experiment(from_dict(experiment_preset(preset)))
    p = built.problem
    res = run_solver(built.config.solver["name"], p, built.x0, built.solver_config)
    g0 = p.operator_g(built.x0)
    g_star = p.operator_g(res.x_star)
    exact = float(g_star @ g_star) / float(g0 @ g0)
    assert abs(exact - res.final_normalized_residual) <= 1e-12


def _with_and_without_projection(monkeypatch, solver, preset, t):
    # The same run through the projection identity and, with
    # gram_is_projection switched off, through one A^T A G product per
    # iteration: it must be the same run.
    raw = experiment_preset(preset)
    raw["solver"]["t"] = t
    built = build_experiment(from_dict(raw))
    args = (built.problem, built.x0, built.solver_config)
    new = run_solver(solver, *args)
    with monkeypatch.context() as mp:
        mp.setattr(CompressiveSensingOperator, "gram_is_projection", False)
        old = run_solver(solver, *args)
    assert new.termination == old.termination
    assert [r.mode for r in new.trace] == [r.mode for r in old.trace]
    assert [r.backtracks for r in new.trace] == [r.backtracks for r in old.trace]
    assert [r.step_used for r in new.trace] == [r.step_used for r in old.trace]
    for a, b in zip(new.trace, old.trace):
        assert abs(a.phi - b.phi) <= 1e-12 * abs(b.phi)
    assert new.counters.denoiser_applies == old.counters.denoiser_applies
    return new, old


@pytest.mark.parametrize("preset", ["cs_nonexpansive", "cs_expansive"])
def test_mred_takes_the_projection_identity_on_cs(preset, monkeypatch):
    new, old = _with_and_without_projection(monkeypatch, "mred", preset, 300)
    c, modes = new.counters, [r.mode for r in new.trace]
    # One pass for grad g at x0.  An iteration without P D(x) takes it in a
    # stack with r after a fallback, else with D of the trial point, whose
    # P D serves the next iteration if the trial passes.  A fallback whose
    # iteration did not stack r pays one more pass for A^T A grad phi.
    passes, known, prev = 1, False, "red_step"
    for m in modes[1:]:
        stacked = not known
        passes += stacked + (m == "gradient_step" and not (stacked and prev == "gradient_step"))
        known = stacked and prev == m == "red_step"
        prev = m
    assert c.operator_forwards == c.operator_adjoints == passes
    if preset == "cs_nonexpansive":
        # Every trial passes: one pass per two iterations.
        assert "gradient_step" not in modes
        assert c.operator_forwards == 1 + 150
        assert old.counters.operator_forwards == 1 + 300
    else:
        assert modes.count("gradient_step") > 250
        assert c.operator_forwards <= old.counters.operator_forwards


@pytest.mark.parametrize("solver", ["red", "red_bls"])
@pytest.mark.parametrize("preset", ["cs_nonexpansive", "cs_expansive"])
def test_fixed_step_solvers_take_the_projection_identity_on_cs(preset, solver, monkeypatch):
    new, _old = _with_and_without_projection(monkeypatch, solver, preset, 300)
    assert new.counters.vjp_evals == new.counters.grad_phi_evals == 0


@pytest.mark.parametrize(
    "preset, solver, termination, widths",
    [
        ("cs_nonexpansive", "red", "max_iters", {2: 150}),
        ("cs_nonexpansive", "red_bls", "max_iters", {2: 150}),
        ("cs_nonexpansive", "mred", "max_iters", {2: 150}),
        ("cs_expansive", "red", "diverged", {2: 12}),
        ("cs_expansive", "red_bls", "step_floor", {2: 2}),
        ("cs_expansive", "mred", "max_iters", {2: 299, "vector": 1}),
    ],
)
def test_cs_grams_are_two_row_stacks(preset, solver, termination, widths, monkeypatch):
    # The CS gram has one loop, tuned for stacks: a vector runs through it
    # as a stack of one row.  That costs more than a single product only at
    # two BLAS threads, and only mred's first fallback on cs_expansive takes
    # one.  Any change that brings back single-vector traffic shows here.
    raw = experiment_preset(preset)
    raw["solver"].update(name=solver, t=300)
    built = build_experiment(from_dict(raw))
    calls = Counter()
    gram = CompressiveSensingOperator.gram

    def counting_gram(op, v):
        calls[len(v) if np.ndim(v) == 2 else "vector"] += 1
        return gram(op, v)

    monkeypatch.setattr(CompressiveSensingOperator, "gram", counting_gram)
    res = run_solver(solver, built.problem, built.x0, built.solver_config)
    assert res.termination == termination
    assert dict(calls) == widths


@pytest.mark.parametrize("solver", SOLVER_NAMES)
@pytest.mark.parametrize("preset", ["deblur_nonexpansive", "cs_nonexpansive"])
def test_row_zero_charges_only_the_start(preset, solver):
    # Nothing is evaluated before row 0 but D(x0) and grad g(x0); mred's
    # grad phi at x0 is charged to row 1, as every later one is.
    raw = experiment_preset(preset)
    raw["solver"].update(name=solver, t=1)
    built = build_experiment(from_dict(raw))
    res = run_solver(solver, built.problem, built.x0, built.solver_config)
    assert vars(res.trace[0].counters) == {
        "denoiser_applies": 1,
        "vjp_evals": 0,
        "operator_forwards": 1,
        "operator_adjoints": 1,
        "grad_phi_evals": 0,
    }


def test_run_experiment_rewrites_identically(tmp_path):
    cfg = from_dict(copy.deepcopy(SMALL))
    out_a = os.path.join(str(tmp_path), "a")
    out_b = os.path.join(str(tmp_path), "b")
    run_experiment(cfg, out_a)
    run_experiment(cfg, out_b)
    for name in ("trace.csv", "recon.pgm"):
        with open(os.path.join(out_a, name), "rb") as fh:
            blob_a = fh.read()
        with open(os.path.join(out_b, name), "rb") as fh:
            blob_b = fh.read()
        assert blob_a == blob_b


def test_run_dir(tmp_path):
    raw = copy.deepcopy(SMALL)
    assert run_dir(from_dict(raw), "out") == os.path.join("out", "mred_tau0.1_phantom")
    cfg = from_dict({**raw, "image": "blocks", "tau": 1, "solver": {"name": "red"}})
    assert run_dir(cfg, "out") == os.path.join("out", "red_tau1.0_blocks")
    # A PGM image has no preset name; its runs are named `pgm`.
    write_pgm(os.path.join(str(tmp_path), "img.pgm"), named_test_image("ramp", 1, (32, 32)))
    cfg = from_dict({**raw, "image": {"pgm": "img.pgm"}}, base_dir=str(tmp_path))
    assert run_dir(cfg, "out") == os.path.join("out", "mred_tau0.1_pgm")


# --------------------------------------------------------------------- sweeps


def test_sweep_matches_individual_runs(tmp_path):
    from dataclasses import replace

    cfg = from_dict(copy.deepcopy(SMALL))
    out_root = os.path.join(str(tmp_path), "sweep")
    summary = run_sweep(cfg, [0.1], ["mred"], out_root)
    assert not summary["failures"]
    assert len(summary["runs"]) == 6
    assert len(summary["aggregates"]) == 1
    names = [r["image"] for r in summary["runs"]]
    assert names == list(
        ("phantom", "ramp", "sinusoid", "checkerboard", "texture", "blocks")
    )
    curves = []
    for name in names:
        child = replace(cfg, image={"preset": name}, tau=0.1,
                        solver={**cfg.solver, "name": "mred"})
        ref_dir = os.path.join(str(tmp_path), f"ref_{name}")
        run_experiment(child, ref_dir)
        sweep_dir = run_dir(child, out_root)
        with open(os.path.join(ref_dir, "trace.csv"), "rb") as fh:
            want = fh.read()
        with open(os.path.join(sweep_dir, "trace.csv"), "rb") as fh:
            got = fh.read()
        assert got == want
        curves.append([r["norm_resid"] for r in read_trace_csv(
            os.path.join(sweep_dir, "trace.csv"))])
    meta, rows = read_aggregate_csv(summary["aggregates"][0])
    assert meta == {"tau": 0.1, "solver": "mred", "images": 6}
    assert rows[0] == (0, 1.0)  # every curve starts at exactly 1
    length = max(len(c) for c in curves)
    padded = [c + [c[-1]] * (length - len(c)) for c in curves]
    for k, val in rows:
        want = sum(p[k] for p in padded) / len(padded)
        assert abs(val - want) <= 1e-12 * max(1.0, abs(want))


def test_sweep_records_failures(tmp_path, monkeypatch):
    # The kernel file passes the parser, which reads it at every grid point,
    # and is then replaced by one wider than the image: the sweep's first
    # makedirs, after its grid is parsed, rewrites it.  So the file changes
    # under a running sweep, and every run fails in its operator.
    path = os.path.join(str(tmp_path), "k.txt")
    write_kernel_file(path, gaussian_kernel(5, 1.0))
    raw = {**copy.deepcopy(SMALL), "operator": {"kernel_path": path}}
    cfg = from_dict(raw)
    makedirs = os.makedirs

    def widen_kernel_then_makedirs(*args, **kwargs):
        write_kernel_file(path, np.full((33, 33), 1.0 / 33**2))
        makedirs(*args, **kwargs)

    monkeypatch.setattr(os, "makedirs", widen_kernel_then_makedirs)
    summary = run_sweep(cfg, [0.1], ["mred"], os.path.join(str(tmp_path), "s"))
    assert len(summary["failures"]) == 6
    assert not summary["runs"]
    assert not summary["aggregates"]
    for failure in summary["failures"]:
        assert "kernel" in failure["error"]
        assert failure["type"] == "ValueError"
    written = read_sidecar(os.path.join(str(tmp_path), "s", "summary.json"))
    assert written["runs"] == []
    assert [f["run"] for f in written["failures"]] == [
        [0.1, "mred", name] for name in TEST_IMAGE_NAMES
    ]
    assert all(f["type"] == "ValueError" for f in written["failures"])
    # A process pool records the same failures, with the same bytes.
    write_kernel_file(path, gaussian_kernel(5, 1.0))
    pooled = run_sweep(cfg, [0.1], ["mred"], os.path.join(str(tmp_path), "p"), parallel=True)
    assert [(f["run"], f["type"]) for f in pooled["failures"]] == [
        (f["run"], f["type"]) for f in summary["failures"]
    ]
    with open(os.path.join(str(tmp_path), "s", "summary.json"), "rb") as fh:
        want = fh.read()
    with open(os.path.join(str(tmp_path), "p", "summary.json"), "rb") as fh:
        assert fh.read() == want


@pytest.mark.parametrize(
    "taus, solvers, match",
    [
        ([-1.0], ["mred"], r"config\.tau"),
        ([0.1], ["nosuch"], r"config\.solver\.name"),
        ([0.1, 0.1], ["mred"], r"mred_tau0\.1_phantom"),
        ([1, 1.0], ["mred"], r"mred_tau1\.0_phantom"),
    ],
    ids=["negative_tau", "unknown_solver", "repeated_tau", "equal_taus"],
)
def test_sweep_refuses_a_bad_grid_before_any_run(tmp_path, taus, solvers, match):
    # An invalid grid point, or two that share a run directory, raise the
    # parser's error and write nothing, not even the output root.
    out = os.path.join(str(tmp_path), "sweep")
    with pytest.raises(ConfigError, match=match):
        run_sweep(from_dict(copy.deepcopy(SMALL)), taus, solvers, out)
    assert not os.path.exists(out)


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = from_dict(copy.deepcopy(SMALL))
    out_a = os.path.join(str(tmp_path), "serial")
    out_b = os.path.join(str(tmp_path), "parallel")
    a = run_sweep(cfg, [0.1], ["mred"], out_a, parallel=False)
    b = run_sweep(cfg, [0.1], ["mred"], out_b, parallel=True)
    assert not a["failures"] and not b["failures"]
    with open(a["aggregates"][0], "rb") as fh:
        blob_a = fh.read()
    with open(b["aggregates"][0], "rb") as fh:
        blob_b = fh.read()
    assert blob_a == blob_b
    # summary.json is the returned runs and failures, and carries no timing.
    with open(os.path.join(out_a, "summary.json"), "rb") as fh:
        summary_a = fh.read()
    with open(os.path.join(out_b, "summary.json"), "rb") as fh:
        assert fh.read() == summary_a
    assert json.loads(summary_a) == {"runs": a["runs"], "failures": []}


def _tree_bytes(root):
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_cs_runs_share_one_operator_build(tmp_path, monkeypatch):
    cfg = from_dict(copy.deepcopy(CS_SMALL))
    cache = operators._cs_operator

    def run_all(root):
        run_sweep(cfg, [0.1], ["mred"], os.path.join(root, "a"))
        run_sweep(cfg, [1.0], ["red"], os.path.join(root, "b"))
        run_experiment(cfg, os.path.join(root, "one"))
        return _tree_bytes(root)

    cache.cache_clear()
    shared = run_all(str(tmp_path / "shared"))
    info = cache.cache_info()
    assert (info.misses, info.hits) == (1, 12)
    # The same runs with a cleared cache and a fresh matrix for every run.
    cache.cache_clear()
    monkeypatch.setattr(operators, "_cs_operator", cache.__wrapped__)
    fresh = run_all(str(tmp_path / "fresh"))
    assert cache.cache_info().misses == 0
    assert len(shared) == 2 * (6 * 3 + 2) + 3
    assert shared == fresh


def test_sweep_refuses_to_replace_another_configs_runs(tmp_path, capsys):
    # Both presets write <out>/mred_tau0.1_<image>; the second sweep exits 1
    # and leaves the first one's runs and summary.json as they were.
    tmp = str(tmp_path)
    out = os.path.join(tmp, "sweep")
    first, second = (
        write_config(tmp, experiment_preset(name), f"{name}.json")
        for name in ("deblur_nonexpansive", "cs_nonexpansive")
    )
    argv = ["sweep", "--tau", "0.1", "--solver", "mred", "--out", out, "--config"]
    assert main(argv + [first]) == 0
    before = _tree_bytes(out)
    capsys.readouterr()
    assert main(argv + [second]) == 1
    assert "another config" in capsys.readouterr().err
    assert _tree_bytes(out) == before
    # The same config reruns over its own runs, with the same bytes.
    assert main(argv + [first]) == 0
    assert _tree_bytes(out) == before


def test_sweep_checks_every_run_dir_before_its_first_run(tmp_path):
    # Another config's run sits where the sweep's last run would go.
    out = os.path.join(str(tmp_path), "sweep")
    other = dataclasses.replace(from_dict(copy.deepcopy(CS_SMALL)), image={"preset": "blocks"})
    run_experiment(other, run_dir(other, out))
    with pytest.raises(ConfigError):
        run_sweep(from_dict(copy.deepcopy(SMALL)), [0.1], ["mred"], out)
    assert os.listdir(out) == ["mred_tau0.1_blocks"]


def test_summary_json_is_strict_json_for_an_exact_reconstruction(tmp_path):
    # A 1x1 kernel, noiseless data and the identity denoiser put x0 at the
    # fixed point, x_true itself, whose PSNR is infinite.
    raw = copy.deepcopy(SMALL)
    raw["operator"] = {"kernel_size": 1, "kernel_sigma": 1.0}
    raw["noise"] = {"input_snr_db": None}
    raw["denoiser"] = {"name": "identity"}
    out = os.path.join(str(tmp_path), "sweep")
    summary = run_sweep(from_dict(raw), [0.1], ["mred"], out)

    def refuse(literal):
        raise ValueError(f"{literal} is not JSON")

    with open(os.path.join(out, "summary.json")) as fh:
        written = json.load(fh, parse_constant=refuse)
    assert [run["final_psnr_db"] for run in written["runs"]] == [None] * 6
    assert written["runs"] == summary["runs"]
    for run in summary["runs"]:
        sidecar = read_sidecar(os.path.join(out, f"mred_tau0.1_{run['image']}", "sidecar.json"))
        assert sidecar["final_psnr_db"] is None


def test_sweep_needs_work():
    cfg = from_dict(copy.deepcopy(SMALL))
    with pytest.raises(ValueError):
        run_sweep(cfg, [], ["mred"], "unused")


# --------------------------------------------------------------------- checks


def test_grad_check_identity_denoiser():
    # The loss is exactly quadratic here, so central differences carry no
    # truncation error; a wider step just reduces cancellation noise.
    raw = copy.deepcopy(SMALL)
    raw["denoiser"] = {"name": "identity"}
    max_err, errs = grad_check(from_dict(raw), h=1e-4)
    assert len(errs) == 20
    assert max_err <= 1e-8
    default_err, _ = grad_check(from_dict(raw))
    assert default_err <= 1e-5  # the CLI acceptance bound at its default step


def test_grad_check_convnet():
    raw = copy.deepcopy(SMALL)
    raw["denoiser"] = {"name": "convnet"}
    max_err, _ = grad_check(from_dict(raw))
    assert max_err <= 1e-5


def test_lipschitz_report():
    # The certificate of the sidecar and of `redlab lipschitz`: a declared
    # closed form is exact and converged.
    est = lipschitz_report(build_denoiser({"name": "scaled_identity", "scale": 1.6}, (32, 32)))
    assert (est.value, est.method, est.probes, est.converged) == (1.6, "analytic", 0, True)
    # The convnet declares no constant and keeps the estimator's full effort.
    est = lipschitz_report(build_denoiser({"name": "convnet"}, (32, 32)))
    assert (est.method, est.probes) == ("jacobian_power_iteration", 8)


# ------------------------------------------------------------------ make-data


def test_make_data(tmp_path):
    out = os.path.join(str(tmp_path), "data")
    written = make_data(out, seed=1234)
    names = sorted(os.path.basename(p) for p in written)
    assert names == sorted(
        [f"{n}.pgm" for n in
         ("phantom", "ramp", "sinusoid", "checkerboard", "texture", "blocks")]
        + ["kernel_17.txt"]
        + [f"{n}.json" for n in EXPERIMENT_PRESETS]
    )
    kernel = read_kernel_file(os.path.join(out, "kernel_17.txt"))
    assert kernel.shape == (17, 17)
    img = read_pgm(os.path.join(out, "phantom.pgm"))
    assert img.shape == (64, 64)
    for preset in EXPERIMENT_PRESETS:
        with open(os.path.join(out, f"{preset}.json")) as fh:
            assert from_dict(json.load(fh)).problem in ("deblur", "cs")


# ------------------------------------------------------------------------ svg


def demo_curves():
    decay = [(k, 10.0 ** (-k / 2.0)) for k in range(19)]  # spans 1 .. 1e-9
    flat = [(k, 0.5) for k in range(19)]
    grow = [(k, min(150.0, 2.0**k)) for k in range(19)]
    return [("mred", decay), ("red_bls", flat), ("red", grow)]


def test_svg_structure(tmp_path):
    path = os.path.join(str(tmp_path), "plot.svg")
    plot_residual_curves(demo_curves(), path, title="tau=0.1")
    with open(path) as fh:
        text = fh.read()
    assert text.count("<polyline") == 3
    for label in ("mred", "red_bls", "red"):
        assert f">{label}</text>" in text
    # Decade gridline labels cover the data range.
    assert ">1e-9</text>" in text
    assert ">1e0</text>" in text
    assert ">1e3</text>" in text
    assert "tau=0.1" in text


def test_svg_deterministic(tmp_path):
    p1 = os.path.join(str(tmp_path), "a.svg")
    p2 = os.path.join(str(tmp_path), "b.svg")
    plot_residual_curves(demo_curves(), p1)
    plot_residual_curves(demo_curves(), p2)
    with open(p1, "rb") as fh:
        blob1 = fh.read()
    with open(p2, "rb") as fh:
        blob2 = fh.read()
    assert blob1 == blob2


def test_svg_drops_nonpositive_points(tmp_path):
    path = os.path.join(str(tmp_path), "c.svg")
    pts = [(0, 1.0), (1, 0.0), (2, 0.25)]
    plot_residual_curves([("x", pts)], path)
    with open(path) as fh:
        text = fh.read()
    line = next(ln for ln in text.splitlines() if "<polyline" in ln)
    coords = line.split('points="')[1].split('"')[0]
    assert len(coords.split()) == 2  # the zero sample has no log position


def test_svg_errors(tmp_path):
    path = os.path.join(str(tmp_path), "d.svg")
    with pytest.raises(ValueError):
        plot_residual_curves([], path)
    with pytest.raises(ValueError):
        plot_residual_curves([("x", [(0, 0.0), (1, -1.0)])], path)
    assert not os.path.exists(path)


# ------------------------------------------------------------------------ cli


def test_cli_run(tmp_path, capsys):
    tmp = str(tmp_path)
    path = write_config(tmp, SMALL)
    out = os.path.join(tmp, "out")
    code = main(["run", "--config", path, "--out", out])
    captured = capsys.readouterr()
    assert code == 0
    assert "solver=mred" in captured.out
    assert "termination=max_iters" in captured.out
    run_dir = os.path.join(out, "mred_tau0.1_phantom")
    assert sorted(os.listdir(run_dir)) == ["recon.pgm", "sidecar.json", "trace.csv"]


def test_cli_run_overrides(tmp_path, capsys):
    tmp = str(tmp_path)
    path = write_config(tmp, SMALL)
    out = os.path.join(tmp, "out")
    code = main(
        ["run", "--config", path, "--out", out, "--tau", "0.5", "--solver", "red"]
    )
    capsys.readouterr()
    assert code == 0
    assert os.path.isdir(os.path.join(out, "red_tau0.5_phantom"))


def test_cli_run_divergence_exit_code(tmp_path, capsys):
    tmp = str(tmp_path)
    path = write_config(tmp, EXPANSIVE_SMALL)
    out = os.path.join(tmp, "out")
    code = main(["run", "--config", path, "--out", out])
    captured = capsys.readouterr()
    assert code == 2
    assert "termination=diverged" in captured.out


def test_cli_run_step_floor_exit_code(tmp_path, capsys):
    tmp = str(tmp_path)
    raw = copy.deepcopy(EXPANSIVE_SMALL)
    raw["solver"]["name"] = "red_bls"
    path = write_config(tmp, raw)
    code = main(["run", "--config", path, "--out", os.path.join(tmp, "out")])
    captured = capsys.readouterr()
    assert code == 3
    assert "termination=step_floor" in captured.out


def test_cli_rejects_bad_input(tmp_path, capsys):
    tmp = str(tmp_path)
    bad = os.path.join(tmp, "bad.json")
    with open(bad, "w") as fh:
        fh.write("{oops")
    out = os.path.join(tmp, "out")
    assert main(["run", "--config", bad, "--out", out]) == 1
    assert not os.path.exists(out)  # nothing written on config failure
    path = write_config(tmp, SMALL)
    assert main(["run", "--config", path, "--frobnicate"]) == 1
    assert main(["run", "--config", path, "--solver", "sd"]) == 1
    assert main([]) == 1
    assert main(["run"]) == 1
    capsys.readouterr()


def test_cli_sweep_and_plot(tmp_path, capsys):
    tmp = str(tmp_path)
    path = write_config(tmp, SMALL)
    out = os.path.join(tmp, "sweep")
    code = main(
        ["sweep", "--config", path, "--out", out, "--tau", "0.1", "--solver",
         "red_bls,mred"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.count("run tau=") == 12
    assert captured.out.count("aggregate ") == 2
    assert "sweep complete: 12 runs, 0 failures" in captured.out
    aggs = sorted(
        os.path.join(out, name)
        for name in os.listdir(out)
        if name.startswith("aggregate_")
    )
    svg = os.path.join(tmp, "curves.svg")
    assert main(["plot", *aggs, "--out", svg]) == 0
    captured = capsys.readouterr()
    assert f"wrote {svg}" in captured.out
    with open(svg) as fh:
        text = fh.read()
    assert text.count("<polyline") == 2
    assert "tau=0.1" in text


def test_cli_sweep_rejects_unknown_solver(tmp_path, capsys):
    tmp = str(tmp_path)
    path = write_config(tmp, SMALL)
    code = main(["sweep", "--config", path, "--solver", "sd", "--out",
                 os.path.join(tmp, "x")])
    captured = capsys.readouterr()
    assert code == 1
    assert "config error" in captured.err


def test_cli_sweep_reports_failed_runs(tmp_path, capsys, monkeypatch):
    # As in test_sweep_records_failures: the sweep's first makedirs widens
    # the kernel file past the image, so every run fails in its operator.
    tmp = str(tmp_path)
    kernel = os.path.join(tmp, "k.txt")
    write_kernel_file(kernel, gaussian_kernel(5, 1.0))
    path = write_config(tmp, {**SMALL, "operator": {"kernel_path": kernel}})
    makedirs = os.makedirs

    def widen_kernel_then_makedirs(*args, **kwargs):
        write_kernel_file(kernel, np.full((33, 33), 1.0 / 33**2))
        makedirs(*args, **kwargs)

    monkeypatch.setattr(os, "makedirs", widen_kernel_then_makedirs)
    code = main(["sweep", "--config", path, "--tau", "0.1", "--solver", "mred",
                 "--out", os.path.join(tmp, "s")])
    out = capsys.readouterr().out
    assert code == 1
    for name in TEST_IMAGE_NAMES:
        assert f"FAILED (0.1, 'mred', '{name}'): ValueError: kernel size 33" in out
    assert "sweep complete: 0 runs, 6 failures" in out


def test_cli_plot_rejects_mixed_tau(tmp_path, capsys):
    tmp = str(tmp_path)
    a = os.path.join(tmp, "a.csv")
    b = os.path.join(tmp, "b.csv")
    write_aggregate_csv(a, 0.1, "mred", [(0, 1.0), (1, 0.5)], 6)
    write_aggregate_csv(b, 1.0, "red", [(0, 1.0), (1, 0.5)], 6)
    code = main(["plot", a, b, "--out", os.path.join(tmp, "p.svg")])
    captured = capsys.readouterr()
    assert code == 1
    assert "config error" in captured.err
    assert not os.path.exists(os.path.join(tmp, "p.svg"))


def test_cli_grad_check_smooth_passes(tmp_path, capsys):
    tmp = str(tmp_path)
    path = write_config(tmp, SMALL)
    code = main(["grad-check", "--config", path])
    captured = capsys.readouterr()
    assert code == 0
    assert "check passed" in captured.out
    assert "max_rel_error=" in captured.out


class _Staircase(IdentityDenoiser):
    """D(x) = x rounded to a grid of 1e-12: kinked everywhere, with a zero
    Jacobian between the kinks, yet at any finite step it moves with x."""

    def apply(self, x):
        return np.round(self._check(x) * 1e12) / 1e12

    def residual_vjp(self, x, v):
        self._check(x)
        return self._check(v).copy()

    residual_jvp = residual_vjp


def test_cli_grad_check_kinked_denoiser_fails(tmp_path, capsys, monkeypatch):
    # No flag excuses a plug-in: kinks finer than the difference step show
    # up as a gradient mismatch.
    monkeypatch.setitem(DENOISERS, "identity", ({}, lambda shape, p: _Staircase(shape[0] * shape[1])))
    tmp = str(tmp_path)
    raw = copy.deepcopy(SMALL)
    raw["denoiser"] = {"name": "identity"}
    path = write_config(tmp, raw)
    code = main(["grad-check", "--config", path])
    captured = capsys.readouterr()
    assert code == 4
    assert "check failed: gradient mismatch above 1e-5" in captured.out


def test_cli_lipschitz(tmp_path, capsys):
    tmp = str(tmp_path)
    raw = copy.deepcopy(SMALL)
    raw["denoiser"] = {"name": "scaled_identity", "scale": 1.6}
    path = write_config(tmp, raw)
    code = main(["lipschitz", "--config", path])
    captured = capsys.readouterr()
    assert code == 0
    assert "value=1.6 method=analytic probes=0 converged=True" in captured.out
    # One certificate path: the command takes no --method.
    assert main(["lipschitz", "--config", path, "--method", "jacobian_power_iteration"]) == 1
    assert "unrecognized arguments: --method" in capsys.readouterr().err


def test_cli_make_data(tmp_path, capsys):
    out = os.path.join(str(tmp_path), "data")
    code = main(["make-data", "--out", out])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.count("wrote ") == 13
    assert os.path.isfile(os.path.join(out, "deblur_expansive.json"))


@functools.cache
def _modules_loaded_by_serial_paths():
    """Two lists of the multiprocessing and concurrent modules that a child
    process holds: after importing the package and building every preset,
    and after also drawing the six test images, a CS run, a serial sweep
    and make-data."""
    code = (
        "import json, sys, tempfile\n"
        "import redlab, redlab.cli\n"
        "from redlab.config import from_dict\n"
        "from redlab.experiments import build_experiment, make_data, run_experiment, run_sweep\n"
        "from redlab.presets import EXPERIMENT_PRESETS\n"
        "def loaded():\n"
        "    watched = ('multiprocessing', 'concurrent')\n"
        "    print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in watched)))\n"
        "for name in sorted(EXPERIMENT_PRESETS):\n"
        "    build_experiment(from_dict(EXPERIMENT_PRESETS[name]))\n"
        "loaded()\n"
        "for name in redlab.TEST_IMAGE_NAMES:\n"
        "    redlab.named_test_image(name, 0, (32, 32))\n"
        "raw = dict(EXPERIMENT_PRESETS['deblur_nonexpansive'])\n"
        "raw['solver'] = dict(raw['solver'], t=2)\n"
        "cs = dict(EXPERIMENT_PRESETS['cs_expansive'])\n"
        "cs['solver'] = dict(cs['solver'], t=2)\n"
        "with tempfile.TemporaryDirectory() as tmp:\n"
        "    run_experiment(from_dict(cs), tmp + '/cs')\n"
        "    run_sweep(from_dict(raw), [0.1], ['mred'], tmp + '/sweep')\n"
        "    make_data(tmp + '/data')\n"
        "loaded()\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(redlab.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return [json.loads(line) for line in out.stdout.splitlines()]


# Run in a child process where a meta-path finder refuses every scipy
# import: every CLI command on every preset's config as make-data writes
# it, on a dct_threshold config and on a config whose 3x3 kernel file is
# of rank 2, which takes the FFT path.  Each config gets t = 3.  Prints the
# blocked imports, the scipy modules loaded, and each command's exit code.
_NO_SCIPY_CLI = """\
import importlib.abc, json, os, sys, tempfile

blocked = []


class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            blocked.append(name)
            raise ImportError(f"import of {name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())

import numpy as np

from redlab.cli import main
from redlab.pgmio import write_kernel_file
from redlab.presets import PRESET_NAMES

codes = {}
with tempfile.TemporaryDirectory() as tmp:
    data = os.path.join(tmp, "data")
    codes["make-data"] = main(["make-data", "--out", data])
    configs = {}
    for name in PRESET_NAMES:
        with open(os.path.join(data, name + ".json")) as fh:
            configs[name] = json.load(fh)
    base = configs["deblur_nonexpansive"]
    configs["dct_threshold"] = dict(base, denoiser={"name": "dct_threshold"})
    kpath = os.path.join(tmp, "cross.txt")
    write_kernel_file(kpath, np.array([[0.0, 0.1, 0.0], [0.1, 0.6, 0.1], [0.0, 0.1, 0.0]]))
    configs["fft_path"] = dict(base, operator={"kernel_path": kpath})
    for name, raw in configs.items():
        raw["solver"] = dict(raw["solver"], t=3)
        path = os.path.join(tmp, name + ".json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        out = os.path.join(tmp, "out", name)
        sweep = os.path.join(tmp, "sweep", name)
        codes[name] = [
            main(["run", "--config", path, "--out", out]),
            main(["sweep", "--config", path, "--tau", "0.1", "--solver", "mred", "--out", sweep]),
            main(["plot", os.path.join(sweep, "aggregate_mred_tau0.1.csv"),
                  "--out", os.path.join(sweep, "plot.svg")]),
            main(["grad-check", "--config", path]),
            main(["lipschitz", "--config", path]),
        ]
print(json.dumps({
    "blocked": blocked,
    "loaded": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "codes": codes,
}))
"""


def test_scipy_stays_off_the_import_path():
    # The package needs numpy alone: scipy is a test extra, not a runtime
    # dependency, and would cost about 30 MB and a third of a second of
    # import time (scipy.signal another 40 MB and half a second).
    src = os.path.dirname(os.path.dirname(os.path.abspath(redlab.__file__)))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_CLI], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["blocked"] == [] and report["loaded"] == []
    # Every command exits 0: at t = 3 no run diverges or hits its floor.
    codes = report["codes"]
    assert codes.pop("make-data") == 0
    assert sorted(codes) == sorted(PRESET_NAMES + ("dct_threshold", "fft_path"))
    assert all(c == [0, 0, 0, 0, 0] for c in codes.values()), codes


def test_serial_paths_do_not_load_multiprocessing():
    # Loading the process pool costs every process about 1.5 MB; only a
    # parallel sweep needs it.
    for mods in _modules_loaded_by_serial_paths():
        assert "concurrent.futures.process" not in mods
        assert not [m for m in mods if m.split(".")[0] == "multiprocessing"]
