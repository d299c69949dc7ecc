"""Experiment configs, run artifacts, sweeps, plots, and the CLI."""

import copy
import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import redlab
from redlab import operators
from redlab import (
    CompressiveSensingOperator,
    DctSoftThresholdDenoiser,
    IdentityDenoiser,
    ImageGrid,
    LeastSquaresFidelity,
    LinearSmoothingDenoiser,
    REDProblem,
    RngState,
    ScaledDenoiser,
    SolverConfig,
    TEST_IMAGE_NAMES,
    default_gamma,
    gaussian_kernel,
    mred,
    named_test_image,
    red_sd_fixed,
    run_solver,
)
from redlab.cli import main
from redlab.config import ConfigError, ExperimentConfig, from_dict, load_config, to_dict
from redlab.experiments import (
    build_experiment,
    grad_check,
    lipschitz_report,
    make_data,
    run_dir_name,
    run_experiment,
    run_sweep,
)
from redlab.pgmio import read_kernel_file, read_pgm, write_kernel_file, write_pgm
from redlab.presets import EXPERIMENT_PRESETS, experiment_preset
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
        "conventional_armijo": False,
    }
    assert cfg.out == "runs"


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
        ({"name": "convnet", "layers": 2.5}, "layers"),
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


def test_cli_sweep_lists_are_the_grid_not_overrides(tmp_path, monkeypatch):
    seen = {}

    def fake_sweep(cfg, taus, solvers, out_root, parallel=False):
        seen.update(cfg=cfg, taus=taus, solvers=solvers)
        return {"runs": [], "failures": [], "aggregates": []}

    monkeypatch.setattr("redlab.cli.run_sweep", fake_sweep)
    tmp = str(tmp_path)
    args = ["sweep", "--config", write_config(tmp, SMALL), "--out", os.path.join(tmp, "x"),
            "--tau", "1,0.1", "--solver", "red,mred", "--seed", "7"]
    assert main(args) == 0
    assert seen["taus"] == [1.0, 0.1] and seen["solvers"] == ["red", "mred"]
    want = from_dict({**SMALL, "noise": {"seed": 7}})
    assert seen["cfg"] == want


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
        lambda: DctSoftThresholdDenoiser((8, 8), nan),
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
    return mred(p, np.zeros(4), SolverConfig(gamma=0.5, t=t), psnr_ref=psnr_ref)


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


# ------------------------------------------------------------------ building


def test_build_deblur_starts_from_measurements():
    built = build_experiment(from_dict(copy.deepcopy(SMALL)))
    assert np.array_equal(built.x0, built.y)
    assert built.x0 is not built.y
    assert built.gamma == 1.0 / (built.spectral.value + 2.0 * 0.1)


def test_build_cs_starts_from_backprojection():
    raw = {
        "problem": "cs",
        "shape": [32, 32],
        "denoiser": {"name": "identity"},
        "solver": {"name": "mred", "t": 5},
    }
    built = build_experiment(from_dict(raw))
    assert built.op.m == round(0.1 * 1024)
    assert np.array_equal(built.x0, built.op.adjoint(built.y))
    # Default CS noise is off: measurements are exactly A x_true.
    assert np.array_equal(built.y, built.op.forward(built.x_true))


def test_build_honors_explicit_gamma():
    raw = copy.deepcopy(SMALL)
    raw["solver"]["gamma"] = 0.125
    built = build_experiment(from_dict(raw))
    assert built.gamma == 0.125
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
    assert sidecar["gamma"] == built.gamma
    assert sidecar["iterations"] == metrics["iterations"]
    assert sidecar["counters"]["denoiser_applies"] == result.counters.denoiser_applies
    assert sidecar["lipschitz"]["value"] <= 1.0 + 1e-6
    recon = read_pgm(os.path.join(out, "recon.pgm"))
    assert recon.shape == (32, 32)
    assert np.max(np.abs(recon.values - np.clip(result.x_star, 0, 1))) <= 0.5 / 65535


def test_run_sidecar_certificates(tmp_path):
    # Deblur L and a declared denoiser constant are exact; the convnet
    # declares none, so its certificate is still estimated.
    out = os.path.join(str(tmp_path), "smoother")
    run_experiment(from_dict(copy.deepcopy(SMALL)), out)
    sidecar = read_sidecar(os.path.join(out, "sidecar.json"))
    assert sidecar["L"]["iterations"] == 0
    assert sidecar["L"]["converged"] is True
    assert sidecar["lipschitz"]["converged"] is True
    assert sidecar["lipschitz"]["method"] == "analytic"
    raw = copy.deepcopy(SMALL)
    raw["denoiser"] = {"name": "convnet"}
    raw["solver"]["t"] = 2
    out = os.path.join(str(tmp_path), "convnet")
    run_experiment(from_dict(raw), out)
    sidecar = read_sidecar(os.path.join(out, "sidecar.json"))
    assert sidecar["lipschitz"]["method"] == "jacobian_power_iteration"


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
    res = run_solver(built.solver_name, p, built.x0, built.solver_config)
    g0 = p.operator_g(built.x0)
    g_star = p.operator_g(res.x_star)
    exact = float(g_star @ g_star) / float(g0 @ g0)
    assert abs(exact - res.final_normalized_residual) <= 1e-12


@pytest.mark.parametrize("preset", ["cs_nonexpansive", "cs_expansive"])
def test_mred_takes_the_projection_identity_on_cs(preset, monkeypatch):
    # After a fallback, eval_state hands back A^T A grad phi from the same
    # pass over A as A^T A G; the run must be the one without that shortcut.
    raw = experiment_preset(preset)
    raw["solver"]["t"] = 300
    built = build_experiment(from_dict(raw))
    args = (built.problem, built.x0, built.solver_config)
    new = mred(*args)
    with monkeypatch.context() as mp:
        mp.setattr(CompressiveSensingOperator, "gram_is_projection", False)
        old = mred(*args)
    assert new.termination == old.termination
    assert [r.mode for r in new.trace] == [r.mode for r in old.trace]
    assert [r.backtracks for r in new.trace] == [r.backtracks for r in old.trace]
    for a, b in zip(new.trace, old.trace):
        assert abs(a.phi - b.phi) <= 1e-12 * abs(b.phi)
    # One pass for grad g at x0 and one per iteration; a fallback adds one
    # only where the iteration before it was not a fallback.
    modes = [r.mode for r in new.trace]
    first_fallbacks = sum(
        m == "gradient_step" and prev != "gradient_step" for prev, m in zip(modes, modes[1:])
    )
    c = new.counters
    assert c.operator_forwards == c.operator_adjoints == len(modes) + first_fallbacks
    if preset == "cs_nonexpansive":
        # No fallback, so no stack: the run keeps its bits.
        assert "gradient_step" not in modes
        assert [r.phi for r in new.trace] == [r.phi for r in old.trace]
    else:
        assert modes.count("gradient_step") > first_fallbacks


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


def test_run_dir_name():
    assert run_dir_name("mred", 0.1, "phantom") == "mred_tau0.1_phantom"
    assert run_dir_name("red", 1, "blocks") == "red_tau1.0_blocks"


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
        sweep_dir = os.path.join(out_root, run_dir_name("mred", 0.1, name))
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


def test_sweep_records_failures(tmp_path):
    raw = copy.deepcopy(SMALL)
    raw["operator"] = {"kernel_size": 33, "kernel_sigma": 2.0}  # wider than image
    cfg = from_dict(raw)
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
    raw = copy.deepcopy(SMALL)
    raw["denoiser"] = {"name": "scaled_identity", "scale": 1.6}
    est = lipschitz_report(from_dict(raw))
    assert abs(est.value - 1.6) <= 1e-6
    assert est.method == "jacobian_power_iteration"


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
    assert kernel.size == 17
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


def test_cli_grad_check_kinked_denoiser_fails(tmp_path, capsys):
    tmp = str(tmp_path)
    raw = copy.deepcopy(SMALL)
    raw["denoiser"] = {"name": "dct_threshold", "threshold": 0.1, "smoothing_mu": 0.0}
    path = write_config(tmp, raw)
    code = main(["grad-check", "--config", path])
    captured = capsys.readouterr()
    assert code == 4
    assert "check failed" in captured.out


def test_cli_lipschitz(tmp_path, capsys):
    tmp = str(tmp_path)
    raw = copy.deepcopy(SMALL)
    raw["denoiser"] = {"name": "scaled_identity", "scale": 1.6}
    path = write_config(tmp, raw)
    code = main(["lipschitz", "--config", path])
    captured = capsys.readouterr()
    assert code == 0
    value = float(captured.out.split("value=")[1].split()[0])
    assert abs(value - 1.6) <= 1e-6
    assert "method=jacobian_power_iteration" in captured.out


def test_cli_make_data(tmp_path, capsys):
    out = os.path.join(str(tmp_path), "data")
    code = main(["make-data", "--out", out])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.count("wrote ") == 13
    assert os.path.isfile(os.path.join(out, "deblur_expansive.json"))


def test_scipy_signal_stays_off_the_import_path():
    # scipy.signal costs about 40 MB and half a second of import time; no
    # path of the package loads it: not the presets' builds, the six test
    # images, a sweep, nor make-data.
    code = (
        "import sys, tempfile\n"
        "import redlab, redlab.cli\n"
        "from redlab.config import from_dict\n"
        "from redlab.experiments import build_experiment, make_data, run_sweep\n"
        "from redlab.presets import EXPERIMENT_PRESETS\n"
        "for name in sorted(EXPERIMENT_PRESETS):\n"
        "    build_experiment(from_dict(EXPERIMENT_PRESETS[name]))\n"
        "print('scipy.signal' in sys.modules)\n"
        "for name in redlab.TEST_IMAGE_NAMES:\n"
        "    redlab.named_test_image(name, 0, (32, 32))\n"
        "raw = dict(EXPERIMENT_PRESETS['deblur_nonexpansive'])\n"
        "raw['solver'] = dict(raw['solver'], t=2)\n"
        "with tempfile.TemporaryDirectory() as tmp:\n"
        "    run_sweep(from_dict(raw), [0.1], ['mred'], tmp + '/sweep')\n"
        "    make_data(tmp + '/data')\n"
        "print('scipy.signal' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(redlab.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "False"]
