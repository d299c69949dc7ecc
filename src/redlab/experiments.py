"""Builds experiments from configs, runs them, and aggregates sweeps.

A run always synthesizes its own measurements from a known clean image, so
reconstruction quality can be traced per iteration.  Outputs per run: the
iteration trace CSV, a JSON sidecar sufficient to re-run bit-identically
(it records the OpenBLAS thread count, `blas_threads`, on which the CS bits
depend; null where the library is not found), and the reconstruction as a
16-bit PGM.
"""

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .config import ExperimentConfig, from_dict, to_dict
from .denoisers import LipschitzEstimate, estimate_lipschitz
from .fidelity import LeastSquaresFidelity, NoiseSpec, add_noise_at_snr
from .images import ImageGrid, TEST_IMAGE_NAMES, gaussian_kernel, named_test_image
from .operators import DeblurOperator, _blas_threads, build_cs_operator, spectral_norm_sq
from .pgmio import read_kernel_file, read_pgm, write_kernel_file, write_pgm
from .presets import EXPERIMENT_PRESETS, build_denoiser
from .red import REDProblem
from .rng import RngState, gaussian_samples
from .solvers import SolverConfig, default_gamma, run_solver
from .traceio import write_aggregate_csv, write_sidecar, write_trace_csv

# Reduced effort for the per-run sidecar certification of denoisers without
# a closed-form constant; the dedicated CLI command uses the estimator
# defaults instead.
_RUN_LIPSCHITZ_PROBES = 4
_RUN_LIPSCHITZ_ITERS = 120


@dataclass
class BuiltExperiment:
    config: ExperimentConfig
    op: object
    x_true: np.ndarray
    y: np.ndarray
    x0: np.ndarray
    denoiser: object
    problem: REDProblem
    solver_name: str
    solver_config: SolverConfig
    spectral: object
    gamma: float


def _load_true_image(cfg):
    if "preset" in cfg.image:
        return named_test_image(cfg.image["preset"], cfg.image_seed, cfg.shape).values
    img = read_pgm(cfg.image["pgm"])
    if img.shape != tuple(cfg.shape):
        raise ValueError(
            f"config shape {tuple(cfg.shape)} does not match PGM shape {img.shape}"
        )
    return img.values


def _build_operator(cfg):
    if cfg.problem == "deblur":
        if "kernel_path" in cfg.operator:
            kernel = read_kernel_file(cfg.operator["kernel_path"])
        else:
            kernel = gaussian_kernel(
                cfg.operator["kernel_size"], cfg.operator["kernel_sigma"]
            )
        return DeblurOperator(cfg.shape, kernel)
    n = cfg.shape[0] * cfg.shape[1]
    return build_cs_operator(round(cfg.operator["ratio"] * n), n, cfg.operator["seed"])


def build_experiment(cfg):
    """Construct operator, measurements, denoiser, problem, and solver setup."""
    x_true = _load_true_image(cfg)
    op = _build_operator(cfg)
    snr = cfg.noise["input_snr_db"]
    spec = NoiseSpec(math.inf if snr is None else snr, cfg.noise["seed"])
    y, _e = add_noise_at_snr(op, x_true, spec)
    denoiser = build_denoiser(cfg.denoiser, cfg.shape)
    problem = REDProblem(LeastSquaresFidelity(op, y), denoiser, cfg.tau)
    spectral = spectral_norm_sq(op)
    gamma = cfg.solver["gamma"]
    if gamma is None:
        gamma = default_gamma(spectral.value, cfg.tau)
    solver_kwargs = {
        k: v for k, v in cfg.solver.items() if k not in ("name", "gamma")
    }
    solver_config = SolverConfig(gamma=gamma, **solver_kwargs)
    x0 = y.copy() if cfg.problem == "deblur" else op.adjoint(y)
    return BuiltExperiment(
        config=cfg,
        op=op,
        x_true=x_true,
        y=y,
        x0=x0,
        denoiser=denoiser,
        problem=problem,
        solver_name=cfg.solver["name"],
        solver_config=solver_config,
        spectral=spectral,
        gamma=gamma,
    )


def _metrics(result):
    last = result.trace[-1]
    return {
        "solver": result.solver,
        "termination": result.termination,
        "iterations": len(result.trace) - 1,
        "final_phi": last.phi,
        "final_norm_resid": last.normalized_residual,
        "final_psnr_db": last.psnr_db,
    }


def _certify(denoiser):
    """The denoiser's Lipschitz certificate for the sidecar.

    A declared closed-form constant is exact; otherwise a reduced-effort
    Jacobian power iteration.
    """
    if denoiser.nominal_lipschitz is not None:
        return LipschitzEstimate(denoiser.nominal_lipschitz, "analytic", 0, True)
    return estimate_lipschitz(
        denoiser, probes=_RUN_LIPSCHITZ_PROBES, iters=_RUN_LIPSCHITZ_ITERS
    )


def run_experiment(cfg, out_dir=None):
    """Run one experiment; optionally persist trace, sidecar, reconstruction.

    Returns (SolveResult, BuiltExperiment, metrics dict).
    """
    built = build_experiment(cfg)
    result = run_solver(
        built.solver_name, built.problem, built.x0, built.solver_config,
        psnr_ref=built.x_true,
    )
    metrics = _metrics(result)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_trace_csv(os.path.join(out_dir, "trace.csv"), result)
        lip = _certify(built.denoiser)
        psnr = metrics["final_psnr_db"]
        sidecar = {
            "library_version": __version__,
            "blas_threads": _blas_threads(),
            "config": to_dict(cfg),
            "solver": built.solver_name,
            "L": {
                "value": built.spectral.value,
                "iterations": built.spectral.iterations,
                "converged": built.spectral.converged,
            },
            "gamma": built.gamma,
            "lipschitz": {
                "value": lip.value,
                "method": lip.method,
                "probes": lip.probes,
                "converged": lip.converged,
            },
            "termination": result.termination,
            "iterations": metrics["iterations"],
            "final_phi": metrics["final_phi"],
            "final_norm_resid": metrics["final_norm_resid"],
            "final_psnr_db": None if psnr is None or math.isinf(psnr) else psnr,
            "counters": asdict(result.counters),
        }
        write_sidecar(os.path.join(out_dir, "sidecar.json"), sidecar)
        recon = ImageGrid(cfg.shape[0], cfg.shape[1], result.x_star)
        write_pgm(os.path.join(out_dir, "recon.pgm"), recon)
    return result, built, metrics


def _tau_token(tau):
    return repr(float(tau))


def run_dir_name(solver, tau, image_name):
    return f"{solver}_tau{_tau_token(tau)}_{image_name}"


def _sweep_child(payload):
    """Worker for one sweep run; module-level so it pickles for process pools."""
    raw, out_dir = payload
    cfg = from_dict(raw)
    result, _built, metrics = run_experiment(cfg, out_dir)
    curve = [(rec.k, rec.normalized_residual) for rec in result.trace]
    return metrics, curve


def _pad_to(curve, length):
    # A finished run keeps its final value: a floored search returns the
    # previous iterate forever, and a diverged one has stopped changing.
    vals = [v for _k, v in curve]
    return vals + [vals[-1]] * (length - len(vals))


def run_sweep(cfg, taus, solvers, out_root, parallel=False):
    """Cartesian product of taus x solvers x the six synthetic images.

    Returns {"runs": [...], "failures": [...], "aggregates": [...]}.
    Failures do not stop the sweep.  `out_root/summary.json` holds the runs
    and the failures, with sorted keys and no timing, so reruns write the
    same bytes.
    """
    if not taus or not solvers:
        raise ValueError("sweep needs at least one tau and one solver")
    os.makedirs(out_root, exist_ok=True)
    jobs = []
    for tau in taus:
        for solver in solvers:
            for image_name in TEST_IMAGE_NAMES:
                child = replace(
                    cfg,
                    image={"preset": image_name},
                    tau=float(tau),
                    solver={**cfg.solver, "name": solver},
                )
                out_dir = os.path.join(out_root, run_dir_name(solver, tau, image_name))
                jobs.append(((tau, solver, image_name), (to_dict(child), out_dir)))
    outcomes = {}
    failures = []

    def fail(key, exc):
        failures.append({"run": key, "type": type(exc).__name__, "error": str(exc)})

    if parallel:
        with ProcessPoolExecutor() as pool:
            futures = [(key, pool.submit(_sweep_child, payload)) for key, payload in jobs]
            for key, fut in futures:
                exc = fut.exception()
                if exc is not None:
                    fail(key, exc)
                else:
                    outcomes[key] = fut.result()
    else:
        for key, payload in jobs:
            try:
                outcomes[key] = _sweep_child(payload)
            except Exception as exc:
                fail(key, exc)
    runs = []
    for key, _payload in jobs:
        if key in outcomes:
            tau, solver, image_name = key
            metrics, _curve = outcomes[key]
            runs.append({"tau": tau, "solver": solver, "image": image_name, **metrics})
    aggregates = []
    for tau in taus:
        for solver in solvers:
            curves = [
                outcomes[(tau, solver, name)][1]
                for name in TEST_IMAGE_NAMES
                if (tau, solver, name) in outcomes
            ]
            if not curves:
                continue
            length = max(len(c) for c in curves)
            padded = [_pad_to(c, length) for c in curves]
            rows = [
                (k, sum(p[k] for p in padded) / len(padded)) for k in range(length)
            ]
            path = os.path.join(
                out_root, f"aggregate_{solver}_tau{_tau_token(tau)}.csv"
            )
            write_aggregate_csv(path, tau, solver, rows, len(curves))
            aggregates.append(path)
    write_sidecar(
        os.path.join(out_root, "summary.json"), {"runs": runs, "failures": failures}
    )
    return {"runs": runs, "failures": failures, "aggregates": aggregates}


def grad_check(cfg, probes=20, h=1e-5, seed=0):
    """Directional derivative check of the loss gradient at random points.

    Returns (max relative error, per-probe list).  Probe points sit in the
    unit pixel box; directions are unit Gaussian vectors.
    """
    built = build_experiment(cfg)
    p = built.problem
    rng = RngState(seed)
    errs = []
    for _ in range(probes):
        x = rng.uniform(p.n)
        v = gaussian_samples(rng, p.n)
        v = v / np.linalg.norm(v)
        d_analytic = float(p.grad_phi(x) @ v)
        d_fd = (p.phi(x + h * v) - p.phi(x - h * v)) / (2.0 * h)
        scale = max(abs(d_analytic), abs(d_fd), 1e-12)
        errs.append(abs(d_analytic - d_fd) / scale)
    return max(errs), errs


def lipschitz_report(cfg, method="jacobian_power_iteration"):
    """Estimate the Lipschitz constant of the configured denoiser."""
    denoiser = build_denoiser(cfg.denoiser, cfg.shape)
    return estimate_lipschitz(denoiser, method=method)


def make_data(out_dir, seed=1234, shape=(64, 64)):
    """Emit the six synthetic images (16-bit PGM), the default 17x17 kernel
    file, and one JSON config per shipped experiment preset."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name in TEST_IMAGE_NAMES:
        path = os.path.join(out_dir, f"{name}.pgm")
        write_pgm(path, named_test_image(name, seed, shape))
        written.append(path)
    kpath = os.path.join(out_dir, "kernel_17.txt")
    write_kernel_file(kpath, gaussian_kernel(17, 2.0))
    written.append(kpath)
    for preset_name in sorted(EXPERIMENT_PRESETS):
        path = os.path.join(out_dir, f"{preset_name}.json")
        with open(path, "w") as fh:
            json.dump(EXPERIMENT_PRESETS[preset_name], fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(path)
    return written
