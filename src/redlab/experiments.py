"""Builds experiments from configs, runs them, and aggregates sweeps.

A run always synthesizes its own measurements from a known clean image, so
reconstruction quality can be traced per iteration.  Outputs per run: the
iteration trace CSV, a JSON sidecar sufficient to re-run bit-identically
(it records the OpenBLAS thread count, `blas_threads`, on which the CS bits
depend; null where the library is not found), and the reconstruction as a
16-bit PGM.  A config says only what a run computes: the caller names the
directory, and no artifact records it, so a run writes the same bytes
under any root.
"""

import itertools
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, from_dict, to_dict
from .config import _clean_image, _kernel, _solver_config
from .denoisers import LipschitzEstimate, estimate_lipschitz
from .fidelity import LeastSquaresFidelity, add_noise_at_snr
from .images import TEST_IMAGE_NAMES, gaussian_kernel, named_test_image
from .operators import DeblurOperator, _blas_threads, build_cs_operator
from .pgmio import write_kernel_file, write_pgm
from .presets import EXPERIMENT_PRESETS, build_denoiser
from .red import REDProblem
from .rng import _generator
from .solvers import SolverConfig, run_solver
from .traceio import read_sidecar, write_aggregate_csv, write_sidecar, write_trace_csv

# Reduced effort for the per-run sidecar certification of denoisers without
# a closed-form constant; the dedicated CLI command uses the estimator
# defaults instead.
_RUN_LIPSCHITZ_PROBES = 4
_RUN_LIPSCHITZ_ITERS = 120


@dataclass
class BuiltExperiment:
    config: ExperimentConfig
    x_true: np.ndarray
    x0: np.ndarray
    problem: REDProblem
    solver_config: SolverConfig
    L: float


def _build_operator(cfg):
    if cfg.problem == "deblur":
        return DeblurOperator(cfg.shape, _kernel(cfg.operator))
    n = cfg.shape[0] * cfg.shape[1]
    return build_cs_operator(round(cfg.operator["ratio"] * n), n, cfg.operator["seed"])


def build_experiment(cfg):
    """Construct operator, measurements, denoiser, problem, and solver setup."""
    x_true = _clean_image(cfg.image, cfg.image_seed, cfg.shape)
    op = _build_operator(cfg)
    y, _e = add_noise_at_snr(op, x_true, cfg.noise["input_snr_db"], cfg.noise["seed"])
    denoiser = build_denoiser(cfg.denoiser, cfg.shape)
    problem = REDProblem(LeastSquaresFidelity(op, y), denoiser, cfg.tau)
    L = op.exact_spectral_norm_sq()
    # A CS run starts from the back-projection A^T y, which the fidelity keeps.
    x0 = y.copy() if cfg.problem == "deblur" else problem.fidelity.b.copy()
    return BuiltExperiment(cfg, x_true, x0, problem, _solver_config(cfg.solver, cfg.tau, L), L)


def _metrics(result):
    last = result.trace[-1]
    metrics = {
        "solver": result.solver,
        "termination": result.termination,
        "iterations": len(result.trace) - 1,
        "final_phi": last.phi,
        "final_norm_resid": last.normalized_residual,
        "final_psnr_db": last.psnr_db,
    }
    # Strict JSON holds no inf or NaN: an exact reconstruction's PSNR, or
    # the phi of a run whose numbers overflowed, is null.
    return {
        k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in metrics.items()
    }


def lipschitz_report(denoiser, **effort):
    """The denoiser's Lipschitz certificate, as a run's sidecar and
    `redlab lipschitz` report it.

    A declared closed-form constant is exact; otherwise a Jacobian power
    iteration with `effort` (probes, iters), the estimator's defaults when
    none is given.
    """
    if denoiser.nominal_lipschitz is not None:
        return LipschitzEstimate(denoiser.nominal_lipschitz, "analytic", 0, True)
    return estimate_lipschitz(denoiser, **effort)


def check_run_dir(cfg, out_dir):
    """Refuse, with a ConfigError, a run directory that holds a run of a
    config other than `cfg`: several configs map to one run directory, and
    a run never replaces another config's."""
    sidecar = os.path.join(out_dir, "sidecar.json")
    if os.path.isfile(sidecar) and read_sidecar(sidecar).get("config") != to_dict(cfg):
        raise ConfigError(
            f"{out_dir} holds a run of another config; choose another output directory"
        )


def run_experiment(cfg, out_dir=None):
    """Run one experiment; optionally persist trace, sidecar, reconstruction.

    Returns (SolveResult, BuiltExperiment, metrics dict).  Given an
    `out_dir` that holds another config's run, raises a ConfigError (see
    check_run_dir) before anything is built or written.
    """
    if out_dir is not None:
        check_run_dir(cfg, out_dir)
    built = build_experiment(cfg)
    result = run_solver(
        cfg.solver["name"], built.problem, built.x0, built.solver_config,
        psnr_ref=built.x_true,
    )
    metrics = _metrics(result)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_trace_csv(os.path.join(out_dir, "trace.csv"), result)
        lip = lipschitz_report(
            built.problem.denoiser, probes=_RUN_LIPSCHITZ_PROBES, iters=_RUN_LIPSCHITZ_ITERS
        )
        sidecar = {
            **metrics,
            "library_version": __version__,
            "blas_threads": _blas_threads(),
            "config": to_dict(cfg),
            "L": built.L,
            "gamma": built.solver_config.gamma,
            "lipschitz": asdict(lip),
            "counters": asdict(result.counters),
        }
        write_sidecar(os.path.join(out_dir, "sidecar.json"), sidecar)
        write_pgm(os.path.join(out_dir, "recon.pgm"), result.x_star.reshape(cfg.shape))
    return result, built, metrics


def _tau_token(tau):
    return repr(float(tau))


def run_dir(cfg, root):
    """The run directory of `cfg` under `root`: <solver>_tau<tau>_<image>,
    where a PGM image is named `pgm`."""
    image = cfg.image if isinstance(cfg.image, str) else "pgm"
    return os.path.join(root, f"{cfg.solver['name']}_tau{_tau_token(cfg.tau)}_{image}")


def _sweep_child(cfg, out_dir):
    """One sweep run: (metrics, residual curve), or the exception it raised.

    Module-level so that it pickles for process pools.
    """
    try:
        result, _built, metrics = run_experiment(cfg, out_dir)
    except Exception as exc:
        return exc
    return metrics, [rec.normalized_residual for rec in result.trace]


def _pad_to(curve, length):
    # A finished run keeps its final value: a floored search returns the
    # previous iterate forever, and a diverged one has stopped changing.
    return curve + [curve[-1]] * (length - len(curve))


def run_sweep(cfg, taus, solvers, out_root, parallel=False):
    """Cartesian product of taus x solvers x the six synthetic images.

    Returns {"runs": [...], "failures": [...], "aggregates": [...]}.
    Every grid point is parsed as a config and its run directory checked
    (see check_run_dir) before any run starts, so an invalid point, two
    points that share a run directory, or a directory that holds another
    config's run raises a ConfigError and writes nothing.  Failed runs do
    not stop the sweep.  `out_root/summary.json` holds the runs and the
    failures, with sorted keys and no timing, so reruns write the same bytes.
    """
    if not taus or not solvers:
        raise ValueError("sweep needs at least one tau and one solver")
    raw = to_dict(cfg)
    jobs = {}  # run directory -> (grid point, config)
    for tau, solver, image in itertools.product(taus, solvers, TEST_IMAGE_NAMES):
        child = from_dict(
            {**raw, "image": image, "tau": tau, "solver": {**raw["solver"], "name": solver}}
        )
        out_dir = run_dir(child, out_root)
        if out_dir in jobs:
            raise ConfigError(f"two grid points share the run directory {out_dir}")
        check_run_dir(child, out_dir)
        jobs[out_dir] = (tau, solver, image), child
    os.makedirs(out_root, exist_ok=True)
    if parallel:
        # Imported here, so that a serial sweep never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor() as pool:
            futures = [pool.submit(_sweep_child, c, d) for d, (_k, c) in jobs.items()]
            outcomes = [f.exception() or f.result() for f in futures]
    else:
        outcomes = [_sweep_child(c, d) for d, (_k, c) in jobs.items()]
    runs, failures, curves = [], [], {}
    for (key, _cfg), outcome in zip(jobs.values(), outcomes):
        if isinstance(outcome, BaseException):
            failures.append({"run": key, "type": type(outcome).__name__, "error": str(outcome)})
            continue
        tau, solver, image = key
        metrics, curve = outcome
        runs.append({"tau": tau, "solver": solver, "image": image, **metrics})
        curves.setdefault((tau, solver), []).append(curve)
    aggregates = []
    for (tau, solver), group in curves.items():
        length = max(len(c) for c in group)
        padded = [_pad_to(c, length) for c in group]
        rows = [(k, sum(p[k] for p in padded) / len(padded)) for k in range(length)]
        path = os.path.join(out_root, f"aggregate_{solver}_tau{_tau_token(tau)}.csv")
        write_aggregate_csv(path, tau, solver, rows, len(group))
        aggregates.append(path)
    write_sidecar(
        os.path.join(out_root, "summary.json"), {"runs": runs, "failures": failures}
    )
    return {"runs": runs, "failures": failures, "aggregates": aggregates}


def grad_check(cfg, h=1e-5, seed=0):
    """Directional derivative check of the loss gradient at 20 random points.

    Returns (max relative error, per-probe list).  Probe points sit in the
    unit pixel box; directions are unit Gaussian vectors.
    """
    p = build_experiment(cfg).problem

    def phi(x):
        g = p.operator_g(x)
        return 0.5 * float(g @ g)

    rng = _generator(seed)
    errs = []
    for _ in range(20):
        x = rng.random(p.n)
        v = rng.standard_normal(p.n)
        v = v / np.linalg.norm(v)
        d_analytic = float(p.grad_phi(x) @ v)
        d_fd = (phi(x + h * v) - phi(x - h * v)) / (2.0 * h)
        scale = max(abs(d_analytic), abs(d_fd), 1e-12)
        errs.append(abs(d_analytic - d_fd) / scale)
    return max(errs), errs


def make_data(out_dir, seed=1234):
    """Emit the six synthetic 64x64 images (16-bit PGM), the default 17x17
    kernel file, and one JSON config per shipped experiment preset."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name in TEST_IMAGE_NAMES:
        path = os.path.join(out_dir, f"{name}.pgm")
        write_pgm(path, named_test_image(name, seed, (64, 64)))
        written.append(path)
    kpath = os.path.join(out_dir, "kernel_17.txt")
    write_kernel_file(kpath, gaussian_kernel(17, 2.0))
    written.append(kpath)
    for preset_name in sorted(EXPERIMENT_PRESETS):
        path = os.path.join(out_dir, f"{preset_name}.json")
        write_sidecar(path, EXPERIMENT_PRESETS[preset_name])
        written.append(path)
    return written
