"""Command-line front end.

`run` and `sweep` write under `--out DIR` (default `runs`); the directory
is not part of the config, so one config reruns into one directory under
any spelling of its path.

Exit codes: 0 success, 1 usage or configuration error or a sweep with a
failed run, 2 solver diverged, 3 line search hit its step floor, 4 a check
command failed.
"""

import argparse
import re
import sys

from .config import ConfigError, from_dict, load_config, to_dict
from .experiments import (
    grad_check,
    lipschitz_report,
    make_data,
    run_dir,
    run_experiment,
    run_sweep,
)
from .presets import build_denoiser
from .solvers import SOLVER_NAMES
from .svgplot import plot_residual_curves
from .traceio import read_aggregate_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIVERGED = 2
EXIT_STEP_FLOOR = 3
EXIT_CHECK_FAILED = 4

_TERMINATION_EXIT = {
    "max_iters": EXIT_OK,
    "converged_tol": EXIT_OK,
    "diverged": EXIT_DIVERGED,
    "step_floor": EXIT_STEP_FLOOR,
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # -1e-3 and -1e-3,0.1 are values, so that a negative tau reaches the
        # config check; argparse's own pattern takes plain decimals only.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # argparse exits 2 on usage errors by default; 2 means "diverged" here.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _apply_overrides(cfg, tau=None, solver=None, seed=None):
    """The config with the given command-line values, parsed again so that
    they meet the same checks as the file's."""
    raw = to_dict(cfg)
    if tau is not None:
        raw["tau"] = tau
    if solver is not None:
        raw["solver"]["name"] = solver
    if seed is not None:
        raw["noise"]["seed"] = seed
    return from_dict(raw)


def _fmt_metric(v):
    if v is None:
        return "n/a"
    return repr(float(v))


def _cmd_run(args):
    cfg = _apply_overrides(load_config(args.config), args.tau, args.solver, args.seed)
    out_dir = run_dir(cfg, args.out)
    result, _built, metrics = run_experiment(cfg, out_dir)
    print(
        f"solver={metrics['solver']} termination={metrics['termination']} "
        f"iterations={metrics['iterations']} "
        f"final_norm_resid={_fmt_metric(metrics['final_norm_resid'])} "
        f"final_phi={_fmt_metric(metrics['final_phi'])} "
        f"final_psnr_db={_fmt_metric(metrics['final_psnr_db'])} "
        f"out={out_dir}"
    )
    return _TERMINATION_EXIT[result.termination]


def _parse_list(text, convert, what):
    items = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not items:
        raise ConfigError(f"empty {what} list")
    try:
        return [convert(tok) for tok in items]
    except ValueError:
        raise ConfigError(f"invalid {what} list {text!r}") from None


def _cmd_sweep(args):
    # --tau and --solver are the grid's lists, not overrides.
    cfg = _apply_overrides(load_config(args.config), seed=args.seed)
    taus = _parse_list(args.tau or "1,0.1,0.01", float, "tau")
    solvers = _parse_list(args.solver or ",".join(SOLVER_NAMES), str, "solver")
    summary = run_sweep(cfg, taus, solvers, args.out, parallel=args.parallel)
    for run in summary["runs"]:
        print(
            f"run tau={run['tau']} solver={run['solver']} image={run['image']} "
            f"termination={run['termination']} "
            f"final_norm_resid={_fmt_metric(run['final_norm_resid'])}"
        )
    for agg in summary["aggregates"]:
        print(f"aggregate {agg}")
    for failure in summary["failures"]:
        print(f"FAILED {failure['run']}: {failure['type']}: {failure['error']}")
    print(
        f"sweep complete: {len(summary['runs'])} runs, "
        f"{len(summary['failures'])} failures"
    )
    return EXIT_OK if not summary["failures"] else EXIT_USAGE


def _cmd_plot(args):
    curves = []
    tau = None
    for path in args.aggregates:
        meta, rows = read_aggregate_csv(path)
        if tau is None:
            tau = meta["tau"]
        elif meta["tau"] != tau:
            raise ConfigError(
                f"aggregates mix tau values ({tau} vs {meta['tau']}); "
                "plot one tau per SVG"
            )
        curves.append((meta["solver"], rows))
    plot_residual_curves(curves, args.out, title=f"tau={tau}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_grad_check(args):
    cfg = _apply_overrides(load_config(args.config), seed=args.seed)
    max_err, errs = grad_check(cfg, seed=args.seed if args.seed is not None else 0)
    print(f"probes={len(errs)} max_rel_error={repr(max_err)}")
    if max_err > 1e-5:
        print("check failed: gradient mismatch above 1e-5")
        return EXIT_CHECK_FAILED
    print("check passed")
    return EXIT_OK


def _cmd_lipschitz(args):
    cfg = load_config(args.config)
    est = lipschitz_report(build_denoiser(cfg.denoiser, cfg.shape))
    print(
        f"denoiser={cfg.denoiser['name']} value={repr(est.value)} "
        f"method={est.method} probes={est.probes} converged={est.converged}"
    )
    return EXIT_OK


def _cmd_make_data(args):
    written = make_data(args.out, seed=args.seed if args.seed is not None else 1234)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def build_parser():
    parser = _Parser(
        prog="redlab",
        description="Denoiser-regularized inverse problem experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--tau", type=float)
    p_run.add_argument("--solver", choices=SOLVER_NAMES)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--out", default="runs")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="run tau x solver x test-image grid and aggregate"
    )
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--tau", help="comma-separated tau list")
    p_sweep.add_argument("--solver", help="comma-separated solver list")
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--out", default="runs")
    p_sweep.add_argument("--parallel", action="store_true")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_plot = sub.add_parser("plot", help="plot aggregate residual curves as SVG")
    p_plot.add_argument("aggregates", nargs="+")
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(func=_cmd_plot)

    p_grad = sub.add_parser(
        "grad-check", help="compare the loss gradient against finite differences"
    )
    p_grad.add_argument("--config", required=True)
    p_grad.add_argument("--seed", type=int)
    p_grad.set_defaults(func=_cmd_grad_check)

    p_lip = sub.add_parser(
        "lipschitz", help="estimate the configured denoiser's Lipschitz constant"
    )
    p_lip.add_argument("--config", required=True)
    p_lip.set_defaults(func=_cmd_lipschitz)

    p_data = sub.add_parser(
        "make-data", help="write synthetic images, default kernel, preset configs"
    )
    p_data.add_argument("--out", required=True)
    p_data.add_argument("--seed", type=int)
    p_data.set_defaults(func=_cmd_make_data)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
