"""Spans around the calls into each redlab module, installed from outside it.

Public methods are wrapped at class level, so every instance and subclass
that inherits them is seen. Module functions are wrapped in the namespace
that calls them: `experiments` imports `spectral_norm_sq`,
`estimate_lipschitz`, `run_solver` and the writers by name, and `solvers`
calls `mred` through its own globals.

Spans are aggregated as they close instead of being stored, because a sweep
pass makes about a million of them. For each (phase, span name) the tracer
keeps: calls that are not nested in a span of the same name, their total
time, the self time of all spans (duration minus direct child spans), and a
per-span amount (bytes or iterations). The phase is set by the span of the
experiment step that encloses a call: build, solve, certify or write.
"""

import inspect
import os
import time
import weakref
from collections import defaultdict, namedtuple
from dataclasses import dataclass

from redlab import denoisers, experiments, fidelity, operators, red, solvers

PHASES = ("build", "solve", "certify", "write")
COUNTER_FIELDS = (
    "denoiser_applies",
    "vjp_evals",
    "operator_forwards",
    "operator_adjoints",
    "grad_phi_evals",
)


@dataclass
class RunRecord:
    """One completed `run_experiment` call, timed from the outside."""

    out_dir: str
    wall_s: float
    build_s: float
    solve_s: float
    iters: int
    red_steps: int
    backtracks: int
    counters: dict
    psnr_db: float
    counter_mismatches: int


def _array_bytes(obj, depth=1):
    """Bytes of the numpy arrays an operator holds, one object level down."""
    total = 0
    for value in vars(obj).values():
        if hasattr(value, "nbytes") and hasattr(value, "dtype"):
            total += value.nbytes
        elif depth > 0 and hasattr(value, "__dict__") and not inspect.isclass(value):
            total += _array_bytes(value, depth - 1)
    return total


class Tracer:
    """Run-level timing that is always on, plus per-layer spans on demand.

    `stats` and the per-run counter cross-check only gather while the layer
    spans are installed, so untraced passes leave them untouched.
    """

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        self.runs = []
        self.layers_on = False
        self._stack = []
        self._depth = defaultdict(int)
        self._phase = "other"
        self._solve_calls = defaultdict(int)
        self._build_s = None
        self._solve = None
        self._op_bytes = weakref.WeakKeyDictionary()
        self._undo = []
        self._layer_mark = 0

    # -- span machinery ---------------------------------------------------

    def _wrap(self, name, fn, phase=None, after=None):
        stats, stack, depth = self.stats, self._stack, self._depth
        perf = time.perf_counter

        def span(*args, **kwargs):
            outer = depth[name] == 0
            depth[name] += 1
            saved = self._phase
            if phase is not None:
                self._phase = phase
            here = self._phase
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                depth[name] -= 1
                self._phase = saved
            st = None
            if self.layers_on:
                st = stats[(here, name)]
                st[2] += dur - child
                if outer:
                    st[0] += 1
                    st[1] += dur
                    if here == "solve":
                        self._solve_calls[name] += 1
            if after is not None:
                after(st, args, kwargs, result, dur)
            return result

        return span

    def _patch(self, owner, attr, name, phase=None, after=None):
        if attr not in vars(owner):
            return
        original = vars(owner)[attr]
        setattr(owner, attr, self._wrap(name, original, phase, after))
        self._undo.append((owner, attr, original))

    def uninstall(self, keep=0):
        """Restore patched attributes, newest first, down to the first `keep`."""
        while len(self._undo) > keep:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self.layers_on = False

    def uninstall_layers(self):
        self.uninstall(keep=self._layer_mark)

    # -- run-level hooks, always installed --------------------------------

    def install_run_hooks(self):
        self._patch(experiments, "build_experiment", "experiments.build", "build", self._after_build)
        self._patch(experiments, "run_solver", "solvers.run_solver", "solve", self._after_solve)
        self._patch(experiments, "run_experiment", "experiments.run", None, self._after_run)

    def _after_build(self, _st, _args, _kwargs, _result, dur):
        self._build_s = dur

    def _after_solve(self, _st, _args, _kwargs, result, dur):
        steps = result.trace[1:]
        counters = {f: getattr(result.counters, f) for f in COUNTER_FIELDS}
        mismatches = 0
        if self.layers_on:
            traced = self._traced_counters()
            mismatches = sum(traced[f] != counters[f] for f in COUNTER_FIELDS)
            if traced["denoiser_applies"] != self._solve_calls["red.operator_g"]:
                mismatches += 1
        self._solve_calls.clear()
        self._solve = dict(
            solve_s=dur,
            iters=len(steps),
            red_steps=sum(rec.mode == "red_step" for rec in steps),
            backtracks=sum(rec.backtracks for rec in steps),
            counters=counters,
            counter_mismatches=mismatches,
        )

    def _traced_counters(self):
        """EvalCounters totals as the spans of one solve counted them.

        A Hessian product is one forward plus one adjoint in EvalCounters,
        so a `gram` call counts once for each, and the forward/adjoint calls
        made inside it are not counted again.
        """
        c = self._solve_calls
        return {
            "denoiser_applies": c["denoisers.apply"],
            "vjp_evals": c["denoisers.residual_vjp"],
            "operator_forwards": c["operators.forward.direct"] + c["operators.gram"],
            "operator_adjoints": c["operators.adjoint.direct"] + c["operators.gram"],
            "grad_phi_evals": c["red.eval_state"],
        }

    def _after_run(self, _st, args, kwargs, result, dur):
        out_dir = args[1] if len(args) > 1 else kwargs.get("out_dir")
        solve, self._solve = self._solve, None
        self.runs.append(
            RunRecord(
                out_dir=out_dir,
                wall_s=dur,
                build_s=self._build_s,
                psnr_db=result[2]["final_psnr_db"],
                **solve,
            )
        )

    # -- per-layer spans, installed for traced passes ---------------------

    def install_layers(self):
        self._layer_mark = len(self._undo)
        ex = experiments
        self._patch(ex, "estimate_lipschitz", "experiments.certify", "certify")
        self._patch(ex, "spectral_norm_sq", "operators.spectral", None, self._add_iterations)
        for fn in ("write_trace_csv", "write_sidecar", "write_aggregate_csv"):
            self._patch(ex, fn, f"traceio.{fn}", "write", self._add_file_size)
        self._patch(ex, "write_pgm", "pgmio.write_pgm", "write", self._add_file_size)
        for fn in ("red_sd_fixed", "red_bls", "mred"):
            self._patch(solvers, fn, f"solvers.{fn}")
        for attr in ("operator_g", "phi", "eval_state", "phi_and_grad", "grad_phi", "regularizer_value"):
            self._patch(red.REDProblem, attr, f"red.{attr}")
        for attr in ("value", "gradient", "hessian_vp"):
            self._patch(fidelity.LeastSquaresFidelity, attr, f"fidelity.{attr}")
        for cls in _subclasses(operators, operators.LinearOperator):
            self._patch(cls, "gram", "operators.gram")
            for attr in ("forward", "adjoint"):
                self._patch(cls, attr, f"operators.{attr}", None, self._add_op_bytes(attr))
        for cls in _subclasses(denoisers, denoisers.Denoiser):
            for attr in ("apply", "residual", "residual_vjp", "residual_jvp"):
                self._patch(cls, attr, f"denoisers.{attr}")
        self.layers_on = True

    def _add_iterations(self, st, _args, _kwargs, result, _dur):
        st[3] += result.iterations

    def _add_file_size(self, st, args, kwargs, _result, _dur):
        st[3] += os.path.getsize(args[0] if args else kwargs["path"])

    def _add_op_bytes(self, attr):
        direct = f"operators.{attr}.direct"

        def after(st, args, _kwargs, result, _dur):
            op = args[0]
            held = self._op_bytes.get(op)
            if held is None:
                held = self._op_bytes[op] = _array_bytes(op)
            st[3] += held + getattr(args[1], "nbytes", 0) + result.nbytes
            if self._phase == "solve" and self._depth["operators.gram"] == 0:
                self._solve_calls[direct] += 1

        return after


def _subclasses(module, base):
    return [
        obj
        for obj in vars(module).values()
        if inspect.isclass(obj) and issubclass(obj, base) and obj.__module__ == module.__name__
    ]


Totals = namedtuple("Totals", "calls total_s self_s amount")


def layer_metrics(stats, runs, overhead_pct):
    """Per-layer metrics from the traced passes' span stats and run records."""
    n_runs = max(len(runs), 1)
    iters = max(sum(r.iters for r in runs), 1)

    def get(name, phase="solve"):
        phases = PHASES + ("other",) if phase is None else (phase,)
        rows = [stats[(ph, name)] for ph in phases if (ph, name) in stats]
        return Totals(*(sum(col) for col in zip(*rows))) if rows else Totals(0, 0.0, 0.0, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    def layer_self(prefix):
        return sum(st[2] for (ph, name), st in stats.items() if ph == "solve" and name.startswith(prefix))

    m = {}
    fwd = get("operators.forward")
    adj = get("operators.adjoint")
    m["operators.forward.calls_per_iter"] = (fwd.calls / iters, "1/iter")
    m["operators.forward.us_per_call"] = (1e6 * ratio(fwd.total_s, fwd.calls), "us")
    m["operators.adjoint.calls_per_iter"] = (adj.calls / iters, "1/iter")
    m["operators.adjoint.us_per_call"] = (1e6 * ratio(adj.total_s, adj.calls), "us")
    m["operators.gram.calls_per_iter"] = (get("operators.gram").calls / iters, "1/iter")
    m["operators.mbytes_per_call"] = (ratio(fwd.amount + adj.amount, fwd.calls + adj.calls) / 1e6, "MB")
    spec = get("operators.spectral", phase="build")
    m["operators.spectral.iters"] = (ratio(spec.amount, spec.calls), "count")
    m["operators.spectral.s"] = (ratio(spec.total_s, spec.calls), "s")

    grad = get("fidelity.gradient")
    hvp = get("fidelity.hessian_vp")
    m["fidelity.gradient.us_per_call"] = (1e6 * ratio(grad.self_s, grad.calls), "us")
    m["fidelity.hessian_vp.us_per_call"] = (1e6 * ratio(hvp.self_s, hvp.calls), "us")

    app = get("denoisers.apply")
    vjp = get("denoisers.residual_vjp")
    jvp = get("denoisers.residual_jvp", phase=None)
    m["denoisers.apply.calls_per_iter"] = (app.calls / iters, "1/iter")
    m["denoisers.apply.us_per_call"] = (1e6 * ratio(app.total_s, app.calls), "us")
    m["denoisers.residual_vjp.calls_per_iter"] = (vjp.calls / iters, "1/iter")
    m["denoisers.residual_vjp.us_per_call"] = (1e6 * ratio(vjp.total_s, vjp.calls), "us")
    m["denoisers.residual_jvp.calls"] = (jvp.calls / n_runs, "count/run")
    m["denoisers.residual_jvp.us_per_call"] = (1e6 * ratio(jvp.total_s, jvp.calls), "us")

    m["red.operator_g.calls_per_iter"] = (get("red.operator_g").calls / iters, "1/iter")
    m["red.eval_state.calls_per_iter"] = (get("red.eval_state").calls / iters, "1/iter")
    m["red.self_us_per_iter"] = (1e6 * layer_self("red.") / iters, "us")
    for f in COUNTER_FIELDS:
        m[f"red.counters.{f}_per_iter"] = (sum(r.counters[f] for r in runs) / iters, "1/iter")

    m["solvers.iters"] = (iters / n_runs, "count")
    m["solvers.trial_accept_ratio"] = (sum(r.red_steps for r in runs) / iters, "ratio")
    m["solvers.backtracks_per_iter"] = (sum(r.backtracks for r in runs) / iters, "1/iter")
    m["solvers.self_us_per_iter"] = (1e6 * layer_self("solvers.") / iters, "us")

    trace_csv, sidecar, aggregate, pgm = (
        get(name, phase="write")
        for name in (
            "traceio.write_trace_csv",
            "traceio.write_sidecar",
            "traceio.write_aggregate_csv",
            "pgmio.write_pgm",
        )
    )
    m["experiments.build_s"] = (sum(r.build_s for r in runs) / n_runs, "s")
    m["experiments.solve_s"] = (sum(r.solve_s for r in runs) / n_runs, "s")
    m["experiments.certify_s"] = (get("experiments.certify", phase="certify").total_s / n_runs, "s")
    m["experiments.write_s"] = ((trace_csv.total_s + sidecar.total_s + pgm.total_s) / n_runs, "s")
    traceio = (trace_csv, sidecar, aggregate)
    m["traceio.write_s"] = (sum(t.total_s for t in traceio) / n_runs, "s")
    m["traceio.kbytes"] = (sum(t.amount for t in traceio) / n_runs / 1e3, "kB")
    m["pgmio.write_s"] = (pgm.total_s / n_runs, "s")
    m["pgmio.kbytes"] = (pgm.amount / n_runs / 1e3, "kB")

    m["trace.overhead_pct"] = (overhead_pct, "%")
    m["trace.counter_mismatches"] = (sum(r.counter_mismatches for r in runs), "count")
    return m
