"""Benchmark of redlab's public experiment entry points.

    python3 perfbench/run.py --workload cs_presets --seed 0 --seconds 40 --trace 0

Imports redlab from `src/` next to this directory, builds the workload's
configs from the seed, times passes of the workload for about `--seconds`,
checks every written run, and prints one JSON object as the last line of
standard output. `--trace 0` reports the end-to-end metrics; `--trace 1`
alternates untraced and traced passes and reports the per-layer metrics.
perfbench/README.md documents every metric and workload.
"""

import argparse
import ctypes
import glob
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
# Set-up rounds per run, at least this many and this long; each round builds
# every distinct config of the workload once.
SETUP_ROUNDS = 5
SETUP_SECONDS = 2.0
BLAS_THREADS = 1
# Runs beyond the reported tail time, per the tail rule in README.md.
TAIL_BEYOND = 10


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0, help="0 reproduces the shipped presets")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pin_blas_threads():
    """Run OpenBLAS on one thread; must happen before numpy loads.

    On a shared machine a multi-threaded GEMV waits for its slowest core:
    on the 2-core box of README.md two threads made `cs_presets` about 1.5x
    faster but tripled its run-to-run spread.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)


def _blas_threads_in_effect(numpy):
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                return int(getattr(lib, fn)())
    return None


def _read_first(path, prefix=""):
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip()
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        level = _read_first(os.path.join(index, "level"))
        kind = _read_first(os.path.join(index, "type"))
        if level and kind in ("Unified", "Data"):
            caches[f"L{level}{'d' if kind == 'Data' else ''}"] = _read_first(
                os.path.join(index, "size")
            )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _read_first("/proc/cpuinfo", "model name") or platform.processor(),
        "caches_per_core": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_in_effect": _blas_threads_in_effect(numpy),
    }


def tail(walls_by_kind):
    """Per-run wall time with TAIL_BEYOND runs beyond it.

    With too few runs for that percentile, the median run time of the
    slowest kind of run instead.
    """
    walls = sorted(w for ws in walls_by_kind.values() for w in ws)
    if len(walls) > TAIL_BEYOND:
        return walls[-1 - TAIL_BEYOND]
    return max(statistics.median(ws) for ws in walls_by_kind.values())


class Measurement:
    """Passes of one workload, with every run's artifacts checked."""

    def __init__(self, workload, tracer, out_root):
        self.workload = workload
        self.tracer = tracer
        self.out_root = out_root
        self.attempted = 0
        self.failed = 0
        self.digests = {}
        self.passes = []
        self.builds = defaultdict(list)

    def _check(self, pass_dir, runs, problems):
        for problem in problems:
            print(f"FAIL {problem}", file=sys.stderr)
        self.attempted += len(runs) + len(problems)
        self.failed += len(problems)
        for rec in runs:
            key = os.path.relpath(rec.out_dir, pass_dir)
            bad, digests = self.workload.check(rec.out_dir)
            first = self.digests.setdefault(key, digests)
            if digests != first:
                bad.append("artifacts differ from an earlier repeat of this seed")
            if bad:
                self.failed += 1
                print(f"FAIL {key}: {'; '.join(bad)}", file=sys.stderr)
        shutil.rmtree(pass_dir, ignore_errors=True)

    def setup(self):
        """Timed set-up rounds, then the byte-identity reference, if any.

        Each round builds every distinct config once; the builds inside the
        untraced runs later add to the same per-kind samples.
        """
        start = time.perf_counter()
        for n in itertools.count(1):
            for kind, seconds in self.workload.setup_round().items():
                self.builds[kind].append(seconds)
            if n >= SETUP_ROUNDS and time.perf_counter() - start >= SETUP_SECONDS:
                break
        if self.workload.reference_sweep is not None:
            pass_dir = os.path.join(self.out_root, "reference")
            before = len(self.tracer.runs)
            problems = self.workload.run_reference(pass_dir)
            self._check(pass_dir, self.tracer.runs[before:], problems)

    def run_pass(self, traced):
        pass_dir = os.path.join(self.out_root, f"pass-{len(self.passes)}")
        before = len(self.tracer.runs)
        if traced:
            self.tracer.install_layers()
        t0 = time.perf_counter()
        try:
            problems = self.workload.run_pass(pass_dir)
        finally:
            wall = time.perf_counter() - t0
            if traced:
                self.tracer.uninstall_layers()
        runs = self.tracer.runs[before:]
        kinds = [os.path.relpath(r.out_dir, pass_dir).split(os.sep)[0] for r in runs]
        if not traced:
            for kind, rec in zip(kinds, runs):
                self.builds[kind].append(rec.build_s)
        self._check(pass_dir, runs, problems)
        self.passes.append({"traced": traced, "wall": wall, "runs": runs, "kinds": kinds})

    def loop(self, seconds, traced):
        """Untraced passes, or untraced/traced pairs, until `seconds` is used.

        A pass (or pair) starts only if the last one would still fit.
        """
        step = 2 if traced else 1
        start = time.perf_counter()
        while True:
            self.run_pass(traced and len(self.passes) % 2 == 1)
            n = len(self.passes)
            if n % step or n < self.workload.min_passes:
                continue
            last = sum(p["wall"] for p in self.passes[-step:])
            if time.perf_counter() - start + last > seconds:
                return


def end_to_end(m):
    """End-to-end metrics of the untraced passes.

    A shared machine has slow spells that can cover part of a pass. So each
    kind of run (a preset, or one sub-sweep) contributes the median of its
    runs over all passes, weighted by how often a pass runs it, and only the
    time a pass spends outside its runs is taken per pass.
    """
    passes = [p for p in m.passes if not p["traced"]]
    by_kind = defaultdict(list)
    for p in passes:
        for kind, rec in zip(p["kinds"], p["runs"]):
            by_kind[kind].append(rec)
    per_pass = {kind: len(recs) / len(passes) for kind, recs in by_kind.items()}

    def weighted(attr):
        return sum(
            n * statistics.median(getattr(r, attr) for r in by_kind[kind])
            for kind, n in per_pass.items()
        )

    runs = sum(per_pass.values())
    outside = statistics.median(p["wall"] - sum(r.wall_s for r in p["runs"]) for p in passes)
    walls = {kind: [r.wall_s for r in recs] for kind, recs in by_kind.items()}
    return {
        "setup_s": (
            sum(n * statistics.median(m.builds[kind]) for kind, n in per_pass.items()) / runs,
            "s",
        ),
        "run_s": (weighted("wall_s") / runs, "s"),
        "iters_per_s": (weighted("iters") / weighted("solve_s"), "1/s"),
        "solves_per_s": (runs / (weighted("wall_s") + outside), "1/s"),
        "solve_tail_s": (tail(walls), "s"),
        "psnr_db": (weighted("psnr_db") / runs, "dB"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, sum(len(w) for w in walls.values())


def main(argv=None):
    args = parse_args(argv)
    pin_blas_threads()
    if not os.path.isfile(os.path.join(SRC, "redlab", "__init__.py")):
        print(f"perfbench: redlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from tracing import Tracer, layer_metrics
    from workloads import build_workload

    workload = build_workload(args.workload, args.seed)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    out_root = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(out_root, ignore_errors=True)
    tracer = Tracer()
    tracer.install_run_hooks()
    m = Measurement(workload, tracer, out_root)
    try:
        m.setup()
        m.loop(args.seconds, bool(args.trace))
    finally:
        tracer.uninstall()
        shutil.rmtree(out_root, ignore_errors=True)
        if os.path.isdir(OUT) and not os.listdir(OUT):
            os.rmdir(OUT)

    e2e, samples = end_to_end(m)
    if args.trace:
        untraced = [p["wall"] for p in m.passes if not p["traced"]]
        traced = [p["wall"] for p in m.passes if p["traced"]]
        base = statistics.median(untraced)
        overhead = 100.0 * (statistics.median(traced) - base) / base
        runs = [r for p in m.passes if p["traced"] for r in p["runs"]]
        metrics = layer_metrics(tracer.stats, runs, overhead)
    else:
        metrics = e2e
    failed_frac = m.failed / max(m.attempted, 1)
    print(
        f"report workload={args.workload} seed={args.seed} trace={args.trace} "
        f"passes={len(m.passes)} runs={samples} attempted={m.attempted} failed={m.failed}"
    )
    for name, (value, unit) in {**e2e, "failed_frac": (failed_frac, "ratio")}.items():
        print(f"  {name:<14} {value:.6g} {unit}")
    walls = defaultdict(list)
    for p in m.passes:
        for kind, rec in zip(p["kinds"], p["runs"]):
            walls[(kind, p["traced"])].append(rec.wall_s)
    for (kind, traced), ws in walls.items():
        print(f"  runs {kind}{' traced' if traced else ''}: " + " ".join(f"{w:.3f}" for w in ws))
    for kind, ws in m.builds.items():
        print(f"  builds {kind}: n={len(ws)} median={statistics.median(ws):.4f}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<44} {value:.6g} {unit}")
    result = {
        "correct": m.failed == 0 and m.attempted > 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
