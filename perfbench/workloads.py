"""The benchmark's workloads: seeded configs, one measured pass, output checks.

Every workload is driven through the public entry points
`redlab.experiments.run_experiment` and `redlab.experiments.run_sweep`. The
program only ever receives the configs built here.
"""

import copy
import hashlib
import os
import time
from dataclasses import dataclass, field

from redlab import experiments
from redlab.config import from_dict, to_dict
from redlab.presets import SUITE_DENOISERS, experiment_preset
from redlab.traceio import read_sidecar, read_trace_csv

# Iteration cap of the sweep runs. Criterion 5 uses t=1000, which takes
# minutes per pass; at 50 one pass of all 72 runs fits one measured run and
# per-run set-up, certification and writing remain a large share of it.
SWEEP_T = 50
SWEEP_TAUS = (1.0, 0.1, 0.01)
# Criterion 5's bound on a relative rise of phi between recorded iterates.
MONOTONE_RTOL = 1e-14
ARTIFACTS = ("trace.csv", "sidecar.json", "recon.pgm")
MAX_SEED = 2**32
WORKLOAD_NAMES = ("cs_presets", "monotone_sweep")


def seeded(raw, seed):
    """Parse a raw config with every data seed offset by `seed`.

    Seed 0 keeps the shipped values; any other seed moves the noise draw,
    the synthetic images and the CS sensing matrix together.
    """
    if not 0 <= seed < MAX_SEED:
        raise ValueError(f"seed must lie in [0, {MAX_SEED})")
    d = to_dict(from_dict(copy.deepcopy(raw)))
    d["noise"]["seed"] += seed
    d["image_seed"] += seed
    if d["problem"] == "cs":
        d["operator"]["seed"] += seed
    return from_dict(d)


@dataclass
class Workload:
    """One set of inputs. A pass runs every preset, then the sweep grid, once."""

    name: str
    presets: list = field(default_factory=list)  # [(label, config)]
    sweeps: list = field(default_factory=list)  # [(label, config)]
    terminations: frozenset = frozenset({"max_iters"})
    # Passes always made, so each run's artifacts are repeated at least once
    # unless a set-up reference covers them.
    min_passes: int = 1
    # Sweep label repeated once during set-up as the byte-identity reference.
    reference_sweep: str = None

    def setup_round(self):
        """`build_experiment` time of each config, keyed by its label."""
        times = {}
        for label, cfg in self.presets + self.sweeps:
            t0 = time.perf_counter()
            experiments.build_experiment(cfg)
            times[label] = time.perf_counter() - t0
        return times

    def check(self, run_dir):
        return check_run(run_dir, self.terminations)

    def run_pass(self, out_dir):
        """Run every preset and the sweep grid of the workload into `out_dir`.

        Returns a list of problems: preset runs that raised and sweep
        failures or missing runs. Per-run outputs are checked afterwards
        from the written artifacts.
        """
        problems = []
        for label, cfg in self.presets:
            try:
                experiments.run_experiment(cfg, os.path.join(out_dir, label))
            except Exception as exc:  # counted as a failed run, pass goes on
                problems.append(f"{label}: {type(exc).__name__}: {exc}")
        return problems + self._run_sweeps(out_dir, self.sweeps)

    def run_reference(self, out_dir):
        """Run the reference sub-sweep once; returns its problems."""
        return self._run_sweeps(
            out_dir, [s for s in self.sweeps if s[0] == self.reference_sweep]
        )

    def _run_sweeps(self, out_dir, sweeps):
        # One run_sweep call per (tau, sub-sweep), interleaved, so the runs
        # of each sub-sweep are spread over the whole pass and a slow spell
        # of the machine does not fall on one sub-sweep alone.
        problems = []
        for tau in SWEEP_TAUS:
            for label, cfg in sweeps:
                out = experiments.run_sweep(cfg, [tau], ["mred"], os.path.join(out_dir, label))
                for failure in out["failures"]:
                    problems.append(f"{label}: sweep failure {failure}")
                if len(out["runs"]) + len(out["failures"]) != 6:
                    problems.append(f"{label} tau={tau}: {len(out['runs'])} runs, expected 6")
        return problems


def build_workload(name, seed, t=None):
    """The named workload at `seed`; `t` caps solver iterations (tests only)."""

    def cfg_of(raw):
        if t is not None:
            raw = {**raw, "solver": {**raw.get("solver", {}), "t": t}}
        return seeded(raw, seed)

    if name == "cs_presets":
        return Workload(
            name,
            presets=[
                (p, cfg_of(experiment_preset(p)))
                for p in ("cs_nonexpansive", "cs_expansive")
            ],
            min_passes=2,
        )
    if name == "monotone_sweep":
        sweeps = []
        for problem, base in (("deblur", "deblur_nonexpansive"), ("cs", "cs_nonexpansive")):
            for kind, spec in SUITE_DENOISERS[problem].items():
                raw = experiment_preset(base)
                raw["denoiser"] = dict(spec)
                raw["solver"] = {"name": "mred", "t": SWEEP_T}
                sweeps.append((f"{problem}_{kind}", cfg_of(raw)))
        # mred never diverges; a deblur run may stop at the step floor once
        # it reaches roundoff, which is its documented exit.
        return Workload(
            name,
            sweeps=sweeps,
            terminations=frozenset({"max_iters", "step_floor", "converged_tol"}),
            reference_sweep="deblur_expansive",
        )
    raise ValueError(f"unknown workload {name!r}; valid: {WORKLOAD_NAMES}")


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_run(run_dir, terminations):
    """Check one written run directory.

    Returns (problems, digests): a list of failed checks and the sha256 of
    each artifact, for comparison across repeats of the same seed.
    """
    problems = []
    digests = {}
    for name in ARTIFACTS:
        path = os.path.join(run_dir, name)
        if not os.path.isfile(path):
            return [f"{name} missing"], digests
        digests[name] = _sha256(path)
    sidecar = read_sidecar(os.path.join(run_dir, "sidecar.json"))
    rows = read_trace_csv(os.path.join(run_dir, "trace.csv"))
    if sidecar["termination"] not in terminations:
        problems.append(
            f"termination {sidecar['termination']!r}, expected one of {sorted(terminations)}"
        )
    if sidecar["iterations"] != len(rows) - 1:
        problems.append("sidecar iteration count disagrees with trace.csv")
    if sidecar["solver"] == "mred":
        for prev, row in zip(rows, rows[1:]):
            scale = prev["phi"] if prev["phi"] > 0.0 else 1.0
            if (row["phi"] - prev["phi"]) / scale > MONOTONE_RTOL:
                problems.append(f"phi rose at k={row['k']}: {prev['phi']!r} -> {row['phi']!r}")
                break
    return problems, digests
