"""Checks of the benchmark itself: `python -m pytest perfbench -q`.

Each workload runs one traced pass with a small iteration cap. The spans
that the layer map in README.md ties to a workload must fire on it, and the
traced call counts must equal the EvalCounters totals the solvers report.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

from redlab.config import from_dict, to_dict  # noqa: E402
from redlab.presets import experiment_preset  # noqa: E402
from run import Measurement, tail  # noqa: E402
from tracing import COUNTER_FIELDS, Tracer, layer_metrics  # noqa: E402
from workloads import build_workload  # noqa: E402

# Spans every workload loads: the path of one run through all layers.
COMMON_SPANS = (
    "experiments.run",
    "experiments.build",
    "experiments.certify",
    "operators.spectral",
    "operators.forward",
    "operators.adjoint",
    "operators.gram",
    "fidelity.gradient",
    "fidelity.hessian_vp",
    "denoisers.apply",
    "denoisers.residual_vjp",
    "denoisers.residual_jvp",
    "red.operator_g",
    "red.phi",
    "red.eval_state",
    "solvers.run_solver",
    "solvers.mred",
    "traceio.write_trace_csv",
    "traceio.write_sidecar",
    "pgmio.write_pgm",
)
EXTRA_SPANS = {
    "cs_presets": (),
    "monotone_sweep": ("traceio.write_aggregate_csv",),
}


def _traced_pass(name, tmp_path, t):
    tracer = Tracer()
    tracer.install_run_hooks()
    try:
        m = Measurement(build_workload(name, seed=1, t=t), tracer, str(tmp_path))
        m.run_pass(traced=True)
    finally:
        tracer.uninstall()
    return m, tracer


def _calls(stats, name, phase=None):
    return sum(st[0] for (ph, n), st in stats.items() if n == name and phase in (None, ph))


@pytest.mark.parametrize("name,t", [("cs_presets", 3), ("monotone_sweep", 2)])
def test_spans_fire_and_counts_match_eval_counters(name, tmp_path, t):
    m, tracer = _traced_pass(name, tmp_path, t)
    assert m.attempted > 0 and m.failed == 0
    runs = m.passes[0]["runs"]
    for span in COMMON_SPANS + EXTRA_SPANS[name]:
        assert _calls(tracer.stats, span) > 0, f"{span} never fired on {name}"

    # Per run, inside the tracer, and once more over the whole pass here.
    assert all(r.counter_mismatches == 0 for r in runs)
    totals = {f: sum(r.counters[f] for r in runs) for f in COUNTER_FIELDS}
    stats = tracer.stats
    assert totals["denoiser_applies"] == _calls(stats, "denoisers.apply", "solve")
    assert totals["denoiser_applies"] == _calls(stats, "red.operator_g", "solve")
    assert totals["vjp_evals"] == _calls(stats, "denoisers.residual_vjp", "solve")
    assert totals["grad_phi_evals"] == _calls(stats, "red.eval_state", "solve")
    grams = _calls(stats, "operators.gram", "solve")
    # gram() is realized as a forward and an adjoint at this version.
    assert totals["operator_forwards"] == _calls(stats, "operators.forward", "solve")
    assert totals["operator_adjoints"] == _calls(stats, "operators.adjoint", "solve")
    assert grams == totals["grad_phi_evals"]

    metrics = layer_metrics(stats, runs, overhead_pct=0.0)
    assert metrics["trace.counter_mismatches"][0] == 0
    if name == "cs_presets":
        # The dense 410x4096 sensing matrix is read on every call, and the
        # power iteration converges at once.
        assert metrics["operators.mbytes_per_call"][0] > 13.0
        assert metrics["operators.spectral.iters"][0] < 10
    else:
        # Half the runs deblur, where 200 power iterations do not converge.
        assert metrics["operators.spectral.iters"][0] > 100


def test_seed_zero_is_the_shipped_preset_and_other_seeds_move_only_data_seeds():
    for preset, cfg in build_workload("cs_presets", seed=0).presets:
        assert to_dict(cfg) == to_dict(from_dict(experiment_preset(preset)))
    moved = to_dict(dict(build_workload("cs_presets", seed=5).presets)["cs_expansive"])
    shipped = to_dict(from_dict(experiment_preset("cs_expansive")))
    assert moved["noise"]["seed"] == shipped["noise"]["seed"] + 5
    assert moved["image_seed"] == shipped["image_seed"] + 5
    assert moved["operator"]["seed"] == shipped["operator"]["seed"] + 5
    for key in ("noise", "image_seed", "operator"):
        moved.pop(key)
        shipped.pop(key)
    assert moved == shipped


def test_tail_leaves_ten_samples_beyond():
    assert tail({"a": list(range(36)), "b": list(range(36, 72))}) == 61
    assert tail({"fast": [1.0, 1.5], "slow": [3.0, 9.0, 4.0]}) == 4.0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cs_presets", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
