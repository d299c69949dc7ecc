"""What the benchmark in `perfbench/` needs of the package, checked at a
small iteration cap: each workload's pass runs through the public entry
points with the benchmark's always-on run hooks installed, every run
directory it writes passes the benchmark's own output check, and the hooks
see each run once, with the counters its sidecar records.  The traced
mode's layer spans find every method they wrap, and leave none wrapped.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from tracing import COUNTER_FIELDS, Tracer  # noqa: E402
from workloads import WORKLOAD_NAMES, build_workload  # noqa: E402

from redlab.operators import DeblurOperator  # noqa: E402
from redlab.traceio import read_sidecar  # noqa: E402

# The attributes the traced mode wraps: 3 run hooks and 36 layer spans.  A
# span whose class is gone raises in install_layers; one whose method is
# gone is skipped there, and shows here as a smaller count.
TRACED_PATCHES = 39


def _run_dirs(root):
    for folder, _dirs, files in os.walk(root):
        if "sidecar.json" in files:
            yield folder


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_a_workload_pass_runs_clean_under_the_run_hooks(tmp_path, name):
    workload = build_workload(name, seed=0, t=3)
    tracer = Tracer()
    tracer.install_run_hooks()
    try:
        problems = workload.run_pass(str(tmp_path))
    finally:
        tracer.uninstall()
    assert problems == []
    run_dirs = sorted(_run_dirs(str(tmp_path)))
    assert len(run_dirs) == (2 if name == "cs_presets" else 72)
    for run_dir in run_dirs:
        assert workload.check(run_dir)[0] == [], run_dir
    records = {record.out_dir: record for record in tracer.runs}
    assert len(tracer.runs) == len(records)
    assert sorted(records) == run_dirs
    for run_dir, record in records.items():
        sidecar = read_sidecar(os.path.join(run_dir, "sidecar.json"))
        assert list(record.counters) == list(COUNTER_FIELDS)
        assert record.counters == sidecar["counters"], run_dir
        assert record.iters == sidecar["iterations"], run_dir


def test_the_traced_mode_wraps_the_layers_and_restores_them():
    original = vars(DeblurOperator)["gram"]
    tracer = Tracer()
    tracer.install_run_hooks()
    try:
        tracer.install_layers()
        patched = list(tracer._undo)
        assert vars(DeblurOperator)["gram"] is not original
    finally:
        tracer.uninstall()
    assert len(patched) == TRACED_PATCHES
    assert vars(DeblurOperator)["gram"] is original
    for owner, attr, before in patched:
        assert vars(owner)[attr] is before, (owner, attr)
