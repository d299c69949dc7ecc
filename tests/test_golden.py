"""Every shipped artifact keeps its bytes: sha256 against tests/golden_digests.json.

The artifacts are regenerated in a child process at one BLAS thread (numpy
reads OPENBLAS_NUM_THREADS when it loads).  In an environment other than
the recorded one the bits may legitimately differ, so the test skips and
names the field that differs.  A change that alters artifact bits on
purpose regenerates the file with `python tests/golden.py --write` and says
why.
"""

import json
import os
import subprocess
import sys

import pytest

import redlab
from golden import digest_changes, run_changes

HERE = os.path.dirname(os.path.abspath(__file__))


@pytest.mark.slow
def test_golden_artifacts_keep_their_bytes(tmp_path):
    with open(os.path.join(HERE, "golden_digests.json")) as fh:
        want = json.load(fh)
    src = os.path.dirname(os.path.dirname(os.path.abspath(redlab.__file__)))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "golden.py"), str(tmp_path)],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    )
    got = json.loads(proc.stdout)
    for field, recorded in want["environment"].items():
        here = got["environment"].get(field)
        if here != recorded:
            pytest.skip(f"environment differs in {field}: recorded {recorded!r}, here {here!r}")
    differ = sorted(
        path
        for path in want["digests"].keys() | got["digests"].keys()
        if want["digests"].get(path) != got["digests"].get(path)
    )
    assert not differ, f"{len(differ)} artifacts differ from golden_digests.json: {differ}"


def test_digest_changes_names_each_differing_path():
    old = {"a": "1", "b": "2", "c": "3"}
    new = {"a": "1", "b": "9", "d": "4"}
    assert digest_changes(old, new) == ["changed b", "removed c", "added d"]
    assert digest_changes(old, old) == []


def test_run_changes_names_each_changed_run():
    old = {
        "a": {"termination": "max_iters", "iterations": 10},
        "b": {"termination": "step_floor", "iterations": 456},
        "c": {"termination": "diverged", "iterations": 3},
    }
    new = {**old, "b": {"termination": "step_floor", "iterations": 461}}
    del new["c"]
    assert run_changes(old, new) == ["run b: step_floor after 456 -> step_floor after 461"]
    assert run_changes(old, old) == []
