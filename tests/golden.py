"""Golden artifacts: regenerate them and hash them.

The artifacts are the trace, sidecar and reconstruction of each shipped
preset and of two runs that no preset reaches (the `dct_threshold`
denoiser, and a 96x192 deblur, whose h + w > 256 takes the FFT path),
every file `make_data` writes, and the whole output of one small deblur
sweep.  Their bits depend on the numpy and OpenBLAS builds, on the
CPU kernel OpenBLAS picks, and on the BLAS thread count, so the
digests are taken at one thread and stored with the environment they were
taken in.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/golden.py OUT_DIR
        writes the artifacts under OUT_DIR and prints
        {"environment": ..., "digests": {relative path: sha256},
         "runs": {run directory: {"termination": ..., "iterations": ...}}}
        as JSON, the runs read from their sidecars
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/golden.py --write
        stores that JSON, from a temporary directory, in golden_digests.json
        next to this file, and prints each relative path whose digest
        changed, was added or was removed against the file it replaces,
        then each run whose termination or iteration count changed; a
        change that alters artifact bits does this and says why
"""

import ctypes
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from redlab.config import from_dict
from redlab.experiments import make_data, run_experiment, run_sweep
from redlab.operators import _blas_threads, _openblas_function
from redlab.presets import PRESET_NAMES, experiment_preset
from redlab.traceio import read_sidecar

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digests.json")


def _openblas(what):
    """`openblas_get_<what>` of the OpenBLAS bundled with numpy, or None."""
    fn = _openblas_function(what, ctypes.c_char_p)
    return None if fn is None else fn().decode("ascii").strip()


def environment():
    """What the artifact bits depend on besides the code."""
    return {
        "numpy": np.__version__,
        "openblas_config": _openblas("config"),
        "openblas_corename": _openblas("corename"),
        "blas_threads": _blas_threads(),
    }


def _extra_runs():
    """Configs for the code paths no preset reaches, by directory name."""
    dct = experiment_preset("deblur_nonexpansive")
    dct["denoiser"] = {"name": "dct_threshold"}
    fft = experiment_preset("deblur_nonexpansive")
    fft["shape"] = [96, 192]
    return {"dct_threshold": dct, "fft_path": fft}


def generate(out):
    """Write every golden artifact under `out`; returns {relative path: sha256}
    and {run directory: its sidecar's termination and iterations}."""
    for name in PRESET_NAMES:
        run_experiment(from_dict(experiment_preset(name)), os.path.join(out, "presets", name))
    for name, cfg in _extra_runs().items():
        run_experiment(from_dict(cfg), os.path.join(out, "paths", name))
    make_data(os.path.join(out, "make-data"))
    sweep = from_dict(experiment_preset("deblur_nonexpansive"))
    run_sweep(sweep, [0.1], ["mred"], os.path.join(out, "sweep"))
    digests, runs = {}, {}
    for root, _dirs, files in os.walk(out):
        for fname in files:
            path = os.path.join(root, fname)
            with open(path, "rb") as fh:
                rel = os.path.relpath(path, out).replace(os.sep, "/")
                digests[rel] = hashlib.sha256(fh.read()).hexdigest()
            if fname == "sidecar.json":
                sidecar = read_sidecar(path)
                runs[os.path.dirname(rel)] = {
                    key: sidecar[key] for key in ("termination", "iterations")
                }
    return dict(sorted(digests.items())), dict(sorted(runs.items()))


def digest_changes(old, new):
    """`changed`, `added` or `removed`, and the path, for each relative path
    whose digest differs between the {path: sha256} maps `old` and `new`."""
    lines = []
    for path in sorted(old.keys() | new.keys()):
        if path not in old:
            lines.append(f"added {path}")
        elif path not in new:
            lines.append(f"removed {path}")
        elif old[path] != new[path]:
            lines.append(f"changed {path}")
    return lines


def run_changes(old, new):
    """The termination and iteration count before and after, for each run
    directory in both {run directory: {"termination", "iterations"}} maps
    `old` and `new` whose record differs (a run in one map only shows in
    `digest_changes` as its sidecar's path)."""
    return [
        f"run {path}: {old[path]['termination']} after {old[path]['iterations']}"
        f" -> {new[path]['termination']} after {new[path]['iterations']}"
        for path in sorted(old.keys() & new.keys())
        if old[path] != new[path]
    ]


def record(out):
    """The JSON record of the artifacts written under `out`."""
    digests, runs = generate(out)
    return {"environment": environment(), "digests": digests, "runs": runs}


def main(argv):
    if len(argv) != 1:
        raise SystemExit(__doc__)
    if argv[0] == "--write":
        old = {"digests": {}, "runs": {}}
        if os.path.isfile(DIGESTS):
            with open(DIGESTS) as fh:
                old = json.load(fh)
        with tempfile.TemporaryDirectory() as tmp:
            new = record(tmp)
        with open(DIGESTS, "w") as fh:
            json.dump(new, fh, indent=2)
            fh.write("\n")
        for line in digest_changes(old["digests"], new["digests"]):
            print(line)
        for line in run_changes(old["runs"], new["runs"]):
            print(line)
        print(f"wrote {len(new['digests'])} digests to {DIGESTS}")
    else:
        print(json.dumps(record(argv[0])))


if __name__ == "__main__":
    main(sys.argv[1:])
