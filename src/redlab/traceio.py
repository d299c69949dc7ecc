"""Trace CSV files, JSON sidecars, and sweep aggregates.

Floats are written with repr, which round-trips exactly and makes files
byte-identical across reruns within one build.  A trace row mirrors one
iteration record; the sidecar stores everything needed to re-run the
experiment (resolved config, seeds, spectral constants, library version).
"""

import json
from dataclasses import fields

from .red import EvalCounters
from .solvers import SOLVER_NAMES

# The EvalCounters fields, cumulative, after the eight per-iterate columns.
COUNTER_COLUMNS = tuple(f.name for f in fields(EvalCounters))
TRACE_HEADER = "k,phi,g_norm,norm_resid,mode,backtracks,step_used,psnr_db," + ",".join(
    COUNTER_COLUMNS
)


def _fmt(v):
    return repr(float(v))


def write_trace_csv(path, result):
    lines = [TRACE_HEADER]
    for rec in result.trace:
        psnr = "" if rec.psnr_db is None else _fmt(rec.psnr_db)
        lines.append(
            ",".join(
                [
                    str(rec.k),
                    _fmt(rec.phi),
                    _fmt(rec.g_norm),
                    _fmt(rec.normalized_residual),
                    rec.mode,
                    str(rec.backtracks),
                    _fmt(rec.step_used),
                    psnr,
                    *(str(getattr(rec.counters, f)) for f in COUNTER_COLUMNS),
                ]
            )
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace_csv(path):
    """Rows as dicts with the same types the writer saw."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if not lines or lines[0] != TRACE_HEADER:
        raise ValueError(f"{path}: missing or unexpected trace header")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 8 + len(COUNTER_COLUMNS):
            raise ValueError(f"{path}: malformed row {ln!r}")
        rows.append(
            {
                "k": int(parts[0]),
                "phi": float(parts[1]),
                "g_norm": float(parts[2]),
                "norm_resid": float(parts[3]),
                "mode": parts[4],
                "backtracks": int(parts[5]),
                "step_used": float(parts[6]),
                "psnr_db": None if parts[7] == "" else float(parts[7]),
                **{f: int(v) for f, v in zip(COUNTER_COLUMNS, parts[8:])},
            }
        )
    return rows


def write_sidecar(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def read_sidecar(path):
    with open(path) as fh:
        return json.load(fh)


def write_aggregate_csv(path, tau, solver, rows, n_images):
    """Aggregate curve: per-iteration mean of normalized residuals."""
    lines = [
        f"# tau={_fmt(tau)} solver={solver} images={n_images}",
        "k,mean_norm_resid",
    ]
    for k, val in rows:
        lines.append(f"{k},{_fmt(val)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_aggregate_csv(path):
    """Returns ({'tau': float, 'solver': str, 'images': int}, [(k, value), ...])."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if len(lines) < 2 or not lines[0].startswith("# "):
        raise ValueError(f"{path}: missing aggregate metadata line")
    meta = {}
    for tok in lines[0][2:].split():
        if "=" not in tok:
            raise ValueError(f"{path}: malformed metadata token {tok!r}")
        key, val = tok.split("=", 1)
        meta[key] = val
    try:
        meta = {
            "tau": float(meta["tau"]),
            "solver": meta["solver"],
            "images": int(meta["images"]),
        }
    except (KeyError, ValueError):
        raise ValueError(f"{path}: incomplete aggregate metadata") from None
    # run_sweep writes no other name, and a plot takes the name as written.
    if meta["solver"] not in SOLVER_NAMES:
        raise ValueError(f"{path}: unknown solver {meta['solver']!r}; valid: {SOLVER_NAMES}")
    if lines[1] != "k,mean_norm_resid":
        raise ValueError(f"{path}: unexpected aggregate header {lines[1]!r}")
    rows = []
    for ln in lines[2:]:
        parts = ln.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}: malformed row {ln!r}")
        rows.append((int(parts[0]), float(parts[1])))
    if not rows:
        raise ValueError(f"{path}: aggregate contains no data rows")
    return meta, rows
