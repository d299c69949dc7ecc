"""Every public function, class and method of redlab is reached by the
package itself or by the benchmark harness, not only by tests; and the
public entry points reject sizes, parameters and vectors they cannot honour."""

import ast
import math
import os
from pathlib import Path

import numpy as np
import pytest

from redlab import (
    CompressiveSensingOperator,
    DctSoftThresholdDenoiser,
    DeblurOperator,
    IdentityDenoiser,
    LeastSquaresFidelity,
    LinearSmoothingDenoiser,
    RandomConvnetDenoiser,
    REDProblem,
    RngState,
    ScaledDenoiser,
    SolverConfig,
    estimate_lipschitz,
    gaussian_kernel,
    named_test_image,
    run_solver,
)
from redlab.pgmio import write_pgm

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "redlab"

# Names that nothing in the package or the harness calls by name, each kept
# for a reason outside that code.
EXEMPT = {
    # argparse calls it on a usage error.
    "_Parser.error",
    # Read by the README's library example and by acceptance criteria 5 and 6.
    "SolveResult.final_normalized_residual",
}


def _definitions(path):
    """Qualified names of the public functions, classes and methods in a module."""
    found = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found[node.name] = node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    found[f"{node.name}.{item.name}"] = item.name
    return found


def _uses(path):
    """Names a module refers to in code: names, attributes and imports.

    Strings do not count, so a name that only a patch list spells out is
    not a use.
    """
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name.split(".")[-1] for alias in node.names)
    return used


def test_no_public_name_is_used_only_by_tests():
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        defined.update(_definitions(path))
    users = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    users += sorted((ROOT / "perfbench").glob("*.py"))
    assert users
    used = set().union(*(_uses(p) for p in users))
    unused = sorted(q for q, name in defined.items() if name not in used and q not in EXEMPT)
    assert unused == []


@pytest.mark.parametrize(
    "build",
    [
        lambda: gaussian_kernel(3.5, 1.0),
        lambda: IdentityDenoiser(4096.7),
        lambda: named_test_image("phantom", 0, (64.5, 64)),
        lambda: DeblurOperator((64, 64.5), gaussian_kernel(3, 1.0)),
        lambda: LinearSmoothingDenoiser((64.5, 64), 1.0),
        lambda: DctSoftThresholdDenoiser((64.5, 64), 0.1, 0.02),
        lambda: RandomConvnetDenoiser((64.5, 64), 4, 1.0, 0),
        lambda: estimate_lipschitz(IdentityDenoiser(16), probes=2.5),
        lambda: estimate_lipschitz(IdentityDenoiser(16), iters=2.5),
        lambda: SolverConfig(gamma=1, t=10.5),
    ],
)
def test_non_integral_sizes_are_rejected(build):
    # A size is never truncated to an integer.
    with pytest.raises(ValueError, match="must be an integer"):
        build()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize(
    "build",
    [
        lambda v: SolverConfig(gamma=1, t=v),
        lambda v: SolverConfig(gamma=v),
        lambda v: SolverConfig(gamma=1, alpha0=v),
        lambda v: SolverConfig(gamma=1, epsilon=v),
        lambda v: SolverConfig(gamma=1, divergence_cap=v),
        lambda v: SolverConfig(gamma=1, converge_tol=v),
        lambda v: gaussian_kernel(3, v),
        lambda v: LinearSmoothingDenoiser((64, 64), v),
        lambda v: DctSoftThresholdDenoiser((64, 64), v, 0.02),
        lambda v: ScaledDenoiser(IdentityDenoiser(16), v),
        lambda v: RandomConvnetDenoiser((64, 64), 4, v, 0),
        lambda v: DctSoftThresholdDenoiser((64, 64), 0.1, v),
    ],
)
def test_non_finite_parameters_are_rejected(build, bad):
    with pytest.raises(ValueError):
        build(bad)


@pytest.mark.parametrize("bad", [10**400, -(10**400)], ids=["huge", "minus_huge"])
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda v: SolverConfig(gamma=v), "gamma must be"),
        (lambda v: SolverConfig(gamma=1, alpha0=v), "alpha0 must be"),
        (lambda v: SolverConfig(gamma=1, beta=v), "beta must"),
        (lambda v: SolverConfig(gamma=1, theta=v), "theta must"),
        (lambda v: SolverConfig(gamma=1, epsilon=v), "epsilon must be"),
        (lambda v: SolverConfig(gamma=1, divergence_cap=v), "divergence_cap must be"),
        (lambda v: SolverConfig(gamma=1, converge_tol=v), "converge_tol must be"),
        (lambda v: gaussian_kernel(3, v), "sigma must be positive and finite"),
        (lambda v: LinearSmoothingDenoiser((64, 64), v), "sigma must be positive and finite"),
        (lambda v: DctSoftThresholdDenoiser((64, 64), v, 0.02), "threshold must be positive"),
        (lambda v: DctSoftThresholdDenoiser((64, 64), 0.1, v), "smoothing_mu"),
        (lambda v: ScaledDenoiser(IdentityDenoiser(4), v), "scale must be positive and finite"),
        (lambda v: RandomConvnetDenoiser((64, 64), 4, v, 0), "weight_scale must be positive"),
        (lambda v: _deblur_problem(tau=v), "tau must be positive and finite"),
    ],
)
def test_ints_too_large_for_a_float_are_rejected(build, message, bad):
    # float() of such an int overflows; the parameter is refused with its
    # own message, as an infinite one is.
    with pytest.raises(ValueError, match=message):
        build(bad)


def test_a_huge_iteration_count_is_accepted():
    assert SolverConfig(gamma=1, t=10**400).t == 10**400


def _deblur_problem(tau=0.1):
    op = DeblurOperator((8, 8), gaussian_kernel(3, 1.0))
    return REDProblem(LeastSquaresFidelity(op, np.ones(64)), IdentityDenoiser(64), tau)


COMPLEX = np.ones(64) + 0j


@pytest.mark.parametrize(
    "build",
    [
        lambda: _deblur_problem().fidelity.op.forward(COMPLEX),
        lambda: _deblur_problem().fidelity.op.adjoint(COMPLEX),
        lambda: CompressiveSensingOperator(4, 16, 0).gram(COMPLEX[:16]),
        lambda: CompressiveSensingOperator(4, 16, 0).gram(np.ones((2, 16)) + 0j),
        lambda: IdentityDenoiser(64).apply(COMPLEX),
        lambda: IdentityDenoiser(4).apply(["1", "2", "3", "4"]),
        lambda: LeastSquaresFidelity(_deblur_problem().fidelity.op, COMPLEX),
        lambda: _deblur_problem().operator_g(COMPLEX),
        lambda: run_solver("red", _deblur_problem(), COMPLEX, SolverConfig(gamma=0.5, t=1)),
        lambda: run_solver("red", _deblur_problem(), np.ones(64), SolverConfig(gamma=0.5, t=1), psnr_ref=0.5),
        lambda: DeblurOperator((8, 8), np.ones((3, 3)) / 9 + 0j),
        lambda: write_pgm(os.devnull, np.ones((4, 4)) + 0j),
        lambda: IdentityDenoiser(True),
        lambda: gaussian_kernel(True, 1.0),
        lambda: gaussian_kernel(3, 1.0 + 0j),
        lambda: RngState(True),
        lambda: SolverConfig(gamma=True),
        lambda: SolverConfig(gamma="0.5"),
        lambda: ScaledDenoiser(IdentityDenoiser(4), "2"),
        lambda: DctSoftThresholdDenoiser((8, 8), 0.1, "0.02"),
        lambda: _deblur_problem(tau=True),
    ],
    ids=[
        "forward_complex", "adjoint_complex", "gram_complex", "gram_stack_complex",
        "apply_complex", "apply_strings", "measurement_complex", "operator_g_complex",
        "x0_complex", "psnr_ref_scalar", "kernel_complex", "pgm_complex", "dimension_bool",
        "kernel_size_bool", "sigma_complex", "seed_bool", "gamma_bool", "gamma_string",
        "scale_string", "smoothing_mu_string", "tau_bool",
    ],
)
def test_non_real_arguments_are_rejected(build):
    # Only integer and float kinds are taken: a complex vector is not cut to
    # its real part, nor a string parsed, nor a bool read as 1, nor a
    # scalar broadcast where a vector is due.
    with pytest.raises(ValueError):
        build()
