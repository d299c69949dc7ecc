"""Every public function, class and method of redlab is reached by the
package itself or by the benchmark harness, not only by tests; and the
public entry points reject sizes and parameters they cannot honour."""

import ast
import math
from pathlib import Path

import pytest

from redlab import (
    DctSoftThresholdDenoiser,
    DeblurOperator,
    IdentityDenoiser,
    LinearSmoothingDenoiser,
    RandomConvnetDenoiser,
    ScaledDenoiser,
    SolverConfig,
    estimate_lipschitz,
    gaussian_kernel,
    named_test_image,
)

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
