"""Every public function, class and method of redlab is reached by the
package itself or by the benchmark harness, not only by tests."""

import ast
from pathlib import Path

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
