"""Conventions the package source keeps."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spcontrol"


def test_package_lines_fit_in_110_columns():
    long = [f"{path.name}:{k}" for path in sorted(SRC.glob("*.py"))
            for k, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 110]
    assert not long, f"lines over 110 characters: {long}"


def _dpttrs_uses(tree, scope=""):
    """(scope, kind) of every import, name or attribute `dpttrs` under an AST node."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _dpttrs_uses(node, f"{scope}{node.name}.")
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from ((scope, "import") for alias in node.names if alias.name.endswith("dpttrs"))
        elif (isinstance(node, ast.Name) and node.id == "dpttrs"
              or isinstance(node, ast.Attribute) and node.attr == "dpttrs"):
            yield scope, "use"
        yield from _dpttrs_uses(node, scope)


def test_every_tridiagonal_solve_goes_through_stepper_solve():
    # perfbench counts implicit solves by wrapping TreeStepper._solve; a dpttrs call anywhere else
    # would run solves it does not see
    uses = sorted((path.name, scope, kind) for path in sorted(SRC.glob("*.py")) if path.name != "_lapack.py"
                  for scope, kind in _dpttrs_uses(ast.parse(path.read_text())))
    assert uses == [("spde.py", "", "import"), ("spde.py", "TreeStepper._solve.", "use")]
