"""Conventions the package source keeps."""

import ast
import re
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


def test_level_quadrature_weight_is_written_in_scenario_only():
    # dt 2^-n h and 2^-n h are scenario._level_weight's; a product of node_weight with dt or h
    # anywhere else spells the quadrature a second time
    product = re.compile(r"\bdt\s*\*.*node_weight|node_weight\(.*?\)\s*\*\s*[\w.]*\bh\b|\bh\s*\*.*node_weight")
    found = [f"{path.name}:{k}" for path in sorted(SRC.glob("*.py"))
             for k, line in enumerate(path.read_text().splitlines(), 1) if product.search(line)]
    assert found and all(f.startswith("scenario.py:") for f in found), found


def test_each_input_rule_is_written_by_its_owner_only():
    # the CLI applies these rules through the library functions that own them, adding the config key
    # to the owner's message, so each message is written in one module: experiments for the sweep
    # lists and the direction, carleman for the parameter floors and for exclude against M, scenario
    # for the horizon
    rules = {"eps-sweep list": ("eps_values must be",),
             "T-sweep list": ("t_values must be", "distinct T values", "m_per_time must be"),
             "direction": ("direction must be",),
             "lambda, mu >= 1": ("must be finite and >= ",),
             "exclude against M": ("leaves no quadrature level",),
             "horizon": ("T must be positive",)}
    modules = {rule: sorted({path.name for path in SRC.glob("*.py") for text in texts
                             if text in path.read_text()}) for rule, texts in rules.items()}
    assert modules == {"eps-sweep list": ["experiments.py"], "T-sweep list": ["experiments.py"],
                       "direction": ["experiments.py"], "lambda, mu >= 1": ["carleman.py"],
                       "exclude against M": ["carleman.py"], "horizon": ["scenario.py"]}


def test_per_step_sharing_is_read_in_spde_only():
    # every per-step build goes through TreeStepper._each_step; a cache keyed by first_step anywhere
    # else would build a step's maps a second way
    assert sorted(path.name for path in SRC.glob("*.py") if "first_step" in path.read_text()) == ["spde.py"]
