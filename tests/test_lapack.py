"""spcontrol._lapack: the four LAPACK routines, loaded without importing scipy.linalg."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack

from spcontrol import _lapack

SRC = Path(__file__).resolve().parents[1] / "src"


def _python(code: str) -> str:
    """Run code in a fresh interpreter that imports spcontrol from this checkout; its stdout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def _same(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.asarray(x).tobytes() == np.asarray(y).tobytes()


@pytest.mark.parametrize("n", [32, 128])
def test_tridiagonal_routines_match_scipy_bitwise(n):
    rng = np.random.default_rng(n)
    for _ in range(10):
        e = rng.uniform(-1.0, 1.0, n - 1)
        # diagonally dominant, hence SPD
        d = np.abs(np.append(e, 0.0)) + np.abs(np.insert(e, 0, 0.0)) + rng.uniform(0.01, 2.0, n)
        rhs = rng.standard_normal((n, 7)) * 10.0 ** rng.uniform(-5.0, 5.0, 7)  # ten decades
        fact = _lapack.dpttrf(d, e)
        _same(fact, lapack.dpttrf(d, e))
        assert fact[2] == 0
        _same(_lapack.dpttrs(fact[0], fact[1], rhs), lapack.dpttrs(fact[0], fact[1], rhs))


@pytest.mark.parametrize("n", [8, 32])
def test_cholesky_routines_match_scipy_bitwise(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    spd = a @ a.T + n * np.eye(n)
    rhs = rng.standard_normal((n, 5)) * 10.0 ** rng.uniform(-5.0, 5.0, 5)
    factor = _lapack.dpotrf(spd, clean=0)
    _same(factor, lapack.dpotrf(spd, clean=0))
    assert factor[1] == 0
    _same(_lapack.dpotrs(factor[0], rhs), lapack.dpotrs(factor[0], rhs))


def test_indefinite_matrices_give_scipys_info():
    d, e = np.array([1.0, 1.0, 1.0]), np.array([2.0, 0.5])
    info = _lapack.dpttrf(d, e)[2]
    assert info != 0 and info == lapack.dpttrf(d, e)[2]
    dense = np.array([[1.0, 2.0], [2.0, 1.0]])
    info = _lapack.dpotrf(dense, clean=0)[1]
    assert info != 0 and info == lapack.dpotrf(dense, clean=0)[1]


# scipy's package is not found at all, or found without the compiled wrapper inside
_FIND_FAILS = {
    "no scipy": "None",
    "no _flapack": "ModuleSpec('scipy', None, is_package=True)",
}


@pytest.mark.parametrize("failure", sorted(_FIND_FAILS))
def test_fallback_gives_the_same_functions(failure):
    out = _python(f"""
import importlib.util, tempfile
from importlib.machinery import ModuleSpec
real = importlib.util.find_spec
def find_spec(name, package=None):
    if name != "scipy":
        return real(name, package)
    spec = {_FIND_FAILS[failure]}
    if spec is not None:
        spec.submodule_search_locations.append(tempfile.mkdtemp())
    return spec
importlib.util.find_spec = find_spec
from spcontrol import _lapack
from scipy.linalg import lapack
print(_lapack._flapack.__name__,
      all(getattr(_lapack, f) is getattr(lapack, f) for f in ("dpotrf", "dpotrs", "dpttrf", "dpttrs")))
""")
    assert out == "scipy.linalg.lapack True"


def test_only_lapack_module_imports_scipy():
    importers = set()
    for path in sorted((SRC / "spcontrol").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) and node.level == 0
                     else [])
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                importers.add(path.name)
    assert importers == {"_lapack.py"}
    out = _python("import spcontrol.cli, sys\n"
                  "print('scipy.linalg' in sys.modules, spcontrol._lapack._flapack.__name__)")
    assert out == "False scipy.linalg._flapack"
