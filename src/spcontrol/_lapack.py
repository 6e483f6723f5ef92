"""The four LAPACK routines the package calls: dpttrf/dpttrs (spde) and dpotrf/dpotrs (control).

They come from scipy's compiled wrapper scipy/linalg/_flapack, loaded from its
file: importing scipy.linalg would run its __init__, which pulls in
numpy.testing, numpy.f2py and numpy.ma and costs more than the rest of the
package's import.  scipy.linalg.lapack re-exports these same functions, so the
results are the same to the bit.  A later `import scipy.linalg` works as
usual (CPython registers this single-phase extension under its full name, so
scipy reuses the loaded module).  If scipy moved or renamed the wrapper, the
routines come through scipy.linalg.lapack instead.
"""

import os
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, spec_from_loader


def _load_flapack():
    scipy = find_spec("scipy")  # finds the package without running its __init__
    if scipy is None:
        raise ImportError("scipy is not installed")
    folder = os.path.join(scipy.submodule_search_locations[0], "linalg")
    path = next(p for p in (os.path.join(folder, "_flapack" + s) for s in EXTENSION_SUFFIXES)
                if os.path.isfile(p))
    loader = ExtensionFileLoader("scipy.linalg._flapack", path)
    module = loader.create_module(spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    return module


try:
    _flapack = _load_flapack()
except (ImportError, OSError, StopIteration):
    from scipy.linalg import lapack as _flapack
dpotrf, dpotrs, dpttrf, dpttrs = _flapack.dpotrf, _flapack.dpotrs, _flapack.dpttrf, _flapack.dpttrs
