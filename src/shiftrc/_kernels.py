"""SciPy's compiled kernels, loaded without their Python packages.

shiftrc calls two compiled SciPy routines: ``_linear_filter`` of
``scipy.signal._sigtools`` (the IIR kernel behind ``lfilter``) and
``dgeqp3`` of ``scipy.linalg._flapack`` (LAPACK's pivoted QR). Importing
them through ``scipy.signal`` and ``scipy.linalg`` would also import
``scipy.stats`` and much else, which costs about a second and 65 MiB per
process; here each extension file is loaded straight from the SciPy
install directory instead.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path


def load_scipy_extension(name: str):
    """The extension module ``name`` (a dotted name under ``scipy``).

    The module is registered in ``sys.modules`` under ``name``, so a later
    ``import scipy.signal`` or ``import scipy.linalg`` reuses it, and one
    already imported is returned as it is.

    Raises:
        ImportError: SciPy is not installed, or no file of ``name`` with an
            extension suffix exists; the message names the path looked for.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError(f"cannot load {name}: SciPy is not installed")
    stem = Path(spec.submodule_search_locations[0], *name.split(".")[1:])
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = stem.with_name(stem.name + suffix)
        if path.is_file():
            loader = importlib.machinery.ExtensionFileLoader(name, str(path))
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(name, path, loader=loader))
            loader.exec_module(module)
            sys.modules[name] = module
            return module
    raise ImportError(f"cannot load {name}: no file {stem}"
                      f"{{{','.join(importlib.machinery.EXTENSION_SUFFIXES)}}}")
