"""SciPy's compiled kernels, loaded straight from the SciPy install, and
the BLAS threads the suite runs numpy on."""

import ctypes
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack

from shiftrc import linalg
from shiftrc._kernels import load_scipy_extension


def test_bound_dgeqp3_equals_lapack_dgeqp3(rng):
    # linalg calls dgeqp3 of the extension it loads itself; a SciPy release
    # that moves or changes it must fail here (the oscillator's filter
    # kernel is pinned in test_reservoir)
    b = rng.normal(size=(60, 25))
    b[:, 7] = b[:, 3] + 1e-9 * b[:, 11]  # near-dependent pair
    got = linalg._dgeqp3(b)
    want = lapack.dgeqp3(b)
    assert len(got) == len(want) == 5  # factor, jpvt, tau, work, info
    for name, g, w in zip(("factor", "jpvt", "tau"), got[:3], want[:3]):
        assert g.dtype == w.dtype, name
        np.testing.assert_array_equal(g, w, err_msg=name)
    assert got[4] == want[4] == 0


def test_loaded_modules_are_scipys_own():
    # registered under their real names, so scipy's packages reuse them
    for name in ("scipy.signal._sigtools", "scipy.linalg._flapack"):
        assert load_scipy_extension(name) is sys.modules[name]
    assert linalg._dgeqp3 is lapack.dgeqp3


def test_missing_extension_names_the_path():
    with pytest.raises(ImportError, match=r"scipy/signal/_no_such_kernel\{"):
        load_scipy_extension("scipy.signal._no_such_kernel")
    assert "scipy.signal._no_such_kernel" not in sys.modules


def test_numpy_blas_runs_the_threads_the_environment_names():
    # conftest names one thread unless the caller named a count; OpenBLAS
    # caps a larger count at the cores it may use
    libs = (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*")
    getters = [getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
               for lib in libs]
    getters = [get for get in getters if get is not None]
    if not getters:
        pytest.skip("numpy's OpenBLAS exports no thread count here")
    want = int(os.environ["OPENBLAS_NUM_THREADS"])
    assert 1 <= getters[0]() <= want
