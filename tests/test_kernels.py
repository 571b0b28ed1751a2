"""SciPy's compiled kernels, loaded straight from the SciPy install."""

import sys

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
