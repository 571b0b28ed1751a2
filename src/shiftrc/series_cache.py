"""Self-verifying on-disk cache of integrated source series.

A source series is integrated with pure-Python RK4, about 1.1 microseconds
a step and 1.65 M steps for a shipped config, so a process that finds the
series on disk skips about 2 s. Files live in ``$XDG_CACHE_HOME/shiftrc``
(default ``~/.cache/shiftrc``), one per series, named by the SHA-256 of
everything that sets its bits. A file holds the raw little-endian float64
rows followed by their SHA-256.

A file is used only if its length and digest match and the first, middle
and last sample intervals re-integrate bitwise onto the next stored row.
The digest catches a corrupted byte in any row, the re-integration a
changed integrator. The cache is best-effort: a file that is missing or
fails a check, and any error reading or writing it, falls back to
integrating (and rewrites the file), so deleting the cache is always safe.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import dynamics
from .errors import DivergenceError

# Part of every file name: bump it when the file layout changes.
FORMAT_VERSION = 1
_DTYPE = np.dtype("<f8")
_DIGEST_BYTES = hashlib.sha256().digest_size


def cache_dir() -> Path | None:
    """``$XDG_CACHE_HOME/shiftrc``, or ``~/.cache/shiftrc`` when that is
    unset or relative; None when the home directory cannot be resolved."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        home = os.path.expanduser("~")
        if not os.path.isabs(home):
            return None
        root = os.path.join(home, ".cache")
    return Path(root) / "shiftrc"


def _cache_path(params: dynamics.ChaoticParams, initial_state, n_samples: int):
    directory = cache_dir()
    if directory is None:
        return None
    key = repr((FORMAT_VERSION, params.system.value, tuple(map(float, params.p)),
                float(params.time_scale), float(params.dt_internal),
                float(params.sample_interval), int(params.transient_samples),
                tuple(map(float, initial_state)), int(n_samples)))
    return directory / f"{hashlib.sha256(key.encode('ascii')).hexdigest()}.f64"


def _load(path: Path, params: dynamics.ChaoticParams, n_samples: int):
    """The verified, read-only series stored at ``path``, or None."""
    try:
        data = path.read_bytes()
    except OSError:
        return None
    size = n_samples * 3 * _DTYPE.itemsize
    if len(data) != size + _DIGEST_BYTES or hashlib.sha256(data[:size]).digest() != data[size:]:
        return None
    series = np.frombuffer(data, dtype=_DTYPE, count=3 * n_samples).reshape(n_samples, 3)
    one_interval = replace(params, transient_samples=0)
    for k in sorted({0, (n_samples - 1) // 2, n_samples - 2}):
        try:
            row = dynamics.integrate_chaotic(one_interval, series[k], 2)[1]
        except DivergenceError:
            return None
        if row.astype(_DTYPE).tobytes() != series[k + 1].tobytes():
            return None
    return series


def _store(path: Path, series: np.ndarray) -> None:
    """Write ``series`` and its digest to a temporary file next to ``path``
    and rename it into place, so a reader never sees a torn file; an
    ``OSError`` leaves the cache as it was."""
    payload = np.ascontiguousarray(series, dtype=_DTYPE).tobytes()
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload + hashlib.sha256(payload).digest())
        os.replace(tmp, path)
    except OSError:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def load_or_integrate(params: dynamics.ChaoticParams, initial_state,
                      n_samples: int) -> np.ndarray:
    """``dynamics.integrate_chaotic(params, initial_state, n_samples)``,
    read-only, from the cache when a verified file holds it.

    A miss integrates and stores the result; a diverging integration raises
    ``DivergenceError`` and stores nothing.
    """
    path = _cache_path(params, initial_state, n_samples)
    series = None if path is None else _load(path, params, n_samples)
    if series is None:
        series = dynamics.integrate_chaotic(params, initial_state, n_samples)
        if path is not None:
            _store(path, series)
        series.setflags(write=False)
    return series
