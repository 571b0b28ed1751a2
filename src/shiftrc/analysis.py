"""Reservoir diagnostics: joint permutation entropy and node-target correlation.

These explain when column selection pays off: high-entropy reservoirs have
diverse node signals, so picking the right columns matters; low correlation
with the target signals an underdriven reservoir.

The entropy is built from three steps that the analysis grid also runs
piece by piece on streamed states: :func:`ordinal_symbols` codes every
node's windows, :func:`joint_keys` packs each window position's codes into
one byte-string key, and :func:`key_entropy` counts the keys. The
correlation is read from the triangular factor of ``[1 | X | g]`` by
:func:`correlation_from_r`, which a running QR can update block by block.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_WINDOW = 4
# 20! - 1 is the largest code that fits an int64.
MAX_WINDOW = 20


def ordinal_symbols(series, window: int = DEFAULT_WINDOW) -> np.ndarray:
    """Encode each window's rank pattern as an integer in 0..window!-1.

    Points inside a window are ranked by value with ties broken in favor of
    the earlier index; the rank pattern is encoded by its Lehmer code (its
    position in the lexicographic order of permutations), computed from
    pairwise comparisons as ``sum_i #{j > i: x_j < x_i} (window-1-i)!``.
    Windows overlap fully, so a series of length n gives n - window + 1
    codes. Time runs along the first axis: a 2-D input is coded column by
    column (and an input with more axes at every trailing index), giving
    codes of the same trailing shape. Codes are int64, which holds every
    code up to ``MAX_WINDOW``.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim < 1:
        raise ValueError("series must have a time axis")
    if not 1 <= window <= MAX_WINDOW:
        raise ValueError(f"window must be in 1..{MAX_WINDOW}, got {window}")
    if x.shape[0] < window:
        raise ValueError(f"series length {x.shape[0]} shorter than window {window}")
    n = x.shape[0] - window + 1
    # Accumulate in the narrowest unsigned type that holds the codes.
    small = key_dtype(window).newbyteorder("=")
    codes = np.zeros((n,) + x.shape[1:], dtype=small)
    for i in range(window - 1):
        weight = small.type(math.factorial(window - 1 - i))
        for j in range(i + 1, window):
            codes += (x[j : j + n] < x[i : i + n]) * weight
    return codes.astype(np.int64)


def key_dtype(window: int) -> np.dtype:
    """Smallest big-endian unsigned integer type that holds ``window! - 1``."""
    top = math.factorial(window) - 1
    size = next(s for s in (1, 2, 4, 8) if top < 256**s)
    return np.dtype(f">u{size}")


def joint_keys(codes, window: int) -> np.ndarray:
    """One void-dtype key per row of an ``(n, m)`` code array.

    Each key holds the row's codes as big-endian unsigned integers of
    :func:`key_dtype`, so comparing keys byte by byte orders rows like
    comparing their codes lexicographically, the order of
    ``np.unique(codes, axis=0)``.
    """
    packed = np.ascontiguousarray(codes, dtype=key_dtype(window))
    if packed.ndim != 2:
        raise ValueError("codes must be 2-D")
    return packed.view(np.dtype((np.void, packed.shape[1] * packed.itemsize))).ravel()


def key_entropy(keys) -> float:
    """Shannon entropy (bits) of the empirical distribution of keys.

    Counts are summed in sorted key order, so the result is bitwise that of
    ``np.unique(codes, axis=0)`` on the codes the keys were packed from.
    """
    _, counts = np.unique(keys, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum())


def reservoir_entropy(states, window: int = DEFAULT_WINDOW) -> float:
    """Shannon entropy (bits) of the joint all-node ordinal symbol of a
    ``(rows, nodes)`` state array.

    At each window position the per-node codes form one tuple-valued symbol;
    the entropy is taken over the empirical distribution of those tuples.
    """
    values = np.asarray(states, dtype=float)
    if values.shape[0] < window:
        raise ValueError(f"need at least {window} rows, have {values.shape[0]}")
    return key_entropy(joint_keys(ordinal_symbols(values, window), window))


def correlation_from_r(r, constant) -> float:
    """Mean absolute Pearson correlation of X's columns with g, from R.

    ``r`` is the upper-triangular factor of ``[1 | X | g]`` (ones column
    first, target last). Its rows from 1 down are the coordinates of the
    centered columns in an orthonormal basis, so centered inner products
    and norms are read from them without forming the centered data.
    ``constant`` flags the columns of X that are constant (or all of them,
    if g is); their correlation is undefined and set to NaN, which
    propagates into the mean.
    """
    centered = np.asarray(r)[1:, 1:]
    x, g = centered[:, :-1], centered[:, -1]
    num = x.T @ g
    den = np.sqrt((x**2).sum(axis=0) * (g**2).sum())
    with np.errstate(divide="ignore", invalid="ignore"):
        per_node = np.abs(num / den)
    per_node[np.asarray(constant)] = np.nan
    return float(np.mean(per_node))


def node_target_correlation(states, g) -> float:
    """Mean over the nodes (columns) of a ``(rows, nodes)`` state array of
    the absolute zero-lag Pearson correlation with ``g``.

    A constant node has an undefined correlation; its NaN propagates into
    the mean (as does a constant target, which makes every node's NaN).
    """
    g = np.asarray(g, dtype=float)
    values = np.asarray(states, dtype=float)
    if g.shape != (values.shape[0],):
        raise ValueError(f"target length {g.shape} does not match {values.shape[0]} rows")
    r = np.linalg.qr(np.column_stack([np.ones_like(g), values, g]), mode="r")
    constant = (values.min(axis=0) == values.max(axis=0)) | (g.min() == g.max())
    return correlation_from_r(r, constant)
