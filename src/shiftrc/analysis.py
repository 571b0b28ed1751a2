"""Reservoir diagnostics: joint permutation entropy and node-target correlation.

These explain when column selection pays off: high-entropy reservoirs have
diverse node signals, so picking the right columns matters; low correlation
with the target signals an underdriven reservoir.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .reservoir import StateMatrix

DEFAULT_WINDOW = 4


def ordinal_symbols(series, window: int = DEFAULT_WINDOW) -> np.ndarray:
    """Encode each window's rank pattern as an integer in 0..window!-1.

    Points inside a window are ranked by value with ties broken in favor of
    the earlier index; the rank pattern is encoded by its Lehmer code (its
    position in the lexicographic order of permutations). Windows overlap
    fully, so a series of length n gives n - window + 1 codes.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be 1-D")
    if x.size < window:
        raise ValueError(f"series length {x.size} shorter than window {window}")
    win = sliding_window_view(x, window)
    order = np.argsort(win, axis=1, kind="stable")
    ranks = np.empty_like(order)
    rows = np.arange(win.shape[0])[:, None]
    ranks[rows, order] = np.arange(window)[None, :]
    codes = np.zeros(win.shape[0], dtype=np.int64)
    for i in range(window - 1):
        larger_later = (ranks[:, i + 1 :] < ranks[:, i : i + 1]).sum(axis=1)
        codes += larger_later * math.factorial(window - 1 - i)
    return codes


def reservoir_entropy(state: StateMatrix, window: int = DEFAULT_WINDOW) -> float:
    """Shannon entropy (bits) of the joint all-node ordinal symbol.

    At each window position the per-node codes form one tuple-valued symbol;
    the entropy is taken over the empirical distribution of those tuples.
    """
    values = state.values
    if values.shape[0] < window:
        raise ValueError(
            f"need at least {window} rows, have {values.shape[0]}"
        )
    per_node = [ordinal_symbols(values[:, j], window) for j in range(values.shape[1])]
    joint = np.stack(per_node, axis=1)
    _, counts = np.unique(joint, axis=0, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum())


def node_target_correlation(state: StateMatrix, g) -> float:
    """Mean over nodes of the absolute zero-lag Pearson correlation with ``g``.

    A constant node has an undefined correlation; its NaN propagates into
    the mean.
    """
    g = np.asarray(g, dtype=float)
    values = state.values
    if g.shape != (values.shape[0],):
        raise ValueError(
            f"target length {g.shape} does not match {values.shape[0]} state rows"
        )
    xc = values - values.mean(axis=0)
    gc = g - g.mean()
    num = xc.T @ gc
    den = np.sqrt((xc**2).sum(axis=0) * (gc**2).sum())
    with np.errstate(divide="ignore", invalid="ignore"):
        per_node = np.abs(num / den)
    return float(np.mean(per_node))
