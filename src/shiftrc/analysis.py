"""Reservoir diagnostics: joint permutation entropy and node-target correlation.

These explain when column selection pays off: high-entropy reservoirs have
diverse node signals, so picking the right columns matters; low correlation
with the target signals an underdriven reservoir.

The entropy is built from three steps, which :class:`OrdinalCodes` runs
over a batch of series streamed piece by piece: :func:`code_windows` codes
every node's windows, :func:`joint_keys` packs each window position's codes
into one byte-string key, as base ``window!`` digits in big-endian
``uint64`` words (32 bytes for 50 nodes at window 4, where a byte per code
takes 50), and :func:`key_entropy` counts the keys. The
correlation is read from the triangular factor of ``[1 | X | g]`` by
:func:`correlation_from_r`, which a TSQR tree can build block by block.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_WINDOW = 4
# 20! - 1 is the largest code that fits an int64.
MAX_WINDOW = 20


def code_windows(x, window: int, out) -> np.ndarray:
    """Write the ordinal code of each window of ``x`` (along its first axis,
    every trailing index on its own) into ``out`` and return it: the Lehmer
    code ``sum_i #{j > i: x_j < x_i} (window-1-i)!`` of the window's rank
    pattern, with ties ranked in favor of the earlier index. ``out`` is an
    unsigned integer array (e.g. of :func:`code_dtype`) of ``len(x) - window
    + 1`` rows (none if ``x`` is shorter than a window); it may be a strided
    view. Arguments are not checked."""
    n = out.shape[0]
    out[...] = 0
    for i in range(window - 1):
        weight = out.dtype.type(math.factorial(window - 1 - i))
        for j in range(i + 1, window):
            out += (x[j : j + n] < x[i : i + n]) * weight
    return out


def code_dtype(window: int) -> np.dtype:
    """Smallest unsigned integer type that holds ``window! - 1``."""
    if not 1 <= window <= MAX_WINDOW:
        raise ValueError(f"window must be in 1..{MAX_WINDOW}, got {window}")
    top = math.factorial(window) - 1
    return np.dtype(next(f"u{s}" for s in (1, 2, 4, 8) if top < 256**s))


def key_digits(window: int) -> int:
    """Codes per word of a key: the largest d <= 64 with ``window!**d <=
    2**64``, so d digits in base ``window!`` fit one ``uint64``."""
    base, d = math.factorial(window), 1
    while d < 64 and base ** (d + 1) <= 2**64:
        d += 1
    return d


def joint_keys(codes, window: int) -> np.ndarray:
    """One void-dtype key per row of a ``(..., m)`` code array.

    The row's codes are the digits, most significant first, of base
    ``window!`` numbers of :func:`key_digits` digits each (the last one of
    the rest), held as big-endian ``uint64`` words. Comparing keys byte by
    byte thus orders rows like comparing their codes lexicographically, the
    order of ``np.unique(codes, axis=0)``.
    """
    codes = np.asarray(codes).astype(code_dtype(window), copy=False)
    if codes.ndim < 1:
        raise ValueError("codes must have a node axis")
    base, d, m = math.factorial(window), key_digits(window), codes.shape[-1]
    by_node = codes.reshape(-1, m).T  # each Horner step runs along all rows
    packed = np.zeros((-(-m // d), by_node.shape[1]), dtype=np.uint64)
    for k in range(min(d, m)):  # digit k of every word at once
        digits = by_node[k::d]
        words = packed[: digits.shape[0]]
        words *= np.uint64(base)
        words += digits
    keys = np.ascontiguousarray(packed.T, dtype=">u8")
    return keys.view(np.dtype((np.void, keys.shape[1] * 8))).reshape(codes.shape[:-1])


def key_entropy(keys) -> float:
    """Shannon entropy (bits) of the empirical distribution of keys.

    Counts are summed in sorted key order, so the result is bitwise that of
    ``np.unique(codes, axis=0)`` on the codes the keys were packed from.
    """
    _, counts = np.unique(keys, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum())


class OrdinalCodes:
    """Joint ordinal codes of a batch of ``(rows, nodes)`` series, fed in
    consecutive pieces of rows: ``keys`` holds one :func:`joint_keys` key
    per series and window. A piece's windows are coded and packed into
    their keys as it is fed, and those that reach into the next piece are
    coded from a copy of its last ``window - 1`` rows. Any split into
    pieces gives the same keys."""

    def __init__(self, batch: int, rows: int, nodes: int, window: int = DEFAULT_WINDOW):
        if rows < window:
            raise ValueError(f"need at least {window} rows, have {rows}")
        self._dtype = code_dtype(window)
        key_bytes = 8 * -(-nodes // key_digits(window))
        self.keys = np.empty((batch, rows - window + 1), dtype=np.dtype((np.void, key_bytes)))
        self.window, self.rows, self.fed = window, rows, 0
        self._carried = np.empty((batch, 0, nodes))

    def add(self, piece) -> None:
        """Code the next ``(batch, piece rows, nodes)`` piece of the series."""
        n, carried, w = piece.shape[1], self._carried, self.window
        joined = np.concatenate([carried, piece[:, : w - 1]], axis=1)
        for seq, first in ((joined, self.fed - carried.shape[1]), (piece, self.fed)):
            codes = np.empty((seq.shape[0], max(seq.shape[1] - w + 1, 0), seq.shape[2]),
                             dtype=self._dtype)
            code_windows(seq.transpose(1, 0, 2), w, codes.transpose(1, 0, 2))
            self.keys[:, first : first + codes.shape[1]] = joint_keys(codes, w)
        self._carried = np.concatenate([carried, piece[:, max(n - w + 1, 0) :]],
                                       axis=1)[:, 1 - w :]
        self.fed += n

    def entropies(self) -> list[float]:
        """The joint permutation entropy (bits) of each series of the batch."""
        if self.fed != self.rows:
            raise ValueError(f"fed {self.fed} of {self.rows} rows")
        return [key_entropy(keys) for keys in self.keys]


def reservoir_entropy(states, window: int = DEFAULT_WINDOW) -> float:
    """Shannon entropy (bits) of the joint all-node ordinal symbol of a
    ``(rows, nodes)`` state array.

    At each window position the per-node codes form one tuple-valued symbol;
    the entropy is taken over the empirical distribution of those tuples.
    """
    values = np.asarray(states, dtype=float)
    if values.ndim != 2:
        raise ValueError("states must be 2-D")
    coder = OrdinalCodes(1, *values.shape, window)
    coder.add(values[None])
    return coder.entropies()[0]


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
