"""Time-shift augmentation and column selection.

Augments a state matrix with lagged copies of every node column and selects
a subset of the columns either by pivoted-QR ranking or uniformly at random.
Columns are passed around as indices; column ``shift * n_nodes + node`` is
the (node, shift) copy, and :func:`column_labels` alone turns an index into
that label.
"""

from __future__ import annotations

import numpy as np

from .linalg import qr_column_pivot


def build_shifted_matrix(source: np.ndarray, tau_max: int, out=None) -> np.ndarray:
    """Stack lagged copies of every column of a ``(rows, nodes)`` state
    array, shifts 0..tau_max inclusive, into a
    ``(rows - tau_max, (tau_max + 1) * nodes)`` array, new or ``out``
    (of that shape, e.g. the leading columns of a wider buffer).

    Column order is shift-major: column ``shift * nodes + node`` is the
    shift-``shift`` copy of node ``node``. Row t of a shift-s column holds
    the source entry at row ``t + tau_max - s``, so the first ``tau_max``
    source rows are dropped and every column is fully defined without
    padding.
    """
    if tau_max < 0:
        raise ValueError(f"tau_max must be >= 0, got {tau_max}")
    t, m = source.shape
    if t <= tau_max:
        raise ValueError(f"need more than tau_max={tau_max} rows, have {t}")
    t_out = t - tau_max
    values = np.empty((t_out, m * (tau_max + 1))) if out is None else out
    for shift in range(tau_max + 1):
        start = tau_max - shift
        values[:, shift * m : (shift + 1) * m] = source[start : start + t_out]
    return values


def column_labels(columns, n_nodes: int) -> list[list[int]]:
    """The ``[node, shift]`` label of each shifted-matrix column index."""
    return [[int(j) % n_nodes, int(j) // n_nodes] for j in columns]


def rrqr_select(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank the columns of ``b`` from most to least linearly independent.

    Runs the greedy pivoted QR (``qr_column_pivot``, LAPACK ``dgeqp3``) on
    exactly ``b`` and returns ``(order, r_diag)``: its pivot order and
    spectrum ``|R_kk|``. A selection of width m_red keeps ``order[:m_red]``.
    Every greedy choice depends only on the column norms of the residuals,
    which an orthogonal ``Q^T`` leaves unchanged, so the C x C triangle
    ``R`` of a tall ``X = Q R`` ranks the columns of ``X`` in the same
    order, with ``r_diag`` equal to rounding (about eps * |R_00|), and
    costs far less to pivot; a sweep passes the triangle that compresses
    its training system.

    Raises:
        ValueError: ``b`` has fewer rows than columns or non-finite entries.
    """
    qr = qr_column_pivot(b)
    return qr.perm, qr.r_diag


def random_select(n_columns: int, m_red: int, seed: int) -> np.ndarray:
    """``m_red`` distinct column indices of ``0..n_columns - 1``, drawn
    uniformly without replacement."""
    if not 1 <= m_red <= n_columns:
        raise ValueError(f"m_red must be in 1..{n_columns}, got {m_red}")
    return np.random.default_rng(seed).choice(n_columns, size=m_red, replace=False)


def reduce_columns(shifted: np.ndarray, columns) -> np.ndarray:
    """The given columns of a shifted matrix, in the given order."""
    return shifted[:, columns]
