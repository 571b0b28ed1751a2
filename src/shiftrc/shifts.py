"""Time-shift augmentation and column selection.

Augments a state matrix with lagged copies of every node column and selects
a subset of the columns either by pivoted-QR ranking or uniformly at random.
Columns are passed around as indices; column ``shift * n_nodes + node`` is
the (node, shift) copy, and this module alone turns an index into that label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import log_row_dominance, qr_column_pivot


@dataclass
class ShiftedMatrix:
    """All (node, shift) columns over the rows where every lag is defined.

    Column order is shift-major: column ``shift * n_nodes + node`` is the
    shift-``shift`` copy of node ``node``, for shifts 0 up to ``tau_max``.
    Row t of a shift-s column holds the source entry at row
    ``t + tau_max - s``.
    """

    values: np.ndarray
    n_nodes: int

    @property
    def n_columns(self) -> int:
        return self.values.shape[1]


def build_shifted_matrix(source: np.ndarray, tau_max: int) -> ShiftedMatrix:
    """Stack lagged copies of every column of a ``(rows, nodes)`` state
    array, shifts 0..tau_max inclusive.

    The first ``tau_max`` source rows are dropped so that every column is
    fully defined without padding.
    """
    if tau_max < 0:
        raise ValueError(f"tau_max must be >= 0, got {tau_max}")
    t, m = source.shape
    if t <= tau_max:
        raise ValueError(f"need more than tau_max={tau_max} rows, have {t}")
    t_out = t - tau_max
    values = np.empty((t_out, m * (tau_max + 1)))
    for shift in range(tau_max + 1):
        start = tau_max - shift
        values[:, shift * m : (shift + 1) * m] = source[start : start + t_out]
    return ShiftedMatrix(values=values, n_nodes=m)


@dataclass
class SelectionResult:
    """Ordered retained column indices of a shifted matrix with ``n_nodes``
    nodes; a ranked selection also carries its pivot spectrum ``|R_kk|``."""

    columns: np.ndarray
    n_nodes: int
    r_diag: np.ndarray | None = None

    def __post_init__(self):
        if len(np.unique(self.columns)) != len(self.columns):
            raise ValueError("retained columns must be distinct")

    @property
    def retained(self) -> list[tuple[int, int]]:
        """The retained columns as (node, shift) labels, in order."""
        return [(int(j) % self.n_nodes, int(j) // self.n_nodes) for j in self.columns]


def rrqr_select(shifted: ShiftedMatrix, m_red: int,
                r: np.ndarray | None = None) -> SelectionResult:
    """Keep the ``m_red`` most linearly independent columns.

    Runs the greedy pivoted QR (``qr_column_pivot``, LAPACK ``dgeqp3``);
    the pivot order ranks columns from most to least independent and the
    first ``m_red`` are retained. Every greedy choice depends only on the
    column norms of the residuals, which an orthogonal ``Q^T`` leaves
    unchanged, so the pivot runs on the C x C triangle ``R`` of
    ``shifted.values = Q R`` instead of the tall matrix; the order is the
    same and ``r_diag`` agrees to rounding (about eps * |R_00|). ``r`` is
    that triangle when the caller already has it (a sweep reads it off its
    compressed training system); otherwise one LAPACK QR of
    ``shifted.values`` computes it. A row-dominance violation of the
    factorization is logged as a warning.

    Raises:
        ValueError: ``m_red`` is outside 1..C, or the shifted matrix has
            fewer rows than columns or non-finite entries.
    """
    c = shifted.n_columns
    if not 1 <= m_red <= c:
        raise ValueError(f"m_red must be in 1..{c}, got {m_red}")
    qr = qr_column_pivot(np.linalg.qr(shifted.values, mode="r") if r is None else r)
    log_row_dominance(qr)
    return SelectionResult(qr.perm[:m_red], shifted.n_nodes, qr.r_diag.copy())


def random_select(shifted: ShiftedMatrix, m_red: int, seed: int) -> SelectionResult:
    """Keep ``m_red`` distinct columns drawn uniformly without replacement."""
    c = shifted.n_columns
    if not 1 <= m_red <= c:
        raise ValueError(f"m_red must be in 1..{c}, got {m_red}")
    idx = np.random.default_rng(seed).choice(c, size=m_red, replace=False)
    return SelectionResult(idx, shifted.n_nodes)


def reduce_columns(shifted: ShiftedMatrix, selection: SelectionResult) -> np.ndarray:
    """The retained columns of a shifted matrix, in retained order."""
    return shifted.values[:, selection.columns]
