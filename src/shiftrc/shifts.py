"""Time-shift augmentation and column selection.

Augments a state matrix with lagged copies of every node column and selects
a subset of (node, shift) columns either by pivoted-QR ranking or uniformly
at random.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import log_row_dominance, qr_column_pivot
from .reservoir import StateMatrix


@dataclass
class ShiftedMatrix:
    """All (node, shift) columns over the rows where every lag is defined.

    Column order is shift-major: the shift-0 copies of all nodes first, then
    shift 1, and so on up to ``tau_max``. Row t of a shift-s column holds the
    source entry at row ``t + tau_max - s``.
    """

    values: np.ndarray
    columns: list[tuple[int, int]]
    tau_max: int

    @property
    def n_columns(self) -> int:
        return self.values.shape[1]


def build_shifted_matrix(source: StateMatrix, tau_max: int) -> ShiftedMatrix:
    """Stack lagged copies of every node column, shifts 0..tau_max inclusive.

    The first ``tau_max`` source rows are dropped so that every column is
    fully defined without padding.
    """
    if tau_max < 0:
        raise ValueError(f"tau_max must be >= 0, got {tau_max}")
    t, m = source.values.shape
    if t <= tau_max:
        raise ValueError(f"need more than tau_max={tau_max} rows, have {t}")
    t_out = t - tau_max
    values = np.empty((t_out, m * (tau_max + 1)))
    columns: list[tuple[int, int]] = []
    for shift in range(tau_max + 1):
        start = tau_max - shift
        values[:, shift * m : (shift + 1) * m] = source.values[start : start + t_out]
        columns.extend((node, shift) for node in source.node_ids)
    return ShiftedMatrix(values=values, columns=columns, tau_max=tau_max)


@dataclass
class SelectionResult:
    """Ordered set of retained (node, shift) columns; a ranked selection
    also carries its pivot spectrum ``|R_kk|``."""

    retained: list[tuple[int, int]]
    r_diag: np.ndarray | None = None

    def __post_init__(self):
        if len(set(self.retained)) != len(self.retained):
            raise ValueError("retained pairs must be distinct")


def rrqr_select(
    shifted: ShiftedMatrix, m_red: int, r: np.ndarray | None = None
) -> SelectionResult:
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
    if r is None:
        r = np.linalg.qr(shifted.values, mode="r")
    qr = qr_column_pivot(r)
    log_row_dominance(qr)
    return SelectionResult(
        retained=[shifted.columns[j] for j in qr.perm[:m_red]],
        r_diag=qr.r_diag.copy(),
    )


def random_select(shifted: ShiftedMatrix, m_red: int, seed: int) -> SelectionResult:
    """Keep ``m_red`` distinct columns drawn uniformly without replacement."""
    c = shifted.n_columns
    if not 1 <= m_red <= c:
        raise ValueError(f"m_red must be in 1..{c}, got {m_red}")
    idx = np.random.default_rng(seed).choice(c, size=m_red, replace=False)
    return SelectionResult(retained=[shifted.columns[j] for j in idx])


@dataclass
class ReducedMatrix:
    """Retained columns in retained order, carrying their (node, shift) labels."""

    values: np.ndarray
    columns: list[tuple[int, int]]


def reduce_columns(shifted: ShiftedMatrix, selection) -> ReducedMatrix:
    """Materialize the retained columns of a shifted matrix.

    ``selection`` may be a SelectionResult or a plain sequence of
    (node, shift) pairs; order is preserved.

    Raises:
        KeyError: a pair does not name a column of the shifted matrix.
    """
    pairs = selection.retained if isinstance(selection, SelectionResult) \
        else [tuple(p) for p in selection]
    index = {pair: j for j, pair in enumerate(shifted.columns)}
    try:
        cols = [index[p] for p in pairs]
    except KeyError as exc:
        raise KeyError(f"unknown (node, shift) pair {exc.args[0]}") from None
    return ReducedMatrix(values=shifted.values[:, cols], columns=list(pairs))
