"""Acceptance oracles on a pivoted QR and on a state matrix, and a
per-series view of the package's ordinal coder for the Lehmer-code tests.

The oracles certify the kernel's results by separate routes (an SVD of R,
an SVD of the matrix itself), so they live with the tests rather than in
the package.
"""

import numpy as np

from shiftrc import analysis
from shiftrc.linalg import RANK_TOL_DEFAULT, PivotedQR


def r22_bound_check(qr: PivotedQR, ell: int) -> tuple[float, float]:
    """Return ``(sigma_{M-ell+1}, ||R22||_2)`` for the trailing ell x ell block.

    The singular value is that of the factored source matrix; it is computed
    from R, whose singular values equal the source's because Q is orthogonal
    and the permutation is unitary. Callers assert ``sigma <= r22_norm``
    (up to roundoff): a small trailing block certifies rank deficiency.
    """
    m = qr.r.shape[0]
    if not 1 <= ell <= m:
        raise IndexError(f"ell must be in 1..{m}, got {ell}")
    r = qr.r
    r22 = r[m - ell :, m - ell :]
    r22_norm = float(np.linalg.norm(r22, 2))
    sigma = float(np.linalg.svd(r, compute_uv=False)[m - ell])
    return sigma, r22_norm


def row_dominance_excess(qr: PivotedQR) -> float:
    """The largest ``|R_kj| - |R_kk|`` over j > k and all rows, floored at 0.

    Pivoting makes ``|R_kk|`` the largest entry of row k in exact
    arithmetic, so the excess is zero up to rounding. It is 0.0 when there
    are fewer than 2 columns or ``R_00 = 0``.
    """
    diag = qr.r_diag
    if diag.size < 2 or diag[0] == 0.0:
        return 0.0
    worst = float(np.max(np.abs(np.triu(qr.r, 1)).max(axis=1) - diag))
    return max(worst, 0.0)


def covariance_rank(states, tol_rel: float = RANK_TOL_DEFAULT) -> int:
    """Rank of the state covariance, counted on squared singular values.

    The singular values are taken from the matrix itself, never from the
    explicitly formed Gramian, which would square the condition number.
    """
    values = np.asarray(states, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("matrix contains non-finite entries")
    s = np.linalg.svd(values, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    sq = s**2
    return int(np.count_nonzero(sq > tol_rel * sq[0]))


def ordinal_symbols(series, window: int) -> np.ndarray:
    """The codes that :func:`shiftrc.analysis.code_windows` writes for
    ``series``, as int64: ``len(series) - window + 1`` rows, one code per
    window and trailing index. The window is checked by
    :func:`shiftrc.analysis.key_dtype`, the series length here."""
    x = np.asarray(series, dtype=float)
    dtype = analysis.key_dtype(window)
    if x.shape[0] < window:
        raise ValueError(f"series length {x.shape[0]} shorter than window {window}")
    codes = np.empty((x.shape[0] - window + 1,) + x.shape[1:], dtype=dtype)
    return analysis.code_windows(x, window, codes).astype(np.int64)
