"""Dense linear-algebra kernel.

LAPACK's Householder QR with greedy column pivoting (``dgeqp3``) ranks
columns: its permutation orders them from most to least linearly
independent, and the magnitudes of the R diagonal expose near rank
deficiency. It is the selection kernel and, at lambda = 0, the rank check
of every ridge fit.

The fits themselves are LAPACK Householder QRs of stacked ridge systems,
many at once: :func:`ridge_solve` factors a batch of equal-shape designs in
one call, and since the QR of a column prefix is the prefix of the QR, one
factorization also fits every prefix of a ranked column order. No normal
equations are formed.

A sweep fits many readouts to column subsets of one training matrix. The
pipeline therefore compresses each mask once: an unpivoted QR of
``[X | 1 | g] = Q R`` gives, for every column subset S,
``||X_S w - g||^2 = ||R[:, S] w - Q^T g||^2 + rho^2`` with a constant
``rho``. Each fit then runs on the small triangular system instead of the
tall one, with the same solution and conditioning.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateTargetError, SingularMatrixError

logger = logging.getLogger(__name__)

# Default relative tolerance for numerical-rank decisions.
RANK_TOL_DEFAULT = 1e-10


class NrmseMode(Enum):
    """Normalization convention for the root-mean-square error."""

    GLOBAL = "global"
    PAPER_LITERAL = "paper-literal"


@dataclass
class PivotedQR:
    """QR factorization with column pivoting: ``B[:, perm] == Q @ R``.

    Q is held implicitly as LAPACK ``dgeqp3`` leaves it, a sequence of
    Householder reflectors ``H_k = I - taus[k] v v^T``. ``packed`` is
    LAPACK's factor transposed (shape ``(M, T)``): entry ``packed[j, i]``
    with ``i <= j < M`` is ``R[i, j]`` and ``packed[k, k+1:]`` holds the tail
    of the k-th reflector ``v`` (its leading component is an implicit 1).
    """

    packed: np.ndarray
    taus: np.ndarray
    perm: np.ndarray
    r_diag: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        """Shape ``(T, M)`` of the factored matrix."""
        m, t = self.packed.shape
        return t, m

    @property
    def r(self) -> np.ndarray:
        """The upper-triangular factor, trimmed to its nonzero M x M block."""
        m = self.packed.shape[0]
        return np.triu(self.packed[:, :m].T)


def qr_column_pivot(b: np.ndarray) -> PivotedQR:
    """Factor a tall matrix as ``B[:, perm] = Q R`` with greedy pivoting.

    One call of LAPACK ``dgeqp3``, the Businger-Golub column-pivoted QR: at
    each step the remaining column with the largest residual 2-norm is
    chosen, so ``|R_kk|`` is non-increasing and the permutation ranks columns
    by linear independence.

    Raises:
        ValueError: if the matrix is wider than tall or contains non-finite
            entries. A zero matrix is valid and yields all-zero ``r_diag``.
    """
    from scipy.linalg import lapack

    b = np.asarray(b, dtype=float)
    if b.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={b.ndim}")
    t, m = b.shape
    if t < m:
        raise ValueError(f"need at least as many rows as columns, got {t}x{m}")
    if not np.all(np.isfinite(b)):
        raise ValueError("matrix contains non-finite entries")
    factor, jpvt, taus, _, _ = lapack.dgeqp3(b)
    return PivotedQR(
        packed=factor.T,
        taus=taus,
        perm=jpvt - 1,
        r_diag=np.abs(np.diag(factor)),
    )


def log_row_dominance(qr: PivotedQR) -> None:
    """Warn when some ``|R_kj|`` (j > k) exceeds ``|R_kk|``.

    Pivoting makes ``|R_kk|`` the largest entry of row k in exact
    arithmetic; rounding can break this by ~eps, which is logged rather
    than raised.
    """
    r = qr.r
    m = r.shape[0]
    if m < 2 or qr.r_diag[0] == 0.0:
        return
    tail_max = np.array(
        [np.max(np.abs(r[k, k + 1 :]), initial=0.0) for k in range(m)]
    )
    excess = tail_max - qr.r_diag
    worst = float(np.max(excess))
    if worst > 0.0:
        logger.warning(
            "pivoted QR row-dominance violated by %.3e (relative %.3e)",
            worst,
            worst / qr.r_diag[0],
        )


def estimate_rank(qr: PivotedQR, tol_rel: float = RANK_TOL_DEFAULT) -> int:
    """Numerical rank: the largest k with ``|R_kk| > tol_rel * |R_00|``."""
    if not 0.0 < tol_rel < 1.0:
        raise ValueError(f"tol_rel must be in (0, 1), got {tol_rel}")
    r = qr.r_diag
    if r.size == 0 or r[0] == 0.0:
        return 0
    above = np.nonzero(r > tol_rel * r[0])[0]
    return int(above[-1]) + 1 if above.size else 0


def r22_bound_check(qr: PivotedQR, ell: int) -> tuple[float, float]:
    """Return ``(sigma_{M-ell+1}, ||R22||_2)`` for the trailing ell x ell block.

    The singular value is that of the factored source matrix; it is computed
    from R, whose singular values equal the source's because Q is orthogonal
    and the permutation is unitary. Callers assert ``sigma <= r22_norm``
    (up to roundoff): a small trailing block certifies rank deficiency.
    """
    t, m = qr.shape
    if not 1 <= ell <= m:
        raise IndexError(f"ell must be in 1..{m}, got {ell}")
    r = qr.r
    r22 = r[m - ell :, m - ell :]
    r22_norm = float(np.linalg.norm(r22, 2))
    sigma = float(np.linalg.svd(r, compute_uv=False)[m - ell])
    return sigma, r22_norm


def covariance_rank(states, tol_rel: float = RANK_TOL_DEFAULT) -> int:
    """Rank of the state covariance, counted on squared singular values.

    Accepts a plain matrix or any object with a ``values`` array (such as a
    state matrix). The singular values are taken from the matrix itself,
    never from the explicitly formed Gramian, which would square the
    condition number.
    """
    values = np.asarray(getattr(states, "values", states), dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("matrix contains non-finite entries")
    s = np.linalg.svd(values, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    sq = s**2
    return int(np.count_nonzero(sq > tol_rel * sq[0]))


@dataclass
class Readout:
    """Trained output weights together with their ridge parameter."""

    w: np.ndarray
    ridge_lambda: float
    bias_included: bool = False


def ridge_solve(x, g, ridge_lambda: float, sizes=None) -> np.ndarray:
    """Ridge weights for a batch of designs, from one stacked LAPACK QR.

    ``x`` is ``(b, rows, k)`` and ``g`` is ``(b, rows, t)``: member i fits
    each target ``g[i, :, j]`` on ``x[i]``, minimizing
    ``||x[i] w - g[i, :, j]||^2 + lambda ||w||^2``. The Householder QR of
    every stacked system ``[x[i]; sqrt(lambda) I | g[i]; 0]`` is one
    ``np.linalg.qr`` call, and its last t columns hold ``Q^T g``. The QR of
    a column prefix is the prefix of the QR, so the fit on the first p
    columns solves ``R[:p, :p] z = R[:p, k:]``. The result is
    ``(b, len(sizes), k, t)``: for each prefix size p in ``sizes`` (default
    k alone), the weights of the first p columns, zero after them.

    ``x`` may be a tall design or its compressed form, with the same
    minimizer (see the module docstring); the sweep fits its cells so.

    Raises:
        SingularMatrixError: lambda is zero and some member's prefix is rank
            deficient; the rank is estimated from the pivoted QR of that
            prefix's stacked system.
        ValueError: the shapes do not match, lambda is negative or an entry
            is not finite.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    if x.ndim != 3 or g.ndim != 3 or g.shape[:2] != x.shape[:2]:
        raise ValueError(
            f"need designs (b, rows, k) and targets (b, rows, t), got {x.shape} and {g.shape}"
        )
    if ridge_lambda < 0.0:
        raise ValueError(f"ridge parameter must be >= 0, got {ridge_lambda}")
    b, rows, k = x.shape
    sizes = (k,) if sizes is None else tuple(sizes)
    system = np.zeros((b, rows + k, k + g.shape[2]))
    system[:, :rows, :k] = x
    system[:, :rows, k:] = g
    system[:, rows:, :k] = np.sqrt(ridge_lambda) * np.eye(k)
    if not np.all(np.isfinite(system)):
        raise ValueError("matrix contains non-finite entries")
    if ridge_lambda == 0.0:
        for member in system:
            for p in sizes:
                rank = estimate_rank(qr_column_pivot(member[:, :p]), RANK_TOL_DEFAULT)
                if rank < p:
                    raise SingularMatrixError(rank, p)
    r = np.linalg.qr(system, mode="r")
    w = np.zeros((b, len(sizes), k, g.shape[2]))
    for j, p in enumerate(sizes):
        w[:, j, :p] = np.linalg.solve(r[:, :p, :p], r[:, :p, k:])
    return w


def ridge_fit(x, g, ridge_lambda: float, include_bias: bool = False) -> Readout:
    """Solve ``min ||X w - g||^2 + lambda ||w||^2``: :func:`ridge_solve`
    for a batch of one. With ``include_bias`` a ones column is appended to
    ``X``; its weight is the last entry of ``w``.

    Raises:
        SingularMatrixError: lambda is zero and the design is rank deficient
            (the message names the estimated rank).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D design matrix, got ndim={x.ndim}")
    design = np.column_stack([x, np.ones(x.shape[0])]) if include_bias else x
    g = np.asarray(g, dtype=float)[None, :, None]
    w = ridge_solve(design[None], g, ridge_lambda)[0, 0, :, 0]
    return Readout(w=w, ridge_lambda=float(ridge_lambda), bias_included=include_bias)


def predict(x: np.ndarray, readout: Readout) -> np.ndarray:
    """Apply a trained readout: ``X @ w``, plus the bias weight if flagged.

    The bias is added to the product, so no ones column is copied in.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D design matrix, got ndim={x.ndim}")
    n_bias = int(readout.bias_included)
    if x.shape[1] + n_bias != readout.w.shape[0]:
        raise ValueError(
            f"design has {x.shape[1] + n_bias} columns, readout expects {readout.w.shape[0]}"
        )
    if readout.bias_included:
        return x @ readout.w[:-1] + readout.w[-1]
    return x @ readout.w


def nrmse(g: np.ndarray, h: np.ndarray, mode: NrmseMode = NrmseMode.GLOBAL) -> float:
    """Normalized root-mean-square error between target ``g`` and output ``h``.

    GLOBAL normalizes the summed squared error by the summed squared target,
    which stays finite for sign-changing targets. PAPER_LITERAL normalizes
    each sample by its own target value, skipping samples with ``|g| < 1e-9``
    and shrinking the sample count accordingly; it is only meaningful for
    targets bounded away from zero.
    """
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    if g.shape != h.shape or g.ndim != 1 or g.size < 1:
        raise ValueError(f"need equal-length 1-D sequences, got {g.shape} and {h.shape}")
    mode = NrmseMode(mode)
    if mode is NrmseMode.GLOBAL:
        denom = float(np.sum(g * g))
        if denom < 1e-18:
            raise DegenerateTargetError(
                f"target energy {denom:.3e} below 1e-18; NRMSE undefined"
            )
        return float(np.sqrt(np.sum((g - h) ** 2) / denom))
    keep = np.abs(g) >= 1e-9
    n_keep = int(np.count_nonzero(keep))
    if n_keep == 0:
        raise DegenerateTargetError("all target samples below 1e-9 in magnitude")
    ratios = (g[keep] - h[keep]) / g[keep]
    return float(np.sqrt(np.sum(ratios**2) / n_keep))

