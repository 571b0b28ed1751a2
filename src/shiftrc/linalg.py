"""Dense linear-algebra kernel.

LAPACK's Householder QR with greedy column pivoting (``dgeqp3``) ranks
columns: its permutation orders them from most to least linearly
independent, and the magnitudes of the R diagonal expose near rank
deficiency. It is the selection kernel and, at lambda = 0, the rank check
of every ridge fit. ``dgeqp3`` is SciPy's LAPACK wrapper, taken from the
``scipy.linalg._flapack`` extension loaded by :mod:`shiftrc._kernels`
without importing ``scipy.linalg``.

The fits themselves are LAPACK Householder QRs of stacked ridge systems,
many at once: :func:`ridge_solve` factors a batch of equal-shape designs in
a few calls, and since the QR of a column prefix is the prefix of the QR,
one factorization also fits every prefix of a ranked column order. No
normal equations are formed.

A sweep fits many readouts to column subsets of one training matrix. The
pipeline therefore compresses each mask once: an unpivoted QR of
``[X | 1 | g] = Q R`` gives, for every column subset S,
``||X_S w - g||^2 = ||R[:, S] w - Q^T g||^2 + rho^2`` with a constant
``rho``. Each fit then runs on the small triangular system instead of the
tall one, with the same solution and conditioning. :func:`tsqr` computes
that R from row blocks, so the tall matrix never needs to be held whole,
and :func:`nrmse_sums` scores outputs block by block.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._kernels import load_scipy_extension
from .errors import DegenerateTargetError, SingularMatrixError

_dgeqp3 = load_scipy_extension("scipy.linalg._flapack").dgeqp3

# Default relative tolerance for numerical-rank decisions.
RANK_TOL_DEFAULT = 1e-10

# ridge_solve factors a batch in slices whose stacked systems take at most
# this many bytes (or one member), and the sweep gathers designs by the same
# budget. LAPACK factors each member on its own, so slicing moves no bit.
RIDGE_SLICE_BYTES = 2**20


class NrmseMode(Enum):
    """Normalization convention for the root-mean-square error."""

    GLOBAL = "global"
    PAPER_LITERAL = "paper-literal"


@dataclass
class PivotedQR:
    """QR factorization with column pivoting: ``B[:, perm] == Q @ R``.

    Only R is kept, as the ``M x M`` upper triangle ``r``: the selection
    reads the pivot order and ``|R_kk|``, and the rank check reads R alone.
    """

    perm: np.ndarray
    r: np.ndarray

    @property
    def r_diag(self) -> np.ndarray:
        """``|R_kk|``, non-increasing by the pivoting."""
        return np.abs(np.diag(self.r))


def qr_column_pivot(b: np.ndarray) -> PivotedQR:
    """Factor a tall matrix as ``B[:, perm] = Q R`` with greedy pivoting.

    One call of LAPACK ``dgeqp3`` (bound at import from SciPy's
    ``_flapack`` extension), the Businger-Golub column-pivoted QR: at
    each step the remaining column with the largest residual 2-norm is
    chosen, so ``|R_kk|`` is non-increasing and the permutation ranks columns
    by linear independence.

    Raises:
        ValueError: if the matrix is wider than tall or contains non-finite
            entries. A zero matrix is valid and yields all-zero ``r_diag``.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={b.ndim}")
    t, m = b.shape
    if t < m:
        raise ValueError(f"need at least as many rows as columns, got {t}x{m}")
    if not np.all(np.isfinite(b)):
        raise ValueError("matrix contains non-finite entries")
    factor, jpvt, _, _, _ = _dgeqp3(b)
    return PivotedQR(perm=jpvt - 1, r=np.triu(factor[:m]))


def estimate_rank(qr: PivotedQR, tol_rel: float = RANK_TOL_DEFAULT) -> int:
    """Numerical rank: the largest k with ``|R_kk| > tol_rel * |R_00|``."""
    if not 0.0 < tol_rel < 1.0:
        raise ValueError(f"tol_rel must be in (0, 1), got {tol_rel}")
    r = qr.r_diag
    if r.size == 0 or r[0] == 0.0:
        return 0
    above = np.nonzero(r > tol_rel * r[0])[0]
    return int(above[-1]) + 1 if above.size else 0


@dataclass
class Readout:
    """Trained output weights together with their ridge parameter."""

    w: np.ndarray
    ridge_lambda: float
    bias_included: bool = False


def ridge_solve(x, g, ridge_lambda: float, sizes=None) -> np.ndarray:
    """Ridge weights for a batch of designs, from stacked LAPACK QRs.

    ``x`` is ``(b, rows, k)`` and ``g`` is ``(b, rows, t)``: member i fits
    each target ``g[i, :, j]`` on ``x[i]``, minimizing
    ``||x[i] w - g[i, :, j]||^2 + lambda ||w||^2``. The Householder QRs of
    the stacked systems ``[x[i]; sqrt(lambda) I | g[i]; 0]``, one call per
    ``RIDGE_SLICE_BYTES`` of them, hold ``Q^T g`` in their last t columns.
    The QR of a column prefix is the prefix of the QR, so the fit on the
    first p columns solves ``R[:p, :p] z = R[:p, k:]``. The result is
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
    t = g.shape[2]
    sizes = (k,) if sizes is None else tuple(sizes)
    w = np.zeros((b, len(sizes), k, t))
    step = max(1, RIDGE_SLICE_BYTES // ((rows + k) * (k + t) * 8))
    for i in range(0, b, step):
        system = np.zeros((min(step, b - i), rows + k, k + t))
        system[:, :rows, :k] = x[i : i + step]
        system[:, :rows, k:] = g[i : i + step]
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
        for j, p in enumerate(sizes):
            w[i : i + step, j, :p] = np.linalg.solve(r[:, :p, :p], r[:, :p, k:])
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


def tsqr(blocks) -> np.ndarray:
    """The R factor of the row blocks ``blocks`` stacked in order, by a
    binary tree of Householder QRs (TSQR: Demmel, Grigori, Hoemmen and
    Langou, SIAM J. Sci. Comput. 34(1), 2012).

    ``blocks`` yields arrays of equal column count, each ``(..., rows, k)``;
    leading axes factor a batch of matrices at once. Each block is factored
    on its own, and factors of equal depth are merged pairwise by a QR of
    the two stacked, so at most log2(blocks) + 1 factors are held at a time
    and the rounding of R stays close to that of one QR of the whole matrix.
    The result equals that QR's R up to the signs of its rows; it has
    ``min(rows, k)`` rows, for ``rows`` the total. A block may be shorter
    than ``k`` rows.

    Raises:
        ValueError: ``blocks`` is empty.
    """
    factors = []  # (depth, R) of merged blocks, depths strictly decreasing
    for block in blocks:
        depth, r = 0, np.linalg.qr(block, mode="r")
        while factors and factors[-1][0] == depth:
            r = np.linalg.qr(np.concatenate([factors.pop()[1], r], axis=-2), mode="r")
            depth += 1
        factors.append((depth, r))
    if not factors:
        raise ValueError("need at least one row block")
    r = factors.pop()[1]
    while factors:
        r = np.linalg.qr(np.concatenate([factors.pop()[1], r], axis=-2), mode="r")
    return r


def nrmse_sums(g: np.ndarray, h: np.ndarray, mode: NrmseMode) -> tuple[np.ndarray, float]:
    """One row block's share of the NRMSE of every output in ``h``.

    ``g`` holds the block's target samples ``(rows,)`` and ``h`` the
    outputs ``(cells, rows)``. Returns each output's error sum and the
    target sum, which is taken once for all outputs: for GLOBAL the summed
    squared errors and the target energy, for PAPER_LITERAL the summed
    squared relative errors over the samples with ``|g| >= 1e-9`` and their
    count. Added up over the blocks of a series, they give its NRMSE
    through :func:`nrmse_from_sums`. ``h`` is consumed: GLOBAL overwrites
    it with its errors, PAPER_LITERAL a copy of its kept samples.
    """
    if mode is NrmseMode.GLOBAL:
        target = float(np.sum(g * g))
        h -= g
    else:
        keep = np.abs(g) >= 1e-9
        g, h, target = g[keep], h[..., keep], int(np.count_nonzero(keep))
        np.divide(np.subtract(h, g, out=h), g, out=h)
    np.square(h, out=h)
    return np.sum(h, axis=-1), target


def nrmse_from_sums(errors, target, mode: NrmseMode) -> np.ndarray:
    """NRMSE of each output from the sums of :func:`nrmse_sums` over a
    whole series.

    Raises:
        DegenerateTargetError: GLOBAL with a target energy below 1e-18, or
            PAPER_LITERAL with no target sample of magnitude 1e-9 or more.
    """
    if mode is NrmseMode.GLOBAL:
        if target < 1e-18:
            raise DegenerateTargetError(
                f"target energy {target:.3e} below 1e-18; NRMSE undefined"
            )
    elif target == 0:
        raise DegenerateTargetError("all target samples below 1e-9 in magnitude")
    return np.sqrt(errors / target)


def nrmse(g: np.ndarray, h: np.ndarray, mode: NrmseMode = NrmseMode.GLOBAL) -> float:
    """Normalized root-mean-square error between target ``g`` and output ``h``.

    GLOBAL normalizes the summed squared error by the summed squared target,
    which stays finite for sign-changing targets. PAPER_LITERAL normalizes
    each sample by its own target value, skipping samples with ``|g| < 1e-9``
    and shrinking the sample count accordingly; it is only meaningful for
    targets bounded away from zero.
    """
    g = np.asarray(g, dtype=float)
    h = np.array(h, dtype=float)  # a copy: nrmse_sums overwrites it
    if g.shape != h.shape or g.ndim != 1 or g.size < 1:
        raise ValueError(f"need equal-length 1-D sequences, got {g.shape} and {h.shape}")
    mode = NrmseMode(mode)
    errors, target = nrmse_sums(g, h[None], mode)
    return float(nrmse_from_sums(errors, target, mode)[0])

