"""Pivoted QR kernel, rank estimation, ridge readout and error metric."""

import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack, lstsq

from shiftrc import linalg
from shiftrc.cli import _r_diag_csv
from shiftrc.errors import DegenerateTargetError, SingularMatrixError
from shiftrc.linalg import (
    NrmseMode,
    estimate_rank,
    nrmse,
    nrmse_sums,
    predict,
    qr_column_pivot,
    ridge_fit,
    ridge_solve,
    tsqr,
)

from conftest import traced_peak
from oracles import covariance_rank, r22_bound_check


def jacobi_gram_eigenvalues(b, sweeps=100, tol=1e-14):
    """Eigenvalues of B^T B by classical Jacobi rotations.

    Independent of any QR/SVD routine: rotates away the largest off-diagonal
    element until convergence. Returns the squared singular values of B,
    descending.
    """
    g = b.T @ b
    n = g.shape[0]
    for _ in range(sweeps * n * n):
        off = np.abs(g - np.diag(np.diag(g)))
        p, q = np.unravel_index(np.argmax(off), off.shape)
        if off[p, q] < tol * np.max(np.abs(np.diag(g))):
            break
        theta = 0.5 * np.arctan2(2.0 * g[p, q], g[q, q] - g[p, p])
        c, s = np.cos(theta), np.sin(theta)
        rot = np.eye(n)
        rot[p, p] = c
        rot[q, q] = c
        rot[p, q] = s
        rot[q, p] = -s
        g = rot.T @ g @ rot
    return np.sort(np.diag(g))[::-1]


def apply_qt(qr, b, y):
    """``Q.T @ y`` for a length-T vector or ``(T, n)`` matrix, applying the
    Householder reflectors of ``b[:, qr.perm] = Q R`` one by one.

    The kernel keeps only R, so the reflectors come from a ``dgeqp3`` call
    of the tests' own, whose permutation and R must equal the kernel's
    bitwise."""
    factor, jpvt, taus, _, _ = lapack.dgeqp3(np.asarray(b, dtype=float))
    t, m = factor.shape
    np.testing.assert_array_equal(jpvt - 1, qr.perm)
    np.testing.assert_array_equal(np.triu(factor[:m]), qr.r)
    out = np.array(y, dtype=float)
    if out.shape[0] != t:
        raise ValueError(f"expected leading dimension {t}, got {out.shape[0]}")
    for k in range(m):
        tau = taus[k]
        if tau == 0.0:
            continue
        tail = factor[k + 1 :, k]
        s = out[k] + tail @ out[k + 1 :]
        out[k] -= tau * s
        if tail.size:
            out[k + 1 :] -= np.multiply.outer(tail, tau * s)
    return out


def full_q(qr, b):
    """The orthogonal factor Q, T x T, as the transpose of ``Q.T @ I``."""
    return apply_qt(qr, b, np.eye(b.shape[0])).T


def thin_q(qr, b):
    """The first M columns of Q (the economy factor)."""
    return full_q(qr, b)[:, : b.shape[1]]


def reconstruct(qr, b):
    """``Q @ R``, i.e. the factored matrix ``b`` with permuted columns."""
    return thin_q(qr, b) @ qr.r


def assert_greedy(b, qr, steps=None):
    """Check the rule the pivot order is defined by, independently of the
    kernel: at every step k, no column outside ``perm[:k]`` has a residual
    norm above ``|R_kk| (1 + 1e-12)`` once ``b[:, perm[:k]]`` is projected
    out. Those residual norms are ``||R'[k:, j]||`` for j >= k, with R' the
    unpivoted ``np.linalg.qr`` triangle of ``b[:, perm]``."""
    r = np.linalg.qr(b[:, qr.perm], mode="r")
    for k in range(b.shape[1] if steps is None else steps):
        residual = np.max(np.linalg.norm(r[k:, k:], axis=0))
        assert residual <= qr.r_diag[k] * (1.0 + 1e-12), f"step {k}"


def gram_schmidt_lstsq(x, g):
    """Least squares by modified Gram-Schmidt, independent of the QR kernel."""
    x = np.asarray(x, dtype=float)
    t, k = x.shape
    q = np.zeros((t, k))
    r = np.zeros((k, k))
    for j in range(k):
        v = x[:, j].copy()
        for i in range(j):
            r[i, j] = q[:, i] @ v
            v -= r[i, j] * q[:, i]
        r[j, j] = np.linalg.norm(v)
        q[:, j] = v / r[j, j]
    y = q.T @ g
    w = np.zeros(k)
    for j in reversed(range(k)):
        w[j] = (y[j] - r[j, j + 1 :] @ w[j + 1 :]) / r[j, j]
    return w


class TestPivotedQR:
    def test_identity_columns(self):
        qr = qr_column_pivot(np.eye(3))
        assert sorted(qr.perm.tolist()) == [0, 1, 2]
        np.testing.assert_allclose(qr.r_diag, 1.0)
        np.testing.assert_allclose(reconstruct(qr, np.eye(3)), np.eye(3)[:, qr.perm],
                                   atol=1e-14)

    def test_two_column_hand_case(self):
        # Column 0 has norm 2 > 1, so it pivots first; column 1 is parallel,
        # leaving a zero second diagonal.
        b = np.array([[2.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        qr = qr_column_pivot(b)
        assert qr.perm[0] == 0
        np.testing.assert_allclose(qr.r_diag, [2.0, 0.0], atol=1e-15)

    def test_random_reconstruction_and_orthogonality(self, rng):
        b = rng.normal(size=(200, 50))
        qr = qr_column_pivot(b)
        q = thin_q(qr, b)
        rel = np.linalg.norm(b[:, qr.perm] - q @ qr.r) / np.linalg.norm(b)
        assert rel <= 1e-12
        assert np.max(np.abs(q.T @ q - np.eye(50))) <= 1e-12
        assert np.all(np.diff(qr.r_diag) <= 1e-14)

    def test_greedy_on_random_full_rank(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            b = rng.normal(size=(60, 25)) * rng.uniform(0.01, 10.0, size=25)
            assert_greedy(b, qr_column_pivot(b))

    def test_greedy_on_constructed_rank(self):
        # past the rank every residual is rounding noise, so only the steps
        # up to the rank carry a greedy choice
        rng = np.random.default_rng(42)
        for rank in (1, 5, 12):
            b = rng.normal(size=(60, rank)) @ rng.normal(size=(rank, 20))
            qr = qr_column_pivot(b)
            assert estimate_rank(qr) == rank
            assert_greedy(b, qr, steps=rank)

    def test_greedy_on_oeo_training_triangle(self, oeo_shifted):
        # the 110-column triangle that the ranking pivots
        tri = np.linalg.qr(oeo_shifted, mode="r")
        qr = qr_column_pivot(tri)
        assert tri.shape == (110, 110) and estimate_rank(qr) == 110
        assert_greedy(tri, qr)

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            qr_column_pivot(np.ones((3, 5)))

    def test_zero_matrix_valid(self):
        b = np.zeros((4, 3))
        qr = qr_column_pivot(b)
        np.testing.assert_array_equal(qr.r_diag, 0.0)
        np.testing.assert_allclose(reconstruct(qr, b), 0.0)

    def test_nonfinite_rejected(self):
        b = np.ones((4, 2))
        b[2, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            qr_column_pivot(b)

    def test_apply_qt_inverts_apply_q(self, rng):
        b = rng.normal(size=(30, 8))
        qr = qr_column_pivot(b)
        y = rng.normal(size=30)
        np.testing.assert_allclose(apply_qt(qr, b, full_q(qr, b) @ y), y, atol=1e-12)


class TestEstimateRank:
    def test_identity_full_rank(self):
        qr = qr_column_pivot(np.eye(6))
        for tol in (1e-14, 1e-10, 0.5):
            assert estimate_rank(qr, tol) == 6

    def test_rank_one_outer_product(self, rng):
        b = np.outer(rng.normal(size=50), rng.normal(size=10))
        assert estimate_rank(qr_column_pivot(b), 1e-10) == 1
        # independent oracle: Jacobi eigenvalues of the Gram matrix, counted
        # at the same relative tolerance on squared singular values
        eig = jacobi_gram_eigenvalues(b)
        assert np.count_nonzero(eig > 1e-10 * eig[0]) == 1

    def test_constructed_rank_seven(self, rng):
        b = rng.normal(size=(100, 7)) @ rng.normal(size=(7, 20))
        assert estimate_rank(qr_column_pivot(b), 1e-10) == 7

    def test_zero_matrix_rank_zero(self):
        assert estimate_rank(qr_column_pivot(np.zeros((4, 3))), 1e-10) == 0

    def test_tolerance_range_checked(self):
        qr = qr_column_pivot(np.eye(3))
        with pytest.raises(ValueError):
            estimate_rank(qr, 0.0)
        with pytest.raises(ValueError):
            estimate_rank(qr, 1.0)


class TestR22Bound:
    def test_full_block_equals_spectral_norm(self, rng):
        b = rng.normal(size=(20, 6))
        qr = qr_column_pivot(b)
        sigma, r22 = r22_bound_check(qr, 6)
        assert sigma == pytest.approx(np.linalg.norm(b, 2), rel=1e-12)
        assert r22 == pytest.approx(np.linalg.norm(b, 2), rel=1e-12)

    def test_bound_holds_all_ell(self, rng):
        b = rng.normal(size=(40, 10))
        qr = qr_column_pivot(b)
        sv = np.linalg.svd(b, compute_uv=False)
        for ell in range(1, 11):
            sigma, r22 = r22_bound_check(qr, ell)
            assert sigma == pytest.approx(sv[10 - ell], abs=1e-10)
            assert sigma <= r22 + 1e-10

    def test_constructed_rank_three(self, rng):
        b = rng.normal(size=(40, 3)) @ rng.normal(size=(3, 10))
        qr = qr_column_pivot(b)
        sigma, r22 = r22_bound_check(qr, 7)
        assert sigma <= 1e-10
        assert r22 <= 1e-8 * np.linalg.norm(b, 2)

    def test_ell_out_of_range(self, rng):
        qr = qr_column_pivot(rng.normal(size=(5, 3)))
        with pytest.raises(IndexError):
            r22_bound_check(qr, 0)
        with pytest.raises(IndexError):
            r22_bound_check(qr, 4)


class TestCovarianceRank:
    def test_orthogonal_columns_full_rank(self):
        q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(40, 8)))
        assert covariance_rank(q, 1e-10) == 8

    def test_duplicated_column_drops_rank(self, rng):
        b = rng.normal(size=(40, 8))
        b[:, 5] = b[:, 2]
        assert covariance_rank(b, 1e-10) == 7

    def test_zero_matrix(self):
        assert covariance_rank(np.zeros((5, 3))) == 0


class TestRidge:
    def test_mean_as_least_squares(self):
        ro = ridge_fit(np.ones((4, 1)), np.array([1.0, 2.0, 3.0, 4.0]), 0.0)
        np.testing.assert_allclose(ro.w, [2.5], atol=1e-14)

    def test_consistent_system_recovered(self, rng):
        x = rng.normal(size=(25, 6))
        w0 = rng.normal(size=6)
        ro = ridge_fit(x, x @ w0, 0.0)
        np.testing.assert_allclose(ro.w, w0, atol=1e-10)

    def test_scalar_closed_form(self, rng):
        for _ in range(50):
            x, g = rng.normal(size=2)
            lam = float(rng.uniform(0.0, 2.0))
            ro = ridge_fit(np.array([[x]]), np.array([g]), lam)
            assert ro.w[0] == pytest.approx(x * g / (x * x + lam), rel=1e-13)

    def test_rank_deficient_lambda_zero_raises(self, rng):
        x = rng.normal(size=(20, 3))
        x = np.column_stack([x, x[:, 0] + x[:, 1]])
        with pytest.raises(SingularMatrixError) as exc:
            ridge_fit(x, rng.normal(size=20), 0.0)
        assert exc.value.estimated_rank == 3

    def test_matches_gram_schmidt_oracle(self, rng):
        for _ in range(10):
            x = rng.normal(size=(30, 8))
            g = rng.normal(size=30)
            ro = ridge_fit(x, g, 0.0)
            w_oracle = gram_schmidt_lstsq(x, g)
            np.testing.assert_allclose(ro.w, w_oracle, rtol=1e-10, atol=1e-12)

    def test_shrinkage_monotone(self, rng):
        x = rng.normal(size=(40, 6))
        g = rng.normal(size=40)
        norms = [
            np.linalg.norm(ridge_fit(x, g, lam).w)
            for lam in (0.0, 1e-4, 1e-2, 1.0, 100.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_bias_column(self, rng):
        x = rng.normal(size=(50, 2))
        g = 3.0 * x[:, 0] - x[:, 1] + 7.0
        ro = ridge_fit(x, g, 0.0, include_bias=True)
        np.testing.assert_allclose(ro.w, [3.0, -1.0, 7.0], atol=1e-10)
        np.testing.assert_allclose(predict(x, ro), g, atol=1e-10)


def stacked_lstsq(x, g, ridge_lambda):
    """Ridge weights by SVD least squares (LAPACK gelsd) on the stacked
    system ``[x; sqrt(lambda) I]`` against ``[g; 0]``."""
    k = x.shape[1]
    a = np.vstack([x, np.sqrt(ridge_lambda) * np.eye(k)])
    b = np.concatenate([g, np.zeros((k,) + g.shape[1:])])
    return lstsq(a, b, lapack_driver="gelsd")[0]


class TestRidgeSolve:
    @pytest.mark.parametrize("ridge_lambda", [0.0, 1e-6, 1.0])
    def test_batch_of_prefixes_and_targets_matches_gelsd(self, rng, ridge_lambda):
        x = rng.normal(size=(3, 12, 7))
        g = rng.normal(size=(3, 12, 2))
        sizes = (2, 5, 7)
        w = ridge_solve(x, g, ridge_lambda, sizes)
        assert w.shape == (3, 3, 7, 2)
        for i in range(3):
            for j, p in enumerate(sizes):
                want = stacked_lstsq(x[i, :, :p], g[i], ridge_lambda)
                np.testing.assert_allclose(w[i, j, :p], want, rtol=1e-12, atol=1e-14)
                assert not np.any(w[i, j, p:])

    def test_prefixes_equal_direct_fits(self, rng):
        # one factorization of the whole design against one per prefix
        x = rng.normal(size=(1, 40, 25))
        g = rng.normal(size=(1, 40, 1))
        sizes = range(1, 26)
        w = ridge_solve(x, g, 1e-6, sizes)
        for j, p in enumerate(sizes):
            direct = ridge_solve(x[:, :, :p], g, 1e-6)[0, 0]
            np.testing.assert_allclose(w[0, j, :p], direct, rtol=1e-12, atol=0.0)

    def test_rank_deficient_prefix_names_its_rank(self, rng):
        x = rng.normal(size=(2, 20, 4))
        x[1, :, 3] = x[1, :, 0] + x[1, :, 1]  # only the last prefix of member 1
        g = rng.normal(size=(2, 20, 1))
        ridge_solve(x, g, 0.0, (1, 2, 3))
        with pytest.raises(SingularMatrixError) as info:
            ridge_solve(x, g, 0.0, (1, 2, 3, 4))
        assert (info.value.estimated_rank, info.value.n_cols) == (3, 4)

    @pytest.mark.parametrize("sizes", [None, (2, 4, 6)])
    def test_slices_equal_members_solved_alone(self, rng, monkeypatch, sizes):
        # 7 members, 3 to a slice: slices of 3, 3 and 1 give every member's
        # weights bit for bit as its own fit and as one factorization of all 7
        x = rng.normal(size=(7, 30, 6))
        g = rng.normal(size=(7, 30, 2))
        alone = np.concatenate([ridge_solve(x[i : i + 1], g[i : i + 1], 1e-6, sizes)
                                for i in range(7)])
        whole = ridge_solve(x, g, 1e-6, sizes)
        monkeypatch.setattr(linalg, "RIDGE_SLICE_BYTES", 3 * (30 + 6) * (6 + 2) * 8)
        sliced = ridge_solve(x, g, 1e-6, sizes)
        assert np.array_equal(sliced, alone)
        assert np.array_equal(sliced, whole)

    def test_rank_deficient_member_in_a_later_slice(self, rng, monkeypatch):
        monkeypatch.setattr(linalg, "RIDGE_SLICE_BYTES", 1)  # one member per slice
        x = rng.normal(size=(3, 20, 4))
        x[2, :, 3] = x[2, :, 0] + x[2, :, 1]
        g = rng.normal(size=(3, 20, 1))
        ridge_solve(x[:2], g[:2], 0.0)
        with pytest.raises(SingularMatrixError) as info:
            ridge_solve(x, g, 0.0)
        assert (info.value.estimated_rank, info.value.n_cols) == (3, 4)

    def test_batch_holds_a_slice_not_the_stack(self, rng):
        # tracemalloc counts numpy's buffers: the stacked systems of 20
        # members take 10 times the slice budget, and a fit holds about two
        # slices of them (one system and its QR copy) at a time
        b, rows, k = 20, 560, 100
        stack_bytes = b * (rows + k) * (k + 1) * 8
        assert stack_bytes >= 8 * linalg.RIDGE_SLICE_BYTES
        x, g = rng.normal(size=(b, rows, k)), rng.normal(size=(b, rows, 1))
        assert traced_peak(ridge_solve, x, g, 1e-6) < stack_bytes / 4

    def test_shape_and_input_checks(self, rng):
        with pytest.raises(ValueError, match="designs"):
            ridge_solve(rng.normal(size=(5, 2)), rng.normal(size=(5, 1)), 1.0)
        with pytest.raises(ValueError, match="designs"):
            ridge_solve(rng.normal(size=(1, 5, 2)), rng.normal(size=(1, 4, 1)), 1.0)
        with pytest.raises(ValueError, match=">= 0"):
            ridge_solve(rng.normal(size=(1, 5, 2)), rng.normal(size=(1, 5, 1)), -1.0)
        x = rng.normal(size=(1, 5, 2))
        x[0, 3, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            ridge_solve(x, rng.normal(size=(1, 5, 1)), 1.0)


class TestTsqr:
    def test_matches_one_qr_up_to_row_signs(self, rng):
        # a batch of 3 matrices in blocks of 9, 2 (shorter than k), 7, 1 and
        # 11 rows: every merge depth, and a factor left over at the end
        a = rng.normal(size=(3, 30, 6))
        edges = np.cumsum([0, 9, 2, 7, 1, 11])
        got = tsqr(a[:, lo:hi] for lo, hi in zip(edges[:-1], edges[1:]))
        want = np.linalg.qr(a, mode="r")
        assert got.shape == want.shape == (3, 6, 6)
        signs = np.sign(np.diagonal(want, axis1=1, axis2=2) * np.diagonal(got, axis1=1, axis2=2))
        np.testing.assert_allclose(signs[..., None] * got, want, rtol=0.0, atol=1e-13)

    def test_fewer_rows_than_columns_give_a_trapezoid(self, rng):
        a = rng.normal(size=(4, 6))
        got = tsqr([a[:1], a[1:]])
        assert got.shape == (4, 6)
        np.testing.assert_allclose(got.T @ got, a.T @ a, rtol=0.0, atol=1e-13)

    def test_no_blocks_rejected(self):
        with pytest.raises(ValueError, match="row block"):
            tsqr(iter([]))

    def test_each_block_is_released_before_the_next_is_pulled(self, rng):
        # a streamed caller holds one block at a time only if tsqr lets go
        # of each block once it is factored
        a = rng.normal(size=(40, 5))
        previous = None

        def blocks():
            nonlocal previous
            for lo in range(0, 40, 8):
                assert previous is None or previous() is None, "previous block still held"
                block = a[lo : lo + 8].copy()
                previous = weakref.ref(block)
                yield block
                del block

        got = tsqr(blocks())
        np.testing.assert_allclose(got.T @ got, a.T @ a, rtol=0.0, atol=1e-12)


class TestPredict:
    def test_zero_weights(self, rng):
        from shiftrc.linalg import Readout

        x = rng.normal(size=(10, 4))
        out = predict(x, Readout(w=np.zeros(4), ridge_lambda=0.0))
        np.testing.assert_array_equal(out, 0.0)

    def test_identity_design(self):
        from shiftrc.linalg import Readout

        g = np.array([3.0, -1.0, 2.0])
        out = predict(np.eye(3), Readout(w=g, ridge_lambda=0.0))
        np.testing.assert_array_equal(out, g)

    def test_projection_property(self, rng):
        x = rng.normal(size=(30, 5))
        g = x @ rng.normal(size=5)
        ro = ridge_fit(x, g, 0.0)
        np.testing.assert_allclose(predict(x, ro), g, atol=1e-10)

    def test_shape_mismatch(self, rng):
        from shiftrc.linalg import Readout

        with pytest.raises(ValueError, match="columns"):
            predict(rng.normal(size=(5, 3)), Readout(w=np.zeros(4), ridge_lambda=0.0))


class TestNrmse:
    def test_perfect_fit_both_modes(self):
        g = np.array([1.0, -2.0, 3.0])
        assert nrmse(g, g) == 0.0
        assert nrmse(g, g, NrmseMode.PAPER_LITERAL) == 0.0

    def test_global_hand_value(self):
        assert nrmse([2.0, 2.0], [0.0, 0.0]) == pytest.approx(1.0, abs=1e-15)

    def test_literal_hand_value(self):
        got = nrmse([1.0, 2.0], [0.0, 2.0], NrmseMode.PAPER_LITERAL)
        assert got == pytest.approx(np.sqrt(0.5), abs=1e-15)

    def test_literal_skips_near_zero_targets(self):
        got = nrmse([1.0, 1e-12, 2.0], [0.0, 5.0, 2.0], NrmseMode.PAPER_LITERAL)
        assert got == pytest.approx(np.sqrt(0.5), abs=1e-15)

    def test_global_degenerate_target(self):
        with pytest.raises(DegenerateTargetError):
            nrmse([0.0, 0.0], [1.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            nrmse([1.0, 2.0], [1.0])

    @pytest.mark.parametrize("mode", list(NrmseMode))
    def test_output_left_unchanged(self, rng, mode):
        g, h = rng.normal(size=(2, 50))
        g[3] = 0.0  # skipped by PAPER_LITERAL
        before = h.copy()
        nrmse(g, h, mode)
        assert np.array_equal(h, before)

    def test_literal_sums_each_output_in_c_order(self, rng):
        # the kept errors of each output are summed as np.sum sums a
        # C-contiguous row, pairwise, not one after another down a
        # column-major copy of the kept samples
        g, h = rng.normal(size=1000), rng.normal(size=(5, 1000))
        g[::7] = 0.0  # skipped
        keep = np.abs(g) >= 1e-9
        relative = np.ascontiguousarray(((h[:, keep] - g[keep]) / g[keep]) ** 2)
        errors, count = nrmse_sums(g, h.copy(), NrmseMode.PAPER_LITERAL)
        assert count == np.count_nonzero(keep)
        assert errors.tobytes() == np.sum(relative, axis=-1).tobytes()

    def test_sums_overwrite_the_outputs_with_their_errors(self, rng):
        g, h = rng.normal(size=50), rng.normal(size=(3, 50))
        consumed = h.copy()
        errors, target = nrmse_sums(g, consumed, NrmseMode.GLOBAL)
        assert np.array_equal(consumed, (h - g) ** 2)
        assert np.array_equal(errors, np.sum((h - g) ** 2, axis=-1))
        assert target == float(np.sum(g * g))


sample_values = st.floats(-1e3, 1e3)
kept_targets = st.builds(
    lambda sign, exponent: sign * 10.0**exponent,
    st.sampled_from([-1.0, 1.0]), st.floats(-8.9, 3.0),
)
skipped_targets = st.floats(-1e-9, 1e-9, exclude_min=True, exclude_max=True)
derandomized = settings(max_examples=200, deadline=None, derandomize=True, database=None)


class TestNrmseProperties:
    @derandomized
    @given(st.lists(st.tuples(st.floats(-1.0, 1.0), sample_values), min_size=1, max_size=20),
           st.integers(-12, 1))
    def test_global_degenerate_exactly_below_energy_floor(self, pairs, exponent):
        g = np.array([p[0] for p in pairs]) * 10.0**exponent
        h = np.array([p[1] for p in pairs])
        if float(np.sum(g * g)) < 1e-18:
            with pytest.raises(DegenerateTargetError):
                nrmse(g, h)
        else:
            assert nrmse(g, g) == 0.0
            assert np.isfinite(nrmse(g, h))

    @derandomized
    @given(st.lists(st.tuples(sample_values, sample_values), min_size=1, max_size=20),
           st.floats(1e-6, 1e6), st.sampled_from([-1.0, 1.0]))
    def test_global_invariant_to_common_scale(self, pairs, magnitude, sign):
        g = np.array([p[0] for p in pairs])
        h = np.array([p[1] for p in pairs])
        assume(float(np.sum(g * g)) >= 1e-6)
        c = sign * magnitude
        assert nrmse(c * g, c * h) == pytest.approx(nrmse(g, h), rel=1e-12, abs=1e-12)

    @derandomized
    @given(st.lists(st.tuples(st.booleans(), kept_targets, skipped_targets, sample_values),
                    min_size=1, max_size=30))
    def test_literal_skips_small_targets_from_sum_and_count(self, samples):
        g = np.array([kept if keep else skipped for keep, kept, skipped, _ in samples])
        h = np.array([p[3] for p in samples])
        keep = np.array([p[0] for p in samples])
        if not keep.any():
            with pytest.raises(DegenerateTargetError):
                nrmse(g, h, NrmseMode.PAPER_LITERAL)
        else:
            assert nrmse(g, h, NrmseMode.PAPER_LITERAL) == nrmse(
                g[keep], h[keep], NrmseMode.PAPER_LITERAL)


def test_r_diag_csv(rng):
    qr = qr_column_pivot(rng.normal(size=(10, 4)))
    lines = _r_diag_csv(qr.r_diag).strip().split("\n")
    assert lines[0] == "k,r_kk_abs"
    assert len(lines) == 5
    assert [float(line.split(",")[1]) for line in lines[1:]] == list(qr.r_diag)
