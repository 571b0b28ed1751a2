"""Time-shift matrix construction and column selection."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftrc.cli import _selection_json
from shiftrc.linalg import qr_column_pivot
from shiftrc.shifts import (
    build_shifted_matrix,
    column_labels,
    random_select,
    reduce_columns,
    rrqr_select,
)

from oracles import covariance_rank, row_dominance_excess


@pytest.fixture(scope="module")
def random_states(rng=np.random.default_rng(77)):
    return rng.normal(size=(300, 10))


class TestBuild:
    def test_paper_scale_shape(self, random_states):
        big = np.random.default_rng(1).normal(size=(8000, 10))
        shifted = build_shifted_matrix(big, 10)
        assert shifted.shape == (7990, 110)

    def test_zero_shift_is_identity(self, random_states):
        shifted = build_shifted_matrix(random_states, 0)
        np.testing.assert_array_equal(shifted, random_states)
        assert column_labels(range(10), 10) == [[node, 0] for node in range(10)]

    def test_single_node_lag_construction(self):
        shifted = build_shifted_matrix(np.array([[1.0], [2.0], [3.0], [4.0]]), 1)
        np.testing.assert_array_equal(shifted, [[2.0, 1.0], [3.0, 2.0], [4.0, 3.0]])
        assert column_labels(np.arange(2), 1) == [[0, 0], [0, 1]]

    def test_column_definition_invariant(self, random_states):
        shifted = build_shifted_matrix(random_states, 4)
        t_out = random_states.shape[0] - 4
        for col in range(shifted.shape[1]):
            shift, node = divmod(col, 10)  # column shift * n_nodes + node
            np.testing.assert_array_equal(
                shifted[:, col],
                random_states[4 - shift : 4 - shift + t_out, node],
            )

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 6), st.integers(0, 12), st.integers(1, 30),
           st.integers(0, 2**32 - 1))
    def test_column_definition_property(self, m, tau_max, extra_rows, seed):
        source = np.random.default_rng(seed).normal(size=(tau_max + extra_rows, m))
        shifted = build_shifted_matrix(source, tau_max)
        assert shifted.shape == (extra_rows, m * (tau_max + 1))
        labels = column_labels(np.arange(shifted.shape[1]), m)
        assert sorted(labels) == [[n, s] for n in range(m) for s in range(tau_max + 1)]
        for col, (node, shift) in enumerate(labels):
            for t in range(extra_rows):
                assert shifted[t, col] == source[t + tau_max - shift, node]

    def test_writes_into_out_and_nothing_else(self, random_states):
        fresh = build_shifted_matrix(random_states, 4)
        n = fresh.shape[1]
        buffer = np.full((fresh.shape[0], n + 2), 7.0)
        got = build_shifted_matrix(random_states, 4, out=buffer[:, :n])
        assert np.shares_memory(got, buffer)
        assert np.array_equal(buffer[:, :n], fresh)
        assert np.all(buffer[:, n:] == 7.0)

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="rows"):
            build_shifted_matrix(np.zeros((3, 1)), 3)


class TestRRQRSelect:
    def test_full_width_keeps_everything(self, oeo_shifted):
        order, r_diag = rrqr_select(oeo_shifted)
        assert sorted(order) == list(range(oeo_shifted.shape[1]))
        tall = qr_column_pivot(oeo_shifted)
        np.testing.assert_array_equal(order, tall.perm)
        assert len(r_diag) == oeo_shifted.shape[1]

    def test_duplicate_column_pivots_last(self):
        rng = np.random.default_rng(8)
        vals = rng.normal(size=(100, 4))
        vals[:, 2] = vals[:, 0]
        shifted = build_shifted_matrix(vals, 0)
        kept = rrqr_select(shifted)[0][:3]
        assert sum(col in kept for col in (0, 2)) == 1

    def test_rank_preserving(self, oeo_shifted):
        full_rank = covariance_rank(oeo_shifted, 1e-10)
        reduced = reduce_columns(oeo_shifted, rrqr_select(oeo_shifted)[0][:30])
        assert covariance_rank(reduced, 1e-10) == min(30, full_rank)

    def test_row_dominance_excess_is_measured_not_logged(self, caplog):
        # columns 1 and 2 are equal and tie in exact arithmetic; LAPACK's
        # rounding leaves |R_02| one ulp above |R_00|. The matrix is upper
        # triangular, so the LAPACK triangle that the ranking pivots is the
        # matrix itself.
        values = np.array([[2.0, 4.0, 4.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]]) / 4.0
        assert np.array_equal(np.linalg.qr(values, mode="r"), values)
        with caplog.at_level(logging.DEBUG):
            rrqr_select(values)
        assert not caplog.records
        assert row_dominance_excess(qr_column_pivot(values)) == 2.0**-52
        dominant = np.array([[4.0, 1.0, 2.0], [0.0, 3.0, 1.0], [0.0, 0.0, 1.0]])
        assert row_dominance_excess(qr_column_pivot(dominant)) == 0.0


class TestRandomSelect:
    def test_full_width_any_seed(self, oeo_shifted):
        c = oeo_shifted.shape[1]
        assert sorted(random_select(c, c, seed=123)) == list(range(c))

    def test_deterministic(self, oeo_shifted):
        c = oeo_shifted.shape[1]
        np.testing.assert_array_equal(random_select(c, 7, seed=55),
                                      random_select(c, 7, seed=55))

    def test_uniform_frequency(self, random_states):
        c = build_shifted_matrix(random_states, 10).shape[1]
        counts = np.zeros(c)
        draws = 10_000
        for i in range(draws):
            counts[random_select(c, 1, seed=i)[0]] += 1
        p = 1.0 / c
        sigma = np.sqrt(p * (1.0 - p) / draws)
        assert np.max(np.abs(counts / draws - p)) <= 3.0 * sigma


class TestReduce:
    def test_identity_order(self, oeo_shifted):
        reduced = reduce_columns(oeo_shifted, np.arange(oeo_shifted.shape[1]))
        np.testing.assert_array_equal(reduced, oeo_shifted)

    def test_single_column_projection(self, oeo_shifted):
        col = 7 * 10 + 4  # node 4 at shift 7 of the 10-node fixture
        assert column_labels([col], 10) == [[4, 7]]
        reduced = reduce_columns(oeo_shifted, [col])
        np.testing.assert_array_equal(reduced[:, 0], oeo_shifted[:, col])

    def test_cross_split_alignment(self, random_states):
        # the same selection applied to two different shifted matrices takes
        # the same columns of each, in the same order
        other = np.random.default_rng(12).normal(size=(200, 10))
        train = build_shifted_matrix(random_states, 5)
        test = build_shifted_matrix(other, 5)
        kept = rrqr_select(train)[0][:12]
        np.testing.assert_array_equal(reduce_columns(train, kept), train[:, kept])
        np.testing.assert_array_equal(reduce_columns(test, kept), test[:, kept])


class TestProperties:
    def test_full_width_selections_are_permutations(self, oeo_shifted):
        c = oeo_shifted.shape[1]
        rrqr, rand = rrqr_select(oeo_shifted)[0], random_select(c, c, seed=4)
        by_rrqr = reduce_columns(oeo_shifted, rrqr)
        by_random = reduce_columns(oeo_shifted, rand)
        order = [list(rand).index(j) for j in rrqr]
        np.testing.assert_array_equal(by_rrqr, by_random[:, order])

    def test_rrqr_rank_dominates_random(self, oeo_shifted):
        m_red, c = 20, oeo_shifted.shape[1]
        rr = covariance_rank(
            reduce_columns(oeo_shifted, rrqr_select(oeo_shifted)[0][:m_red]), 1e-10
        )
        wins = sum(
            rr >= covariance_rank(
                reduce_columns(oeo_shifted, random_select(c, m_red, seed=i)),
                1e-10,
            )
            for i in range(50)
        )
        assert wins >= 45


def test_selection_json_roundtrip(random_states):
    import json

    shifted = build_shifted_matrix(random_states, 3)
    order, r_diag = rrqr_select(shifted)
    loaded = json.loads(_selection_json(order[:5], r_diag, 10))
    assert loaded["method"] == "rrqr"
    assert loaded["m_red"] == 5
    assert loaded["retained"] == column_labels(order[:5], 10)
    assert [n + s * 10 for n, s in loaded["retained"]] == list(order[:5])
    assert loaded["r_diag"] == list(r_diag)
    assert len(loaded["r_diag"]) == shifted.shape[1]
