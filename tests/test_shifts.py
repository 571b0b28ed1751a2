"""Time-shift matrix construction and column selection."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftrc.cli import _write_selection
from shiftrc.linalg import covariance_rank, qr_column_pivot
from shiftrc.shifts import (
    SelectionResult,
    build_shifted_matrix,
    random_select,
    reduce_columns,
    rrqr_select,
)


@pytest.fixture(scope="module")
def random_states(rng=np.random.default_rng(77)):
    return rng.normal(size=(300, 10))


class TestBuild:
    def test_paper_scale_shape(self, random_states):
        big = np.random.default_rng(1).normal(size=(8000, 10))
        shifted = build_shifted_matrix(big, 10)
        assert shifted.values.shape == (7990, 110)
        assert shifted.n_columns == 110 and shifted.n_nodes == 10

    def test_zero_shift_is_identity(self, random_states):
        shifted = build_shifted_matrix(random_states, 0)
        np.testing.assert_array_equal(shifted.values, random_states)
        assert shifted.n_nodes == 10

    def test_single_node_lag_construction(self):
        shifted = build_shifted_matrix(np.array([[1.0], [2.0], [3.0], [4.0]]), 1)
        np.testing.assert_array_equal(shifted.values, [[2.0, 1.0], [3.0, 2.0], [4.0, 3.0]])
        assert SelectionResult(np.arange(2), shifted.n_nodes).retained == [(0, 0), (0, 1)]

    def test_column_definition_invariant(self, random_states):
        shifted = build_shifted_matrix(random_states, 4)
        t_out = random_states.shape[0] - 4
        for col in range(shifted.n_columns):
            shift, node = divmod(col, 10)  # column shift * n_nodes + node
            np.testing.assert_array_equal(
                shifted.values[:, col],
                random_states[4 - shift : 4 - shift + t_out, node],
            )

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 6), st.integers(0, 12), st.integers(1, 30),
           st.integers(0, 2**32 - 1))
    def test_column_definition_property(self, m, tau_max, extra_rows, seed):
        source = np.random.default_rng(seed).normal(size=(tau_max + extra_rows, m))
        shifted = build_shifted_matrix(source, tau_max)
        assert shifted.values.shape == (extra_rows, m * (tau_max + 1))
        labels = SelectionResult(np.arange(shifted.n_columns), m).retained
        assert sorted(labels) == [(n, s) for n in range(m) for s in range(tau_max + 1)]
        for col, (node, shift) in enumerate(labels):
            for t in range(extra_rows):
                assert shifted.values[t, col] == source[t + tau_max - shift, node]

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="rows"):
            build_shifted_matrix(np.zeros((3, 1)), 3)


class TestRRQRSelect:
    def test_full_width_keeps_everything(self, oeo_shifted):
        sel = rrqr_select(oeo_shifted, oeo_shifted.n_columns)
        assert sorted(sel.columns) == list(range(oeo_shifted.n_columns))
        tall = qr_column_pivot(oeo_shifted.values)
        np.testing.assert_array_equal(sel.columns, tall.perm)
        assert len(sel.r_diag) == oeo_shifted.n_columns

    def test_duplicate_column_pivots_last(self):
        rng = np.random.default_rng(8)
        vals = rng.normal(size=(100, 4))
        vals[:, 2] = vals[:, 0]
        shifted = build_shifted_matrix(vals, 0)
        sel = rrqr_select(shifted, 3)
        assert sum(col in sel.columns for col in (0, 2)) == 1

    def test_rank_preserving(self, oeo_shifted):
        full_rank = covariance_rank(oeo_shifted.values, 1e-10)
        sel = rrqr_select(oeo_shifted, 30)
        reduced = reduce_columns(oeo_shifted, sel)
        assert covariance_rank(reduced, 1e-10) == min(30, full_rank)

    def test_row_dominance_warned_by_ranking_only(self, caplog):
        # columns 1 and 2 are equal and tie in exact arithmetic; LAPACK's
        # rounding leaves |R_02| one ulp above |R_00|. The matrix is upper
        # triangular, so the LAPACK triangle that the ranking pivots is the
        # matrix itself.
        values = np.array([[2.0, 4.0, 4.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]]) / 4.0
        assert np.array_equal(np.linalg.qr(values, mode="r"), values)
        shifted = build_shifted_matrix(values, 0)
        with caplog.at_level(logging.WARNING, logger="shiftrc.linalg"):
            qr_column_pivot(values)
            assert not caplog.records
            rrqr_select(shifted, 1)
        assert len(caplog.records) == 1
        assert "row-dominance" in caplog.records[0].getMessage()

    def test_m_red_bounds(self, oeo_shifted):
        with pytest.raises(ValueError):
            rrqr_select(oeo_shifted, 0)
        with pytest.raises(ValueError):
            rrqr_select(oeo_shifted, oeo_shifted.n_columns + 1)


class TestRandomSelect:
    def test_full_width_any_seed(self, oeo_shifted):
        sel = random_select(oeo_shifted, oeo_shifted.n_columns, seed=123)
        assert sorted(sel.columns) == list(range(oeo_shifted.n_columns))
        assert sel.r_diag is None  # only a ranking has a pivot spectrum

    def test_deterministic(self, oeo_shifted):
        a = random_select(oeo_shifted, 7, seed=55)
        b = random_select(oeo_shifted, 7, seed=55)
        np.testing.assert_array_equal(a.columns, b.columns)

    def test_uniform_frequency(self, random_states):
        shifted = build_shifted_matrix(random_states, 10)
        c = shifted.n_columns
        counts = np.zeros(c)
        draws = 10_000
        for i in range(draws):
            counts[random_select(shifted, 1, seed=i).columns[0]] += 1
        p = 1.0 / c
        sigma = np.sqrt(p * (1.0 - p) / draws)
        assert np.max(np.abs(counts / draws - p)) <= 3.0 * sigma


class TestReduce:
    def test_identity_order(self, oeo_shifted):
        everything = SelectionResult(np.arange(oeo_shifted.n_columns), oeo_shifted.n_nodes)
        reduced = reduce_columns(oeo_shifted, everything)
        np.testing.assert_array_equal(reduced, oeo_shifted.values)

    def test_single_column_projection(self, oeo_shifted):
        col = 7 * oeo_shifted.n_nodes + 4  # node 4 at shift 7
        sel = SelectionResult(np.array([col]), oeo_shifted.n_nodes)
        assert sel.retained == [(4, 7)]
        reduced = reduce_columns(oeo_shifted, sel)
        np.testing.assert_array_equal(reduced[:, 0], oeo_shifted.values[:, col])

    def test_cross_split_alignment(self, random_states):
        # the same selection applied to two different shifted matrices takes
        # the same columns of each, in the same order
        other = np.random.default_rng(12).normal(size=(200, 10))
        train = build_shifted_matrix(random_states, 5)
        test = build_shifted_matrix(other, 5)
        sel = rrqr_select(train, 12)
        np.testing.assert_array_equal(reduce_columns(train, sel), train.values[:, sel.columns])
        np.testing.assert_array_equal(reduce_columns(test, sel), test.values[:, sel.columns])


class TestProperties:
    def test_full_width_selections_are_permutations(self, oeo_shifted):
        c = oeo_shifted.n_columns
        rrqr, rand = rrqr_select(oeo_shifted, c), random_select(oeo_shifted, c, seed=4)
        by_rrqr = reduce_columns(oeo_shifted, rrqr)
        by_random = reduce_columns(oeo_shifted, rand)
        order = [list(rand.columns).index(j) for j in rrqr.columns]
        np.testing.assert_array_equal(by_rrqr, by_random[:, order])

    def test_rrqr_rank_dominates_random(self, oeo_shifted):
        m_red = 20
        rr = covariance_rank(
            reduce_columns(oeo_shifted, rrqr_select(oeo_shifted, m_red)), 1e-10
        )
        wins = sum(
            rr >= covariance_rank(
                reduce_columns(oeo_shifted, random_select(oeo_shifted, m_red, seed=i)),
                1e-10,
            )
            for i in range(50)
        )
        assert wins >= 45

    def test_selection_result_rejects_duplicates(self):
        with pytest.raises(ValueError, match="distinct"):
            SelectionResult(columns=np.array([0, 0]), n_nodes=1)


def test_selection_json_roundtrip(tmp_path, random_states):
    import json

    shifted = build_shifted_matrix(random_states, 3)
    sel = rrqr_select(shifted, 5)
    path = tmp_path / "selection.json"
    _write_selection(path, sel)
    loaded = json.loads(path.read_text())
    assert loaded["method"] == "rrqr"
    assert loaded["m_red"] == 5
    assert [tuple(p) for p in loaded["retained"]] == sel.retained
    assert [n + s * 10 for n, s in loaded["retained"]] == list(sel.columns)
    assert loaded["r_diag"] == list(sel.r_diag)
    assert len(loaded["r_diag"]) == shifted.n_columns
