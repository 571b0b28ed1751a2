"""Ordinal symbols, joint permutation entropy, node-target correlation."""

import itertools
import math
import re
from functools import partial

import numpy as np
import pytest

from shiftrc.analysis import (
    MAX_WINDOW,
    OrdinalCodes,
    joint_keys,
    key_dtype,
    node_target_correlation,
    reservoir_entropy,
)
from shiftrc.reservoir import make_tanh_config, run_tanh_reservoir

from oracles import ordinal_symbols


def lexicographic_code(ranks):
    """Independent oracle: position of the rank pattern in the sorted list
    of all permutations."""
    perms = sorted(itertools.permutations(range(len(ranks))))
    return perms.index(tuple(ranks))


class TestOrdinalSymbols:
    def test_reference_window_ordering(self):
        # (0.1, 0.3, -0.1, 0.2) ranks as 2,4,1,3 (1-based)
        codes = ordinal_symbols(np.array([0.1, 0.3, -0.1, 0.2]), window=4)
        assert codes.shape == (1,)
        assert codes[0] == lexicographic_code([1, 3, 0, 2])

    def test_increasing_window_is_identity(self):
        codes = ordinal_symbols(np.arange(10.0), window=4)
        np.testing.assert_array_equal(codes, 0)

    def test_constant_window_ties_resolve_to_identity(self):
        codes = ordinal_symbols(np.zeros(8), window=4)
        np.testing.assert_array_equal(codes, 0)

    def test_codes_in_range_and_bijective(self, rng):
        x = rng.normal(size=2000)
        codes = ordinal_symbols(x, window=4)
        assert codes.min() >= 0
        assert codes.max() < math.factorial(4)
        # with this much random data every pattern appears
        assert len(np.unique(codes)) == math.factorial(4)

    def test_matches_lexicographic_oracle(self, rng):
        x = rng.normal(size=200)
        codes = ordinal_symbols(x, window=4)
        for t in range(0, 197, 13):
            window = x[t : t + 4]
            ranks = np.empty(4, dtype=int)
            ranks[np.argsort(window, kind="stable")] = np.arange(4)
            assert codes[t] == lexicographic_code(ranks)

    @pytest.mark.parametrize("window", [2, 3, 4, 5, 6])
    def test_comparison_codes_match_oracle_with_ties(self, rng, window):
        # integer levels make ties frequent; columns are coded separately
        x = rng.integers(0, 3, size=(120, 3)).astype(float)
        codes = ordinal_symbols(x, window=window)
        assert codes.shape == (120 - window + 1, 3)
        assert codes.dtype == np.int64
        for t in range(codes.shape[0]):
            for j in range(3):
                ranks = np.empty(window, dtype=int)
                ranks[np.argsort(x[t : t + window, j], kind="stable")] = np.arange(window)
                assert codes[t, j] == lexicographic_code(ranks)

    def test_largest_window_codes_exactly(self):
        codes = ordinal_symbols(np.arange(30.0)[::-1], window=MAX_WINDOW)
        np.testing.assert_array_equal(codes, math.factorial(MAX_WINDOW) - 1)

    def test_window_above_limit_rejected(self):
        with pytest.raises(ValueError, match="window"):
            ordinal_symbols(np.arange(30.0)[::-1], window=MAX_WINDOW + 1)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="window"):
            ordinal_symbols(np.zeros(3), window=4)


class TestOrdinalCodes:
    @pytest.mark.parametrize("window", [2, 4, 6, 9, MAX_WINDOW])
    def test_any_split_into_pieces_gives_the_one_piece_codes(self, rng, window):
        # windows 2 and 4 hold their codes in 1 byte, 6 in 2, 9 in 4 and 20
        # in 8; the split has 1-row pieces, and pieces shorter than the
        # window - 1 rows carried over, in the middle of the stream
        x = np.round(rng.normal(size=(3, 300, 4)), 1)  # rounding makes ties
        sizes = [7, 1, 1, max(window - 2, 1), 1]
        while sum(sizes) < x.shape[1]:
            sizes.append(int(rng.integers(1, 3 * window)))
        whole = OrdinalCodes(3, 300, 4, window)
        whole.add(x)
        split = OrdinalCodes(3, 300, 4, window)
        for piece in np.split(x, np.cumsum(sizes)[:-1], axis=1):
            piece = piece.copy()
            split.add(piece)
            piece[...] = np.nan  # the coder keeps no view of a piece
        assert whole.codes.dtype == key_dtype(window)
        np.testing.assert_array_equal(whole.codes, [ordinal_symbols(s, window) for s in x])
        np.testing.assert_array_equal(split.codes, whole.codes)
        assert split.entropies() == whole.entropies()
        assert whole.entropies() == [reservoir_entropy(s, window) for s in x]

    def test_entropies_need_every_row(self, rng):
        coder = OrdinalCodes(2, 50, 3)
        coder.add(rng.normal(size=(2, 30, 3)))
        with pytest.raises(ValueError, match="fed 30 of 50 rows"):
            coder.entropies()

    @pytest.mark.parametrize("window", [0, MAX_WINDOW + 1])
    def test_window_out_of_range_rejected(self, rng, window):
        message = re.escape(f"window must be in 1..{MAX_WINDOW}, got {window}")
        codes = rng.integers(0, 24, size=(30, 3))
        for call in (partial(key_dtype, window), partial(joint_keys, codes, window),
                     partial(reservoir_entropy, rng.normal(size=(30, 3)), window)):
            with pytest.raises(ValueError, match=message):
                call()


class TestReservoirEntropy:
    def test_constant_states_zero_entropy(self):
        assert reservoir_entropy(np.ones((50, 5))) == 0.0

    def test_two_balanced_symbols_one_bit(self):
        # alternating signal: two joint symbols, equally frequent over an
        # even number of window positions
        x = np.tile([0.0, 1.0], 11)[:21]  # 18 positions, 9 of each symbol
        values = np.column_stack([x, x])
        h = reservoir_entropy(values, window=4)
        assert h == pytest.approx(1.0, abs=1e-12)

    def test_upper_bounds(self, rng):
        values = rng.normal(size=(40, 3))
        h = reservoir_entropy(values, window=4)
        n_positions = 40 - 4 + 1
        assert 0.0 <= h <= np.log2(n_positions) + 1e-12

    def test_monotone_transform_invariance(self, rng):
        values = rng.normal(size=(100, 4))
        h1 = reservoir_entropy(values)
        h2 = reservoir_entropy(np.exp(2.0 * values) - 0.3)
        assert h1 == h2

    def test_node_permutation_invariance(self, rng):
        values = rng.normal(size=(80, 5))
        h1 = reservoir_entropy(values)
        h2 = reservoir_entropy(values[:, [3, 1, 4, 0, 2]])
        assert h1 == h2

    @pytest.mark.parametrize("window", [4, 6])
    def test_equals_unique_rows_of_argsort_codes(self, rng, window):
        # The parent computation: stable-argsort Lehmer codes, whose joint
        # symbols are counted by np.unique over rows. At window 6 the key
        # holds each code in two bytes.
        values = rng.integers(0, 4, size=(400, 5)).astype(float)
        per_node = []
        for j in range(values.shape[1]):
            win = np.lib.stride_tricks.sliding_window_view(values[:, j], window)
            ranks = np.argsort(np.argsort(win, axis=1, kind="stable"), axis=1)
            codes = np.zeros(win.shape[0], dtype=np.int64)
            for i in range(window - 1):
                codes += (ranks[:, i + 1 :] < ranks[:, i : i + 1]).sum(axis=1) \
                    * math.factorial(window - 1 - i)
            per_node.append(codes)
        _, counts = np.unique(np.stack(per_node, axis=1), axis=0, return_counts=True)
        p = counts / counts.sum()
        expected = float(-(p * np.log2(p)).sum())
        assert reservoir_entropy(values, window) == expected
        assert key_dtype(window).itemsize == (2 if window == 6 else 1)

    @pytest.mark.parametrize("window", [4, 6, 9])
    def test_keys_sort_like_code_rows(self, rng, window):
        # windows 6 and 9 store each code in 2 and 4 bytes
        codes = rng.integers(0, math.factorial(window), size=(3000, 3))
        codes[1::2, :2] = codes[::2, :2]  # shared prefixes, so later columns decide
        rows, row_counts = np.unique(codes, axis=0, return_counts=True)
        keys, key_counts = np.unique(joint_keys(codes, window), return_counts=True)
        np.testing.assert_array_equal(key_counts, row_counts)
        np.testing.assert_array_equal(keys, joint_keys(rows, window))

    def test_sparser_input_raises_entropy(self, lorenz_drive_short):
        # tanh reservoir driven by the same signal: fewer directly driven
        # nodes leave more room for internal dynamics, raising the joint
        # symbol diversity
        means = {}
        for f_w in (0.1, 1.0):
            hs = []
            for trial in range(3):
                cfg = make_tanh_config(
                    m=30, f_a=0.5, f_w=f_w,
                    adjacency_seed=100 + trial, input_seed=200 + trial,
                )
                sm = run_tanh_reservoir(cfg, lorenz_drive_short, washout=100)
                hs.append(reservoir_entropy(sm.values))
            means[f_w] = np.mean(hs)
        assert means[0.1] > means[1.0]


class TestNodeTargetCorrelation:
    def test_self_correlation_is_one(self, rng):
        g = rng.normal(size=60)
        state = np.column_stack([g, g, g])
        assert node_target_correlation(state, g) == pytest.approx(1.0, abs=1e-12)

    def test_sign_invariance(self, rng):
        g = rng.normal(size=60)
        state = np.column_stack([-g, -g])
        assert node_target_correlation(state, g) == pytest.approx(1.0, abs=1e-12)

    def test_pearson_in_unit_interval(self, rng):
        state = rng.normal(size=(200, 6))
        g = rng.normal(size=200)
        value = node_target_correlation(state, g)
        assert 0.0 <= value <= 1.0

    def test_matches_direct_pearson(self, rng):
        # offset means make centering matter
        values = rng.normal(size=(300, 6)) * 0.01 + rng.uniform(-1, 1, size=6)
        g = rng.normal(size=300) + 0.5 * values[:, 2] * 100 + 3.0
        expected = np.mean([abs(np.corrcoef(values[:, j], g)[0, 1]) for j in range(6)])
        assert node_target_correlation(values, g) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("level", [0.1, 0.3, -0.7131, 1.0])
    def test_constant_node_is_nan(self, rng, level):
        values = rng.normal(size=(7900, 3))
        values[:, 1] = level
        assert np.isnan(node_target_correlation(values, rng.normal(size=7900)))

    def test_constant_target_is_nan(self, rng):
        values = rng.normal(size=(100, 3))
        assert np.isnan(node_target_correlation(values, np.full(100, 0.1)))

    def test_length_mismatch(self, rng):
        state = rng.normal(size=(50, 2))
        with pytest.raises(ValueError, match="length"):
            node_target_correlation(state, np.zeros(49))
