"""Ordinal symbols, joint permutation entropy, node-target correlation."""

import itertools
import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftrc.analysis import (
    MAX_WINDOW,
    OrdinalCodes,
    code_dtype,
    joint_keys,
    key_digits,
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


@st.composite
def coder_splits(draw):
    window = draw(st.sampled_from([2, 3, 4, 6, 13]))
    d = key_digits(window)
    return dict(window=window,
                nodes=draw(st.sampled_from(sorted({1, max(d - 1, 1), min(d, 30), 14, 27}))),
                cuts=sorted(draw(st.sets(st.integers(1, 119), max_size=8))),
                seed=draw(st.integers(0, 2**32 - 1)))


def word_oracle(row, window) -> bytes:
    """The key of one code row by Python integers: each :func:`key_digits`
    codes, the last word the rest, read as a base ``window!`` number, most
    significant first, and written as 8 big-endian bytes."""
    d, base = key_digits(window), math.factorial(window)
    words = [row[i : i + d] for i in range(0, len(row), d)]
    return b"".join(sum(int(c) * base ** (len(word) - 1 - k) for k, c in enumerate(word))
                    .to_bytes(8, "big") for word in words)


class TestJointKeys:
    def test_digits_per_word(self):
        for window in range(2, MAX_WINDOW + 1):
            base, d = math.factorial(window), key_digits(window)
            assert base**d <= 2**64 < base ** (d + 1)
        assert [key_digits(w) for w in (2, 4, 12, 13, MAX_WINDOW)] == [64, 13, 2, 1, 1]

    @pytest.mark.parametrize("window", [2, 4, 12, 13, MAX_WINDOW])
    @pytest.mark.parametrize("offset", [-1, 0, 1, None], ids=["d-1", "d", "d+1", "50"])
    def test_keys_are_the_packed_words_and_sort_like_code_rows(self, rng, window, offset):
        # codes drawn from few values repeat rows, and shared prefixes make
        # later columns decide; the all-largest row is the largest word
        d, base = key_digits(window), math.factorial(window)
        nodes = 50 if offset is None else max(d + offset, 1)
        for m in sorted({1, nodes}):
            levels = rng.integers(0, base, size=3, dtype=np.uint64)
            codes = rng.choice(np.append(levels, np.uint64(base - 1)), size=(400, m))
            codes[1::2, : m // 2] = codes[::2, : m // 2]
            codes[0] = base - 1
            keys = joint_keys(codes, window)
            assert keys.shape == (400,) and keys.dtype.itemsize == 8 * -(-m // d)
            assert [key.tobytes() for key in keys[:40]] == [word_oracle(row, window)
                                                           for row in codes[:40]]
            rows, row_counts = np.unique(codes, axis=0, return_counts=True)
            uniq, key_counts = np.unique(keys, return_counts=True)
            np.testing.assert_array_equal(key_counts, row_counts)
            np.testing.assert_array_equal(uniq, joint_keys(rows, window))

    def test_leading_axes_key_each_row(self, rng):
        codes = rng.integers(0, 24, size=(3, 5, 20))
        np.testing.assert_array_equal(joint_keys(codes, 4),
                                      [joint_keys(block, 4) for block in codes])


class TestOrdinalCodes:
    @pytest.mark.parametrize("window", [2, 4, 6, 9, MAX_WINDOW])
    def test_any_split_into_pieces_gives_the_one_piece_codes(self, rng, window):
        # windows 2 and 4 code in 1 byte, 6 in 2, 9 in 4 and 20 in 8, and
        # a 4-node key takes one word at windows 2 to 6, two at 9 and four
        # at 20; the
        # split has 1-row pieces, and pieces shorter than the window - 1
        # rows carried over, in the middle of the stream
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
        want = np.array([joint_keys(ordinal_symbols(s, window), window) for s in x])
        assert whole.keys.dtype == split.keys.dtype == want.dtype
        np.testing.assert_array_equal(whole.keys, want)
        np.testing.assert_array_equal(split.keys, whole.keys)
        assert split.entropies() == whole.entropies()
        assert whole.entropies() == [reservoir_entropy(s, window) for s in x]

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(coder_splits())
    def test_entropies_equal_the_unique_rows_oracle_for_any_split(self, split):
        # the oracle counts the rows of the per-node codes with np.unique
        # over rows; node counts around a word's digits put nodes in a
        # partly filled last word
        window, nodes = split["window"], split["nodes"]
        x = np.round(np.random.default_rng(split["seed"]).normal(size=(2, 120, nodes)), 1)
        coder = OrdinalCodes(2, 120, nodes, window)
        for piece in np.split(x, split["cuts"], axis=1):
            coder.add(piece)
        want = []
        for series in x:
            _, counts = np.unique(ordinal_symbols(series, window), axis=0, return_counts=True)
            p = counts / counts.sum()
            want.append(float(-(p * np.log2(p)).sum()))
        assert coder.entropies() == want

    def test_entropies_need_every_row(self, rng):
        coder = OrdinalCodes(2, 50, 3)
        coder.add(rng.normal(size=(2, 30, 3)))
        with pytest.raises(ValueError, match="fed 30 of 50 rows"):
            coder.entropies()

    @pytest.mark.parametrize("window", [0, MAX_WINDOW + 1])
    def test_window_out_of_range_rejected(self, rng, window):
        message = re.escape(f"window must be in 1..{MAX_WINDOW}, got {window}")
        codes = rng.integers(0, 24, size=(30, 3))
        for call in (partial(code_dtype, window), partial(joint_keys, codes, window),
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
        # symbols are counted by np.unique over rows. At window 6 each code
        # takes two bytes before it is packed.
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
        assert code_dtype(window).itemsize == (2 if window == 6 else 1)

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
