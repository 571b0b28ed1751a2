"""End-to-end pipeline: scoring, leakage control, sweeps, determinism."""

import dataclasses
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lstsq

from shiftrc import analysis, dynamics, linalg, pipeline, reservoir, series_cache, shifts
from shiftrc.config import (
    RESERVOIR_DEFAULTS,
    AnalysisConfig,
    DataConfig,
    ExperimentConfig,
    derive_seed,
)
from shiftrc.errors import (
    ConfigError,
    DegenerateTargetError,
    DivergenceError,
    SingularMatrixError,
)
from shiftrc.linalg import (NrmseMode, nrmse, nrmse_sums, predict, qr_column_pivot,
                            ridge_fit)
from shiftrc.pipeline import build_dataset, percent_improvement, sweep
from shiftrc.shifts import build_shifted_matrix, random_select, reduce_columns, rrqr_select

from conftest import mask_context, score_columns, tall_matrices, traced_peak


def tiny_config(**overrides) -> ExperimentConfig:
    data = DataConfig(
        system="lorenz", task="prediction", train_steps=400, test_steps=200,
        dt_internal=0.01, sample_interval=1.0, transient_samples=100,
        initial_state=(1.0, 1.0, 1.0), standardize_drive=True,
    )
    kwargs = dict(
        data=data,
        reservoir={"kind": "oeo", "nodes": 4, "theta": 4, "beta": 0.8,
                   "phi": 0.2, "rho": 0.4, "f_w": 0.5, "sample_offset": None},
        tau_max=3,
        m_red_grid=(4, 8, 16),
        ridge_lambda=1e-6,
        n_masks=2,
        n_random_subsets=2,
        master_seed=31,
        washout=20,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


# The tanh variant of tiny_config's 4-node delay oscillator.
TINY_TANH = {"kind": "tanh", "nodes": 8, "alpha": 0.35, "spectral_radius": 0.5,
             "f_a": 0.5, "f_w": 1.0}
RESERVOIRS = pytest.mark.parametrize("res", [None, TINY_TANH], ids=["oeo", "tanh"])


def tiny_variant(res, **overrides) -> ExperimentConfig:
    """``tiny_config``, with the reservoir section ``res`` if one is given."""
    return tiny_config(**overrides, **({} if res is None else {"reservoir": res}))


class TestPercentImprovement:
    def test_equal_errors(self):
        assert percent_improvement(0.5, 0.5) == 0.0

    def test_halved_error(self):
        assert percent_improvement(0.4, 0.2) == pytest.approx(50.0)

    def test_negative_improvement(self):
        assert percent_improvement(0.2, 0.4) == pytest.approx(-100.0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            percent_improvement(0.0, 0.1)

    def test_identity_is_exactly_zero(self):
        for a in (1e-9, 0.3, 1.0, 17.5, 1e9):
            assert percent_improvement(a, a) == 0.0


def _synthetic_context(rng, target_in_span=True, duplicate=False):
    t = 120
    tau = 2
    g_full = rng.normal(size=t)
    cols = rng.normal(size=(t, 3))
    if target_in_span:
        cols[:, 1] = g_full
    if duplicate:
        cols[:, 2] = cols[:, 0]
    # 3 nodes: column shift * 3 + node is the (node, shift) copy
    return pipeline._mask_context(tau, cols[:80], cols[80:], g_full[:80], g_full[80:])


class TestScoreSelection:
    def test_target_in_column_space_fits_exactly(self, rng):
        ctx = _synthetic_context(rng)
        train_err, test_err = score_columns(ctx, [0, 1, 2], ridge_lambda=0.0)
        assert train_err <= 1e-8
        assert test_err <= 1e-8

    def test_shift_zero_selection_equals_unshifted_window(self, rng):
        # selecting only shift-0 columns from a tau_max=3 build reproduces
        # the source matrix on the shared trimmed window
        values = rng.normal(size=(60, 4))
        shifted = build_shifted_matrix(values, 3)
        reduced = reduce_columns(shifted, np.arange(4))
        np.testing.assert_array_equal(reduced, values[3:])


def direct_score(ctx, cols, ridge_lambda, include_bias=False,
                 mode=NrmseMode.GLOBAL):
    """Reference: copy the selected columns and fit the tall system."""
    shifted_train, shifted_test = tall_matrices(ctx)
    train = shifted_train[:, cols]
    test = shifted_test[:, cols]
    readout = ridge_fit(train, ctx.target_train, ridge_lambda, include_bias)
    return (nrmse(ctx.target_train, predict(train, readout), mode),
            nrmse(ctx.target_test, predict(test, readout), mode))


def _context_from(x_train, x_test, g_train, g_test):
    # tau_max = 0: column j is node j unshifted
    return pipeline._mask_context(0, x_train, x_test, g_train, g_test)


@st.composite
def readout_problems(draw):
    n_cols = draw(st.integers(1, 12))
    bias = draw(st.booleans())
    n_rows = draw(st.integers(n_cols + 3, n_cols + 40))
    subset = draw(st.lists(st.integers(0, n_cols - 1), min_size=1,
                           max_size=n_cols, unique=True))
    return dict(
        n_rows=n_rows, n_cols=n_cols, subset=subset, bias=bias,
        seed=draw(st.integers(0, 2**32 - 1)),
        ridge_lambda=draw(st.sampled_from([0.0, 1e-8, 1e-2])),
        mode=draw(st.sampled_from(list(NrmseMode))),
    )


class TestCompressedReadout:
    """Cells fitted on the per-mask compression against the tall fits."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(readout_problems())
    def test_matches_direct_fit(self, problem):
        rng = np.random.default_rng(problem["seed"])
        t, c = problem["n_rows"], problem["n_cols"]
        ctx = _context_from(rng.normal(size=(t, c)), rng.normal(size=(t // 2 + 1, c)),
                            rng.normal(size=t), rng.normal(size=t // 2 + 1))
        cols = problem["subset"]
        args = (problem["ridge_lambda"], problem["bias"], problem["mode"])
        got = score_columns(ctx, cols, *args)
        want = direct_score(ctx, cols, *args)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)

    def test_bias_cell_of_sweep_matches_direct_fit(self):
        cfg = tiny_config(n_masks=1, include_bias=True)
        result = sweep(cfg)
        ctx = mask_context(cfg, derive_seed(cfg.master_seed, "trial", 0))
        ranked, _ = result.pivots[0]
        checked = 0
        for cell in result.cells:
            if cell.method == "rrqr":
                cols = ranked[: cell.m_red]
            elif cell.method == "random":
                cols = random_select(tall_matrices(ctx)[0].shape[1], cell.m_red,
                                     cell.subset_seed)
            else:
                cols = np.arange(cfg.n_nodes)  # the shift-0 columns
            want = direct_score(ctx, cols, cfg.ridge_lambda, include_bias=True)
            np.testing.assert_allclose((cell.nrmse_train, cell.nrmse_test), want,
                                       rtol=1e-12, atol=0.0)
            checked += 1
        assert checked == len(cfg.m_red_grid) * (1 + cfg.n_random_subsets) + 1

    def test_duplicated_column_at_zero_lambda_raises(self, rng):
        ctx = _synthetic_context(rng, target_in_span=False, duplicate=True)
        with pytest.raises(SingularMatrixError):
            score_columns(ctx, [0, 2], ridge_lambda=0.0)
        with pytest.raises(SingularMatrixError):
            score_columns(ctx, [3, 5, 1], ridge_lambda=0.0, include_bias=True)

    def test_full_rank_subset_at_zero_lambda_fits(self, rng):
        ctx = _synthetic_context(rng, target_in_span=False, duplicate=True)
        cols = [0, 1, 5]
        got = score_columns(ctx, cols, ridge_lambda=0.0)
        np.testing.assert_allclose(got, direct_score(ctx, cols, 0.0),
                                   rtol=1e-12, atol=0.0)

    def test_non_finite_training_data_rejected(self, rng):
        values = rng.normal(size=(40, 3))
        values[5, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            pipeline._mask_context(2, values, values, rng.normal(size=40),
                                   rng.normal(size=40))


@st.composite
def group_problems(draw):
    n_cols = draw(st.integers(2, 10))
    k = draw(st.integers(1, n_cols))
    ridge_lambda = draw(st.sampled_from([0.0, 1e-6, 1.0]))
    sets = draw(st.lists(st.lists(st.integers(0, n_cols - 1), min_size=k, max_size=k,
                                  unique=ridge_lambda == 0.0),
                         min_size=1, max_size=5))
    sizes = draw(st.one_of(st.none(), st.lists(st.integers(1, k), min_size=1,
                                               max_size=3, unique=True)))
    return dict(n_cols=n_cols, sets=sets, sizes=sizes, ridge_lambda=ridge_lambda,
                bias=draw(st.booleans()), seed=draw(st.integers(0, 2**32 - 1)))


class TestFitGroup:
    """Stacked group fits on the compressed triangle against gelsd."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(group_problems())
    def test_matches_gelsd_on_the_stacked_system(self, problem):
        rng = np.random.default_rng(problem["seed"])
        c = problem["n_cols"]
        ctx = _context_from(rng.normal(size=(c + 30, c)), rng.normal(size=(9, c)),
                            rng.normal(size=c + 30), rng.normal(size=9))
        lam, bias = problem["ridge_lambda"], problem["bias"]
        sets, sizes = problem["sets"], problem["sizes"]
        got = pipeline._fit_group(ctx, sets, lam, bias, sizes)
        prefixes = sizes or [len(sets[0])]
        assert got.shape == (c + 1, len(sets) * len(prefixes))
        rows = c + bias
        for i, cols in enumerate(sets):
            for j, p in enumerate(prefixes):
                fitted = [c] * bias + cols[:p]  # column c of the triangle is the ones column
                a = np.vstack([ctx.r[:rows, fitted], np.sqrt(lam) * np.eye(len(fitted))])
                b = np.concatenate([ctx.r[:rows, c + 1], np.zeros(len(fitted))])
                want = np.zeros(c + 1)
                np.add.at(want, fitted, lstsq(a, b, lapack_driver="gelsd")[0])
                np.testing.assert_allclose(got[:, i * len(prefixes) + j], want,
                                           rtol=1e-9, atol=1e-12 * np.abs(want).max())

    def test_pair_listed_twice_sums_its_weights(self, rng):
        ctx = _synthetic_context(rng, target_in_span=False)
        twice = score_columns(ctx, [0, 7, 0], 1e-3)
        want = direct_score(ctx, [0, 7, 0], 1e-3)
        np.testing.assert_allclose(twice, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("bias", [False, True])
    def test_zero_lambda_group_raises_the_member_rank(self, rng, bias):
        ctx = _synthetic_context(rng, target_in_span=False, duplicate=True)
        sets = [[0, 1, 5], [3, 4, 5], [6, 1, 8]]
        with pytest.raises(SingularMatrixError) as alone:
            direct_score(ctx, sets[1], 0.0, bias)
        with pytest.raises(SingularMatrixError) as grouped:
            pipeline._fit_group(ctx, sets, 0.0, bias)
        assert grouped.value.estimated_rank == alone.value.estimated_rank == 2 + bias
        assert grouped.value.n_cols == alone.value.n_cols == 3 + bias

    @pytest.mark.parametrize("bias", [False, True])
    def test_ranked_prefixes_equal_per_prefix_fits(self, bias):
        cfg = tiny_config(n_masks=1, include_bias=bias)
        ctx = mask_context(cfg, derive_seed(cfg.master_seed, "trial", 0))
        shifted_train = tall_matrices(ctx)[0]
        order = rrqr_select(shifted_train)[0]
        sizes = list(range(1, shifted_train.shape[1] + 1))
        w = pipeline._fit_group(ctx, [order], cfg.ridge_lambda, bias, sizes)
        got = pipeline._score_weights(ctx, w, NrmseMode.GLOBAL)
        for j, p in enumerate(sizes):
            want = direct_score(ctx, order[:p], cfg.ridge_lambda, bias)
            np.testing.assert_allclose(got[j], want, rtol=1e-12, atol=0.0)


def reference_nrmse(g, h, mode):
    """NRMSE of one output over a whole split, written out in full."""
    if mode is NrmseMode.GLOBAL:
        return np.sqrt(np.sum((g - h) ** 2) / np.sum(g * g))
    keep = np.abs(g) >= 1e-9
    return np.sqrt(np.mean(((g[keep] - h[keep]) / g[keep]) ** 2))


class TestRowBlocks:
    """Compression and scoring over row blocks against the tall matrices."""

    NODES, TAU = 3, 2  # C = 9 columns, so [X | 1 | g] has C + 2 = 11

    def states(self, rng, n_rows):
        """Train and test states whose shifted matrices have ``n_rows`` rows,
        with targets that have zero samples in the first and last blocks."""
        x = rng.normal(size=(2, n_rows + self.TAU, self.NODES))
        g = rng.normal(size=(2, n_rows + self.TAU))
        g[:, [self.TAU + 3, -2]] = 0.0  # skipped by PAPER_LITERAL
        return x[0], x[1], g[0], g[1]

    # (BLOCK_ROWS, shifted rows): k blocks, k blocks and one row, a last
    # block shorter than C + 2 rows, and the shipped rule (2048 rows here)
    SHAPES = [(50, 150), (50, 151), (50, 155), (None, 2 * 2048 + 1)]

    @pytest.mark.parametrize("block_rows,n_rows", SHAPES)
    def test_compression_matches_one_qr(self, rng, monkeypatch, block_rows, n_rows):
        if block_rows is not None:
            monkeypatch.setattr(pipeline, "BLOCK_ROWS", block_rows)
        train, test, g_train, g_test = self.states(rng, n_rows)
        ctx = pipeline._mask_context(self.TAU, train, test, g_train, g_test)
        x = build_shifted_matrix(train, self.TAU)
        n = x.shape[1]
        want = np.linalg.qr(np.column_stack([x, np.ones(n_rows), g_train[self.TAU:]]),
                            mode="r")[: n + 1]
        signs = np.sign(np.diag(want)) * np.sign(np.diag(ctx.r))
        scale = np.abs(want).max()
        np.testing.assert_allclose(signs[:, None] * ctx.r[:, : n + 1], want[:, : n + 1],
                                   rtol=0.0, atol=1e-12 * scale)
        np.testing.assert_allclose(signs * ctx.r[:, n + 1], want[:, n + 1],
                                   rtol=0.0, atol=1e-12 * scale)

    @pytest.mark.parametrize("block_rows,n_rows", SHAPES)
    @pytest.mark.parametrize("mode", list(NrmseMode))
    @pytest.mark.parametrize("bias", [False, True])
    def test_cells_match_tall_scores(self, rng, monkeypatch, block_rows, n_rows, mode, bias):
        if block_rows is not None:
            monkeypatch.setattr(pipeline, "BLOCK_ROWS", block_rows)
        train, test, g_train, g_test = self.states(rng, n_rows)
        ctx = pipeline._mask_context(self.TAU, train, test, g_train, g_test)
        sets = [rng.choice(9, size=4, replace=False) for _ in range(5)]
        w = pipeline._fit_group(ctx, sets, 1e-6, bias)
        got = pipeline._score_weights(ctx, w, mode)
        tall = tall_matrices(ctx)
        assert len(got) == len(sets)
        for cell, (train_err, test_err) in enumerate(got):
            want = [reference_nrmse(g, x @ w[:-1, cell] + w[-1, cell], mode)
                    for x, g in zip(tall, (ctx.target_train, ctx.target_test))]
            np.testing.assert_allclose((train_err, test_err), want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("nodes,tau_max,heights", [
        (3, 2, [2048, 2048, 1]),  # C = 9: BLOCK_ROWS
        (50, 10, [2208, 2208, 65]),  # C = 550: 4 * (C + 2) rows
    ])
    def test_block_height_follows_the_column_count(self, nodes, tau_max, heights):
        states = np.zeros((sum(heights) + tau_max, nodes))
        got = [(rows.stop - rows.start, x.shape) for rows, x in
               pipeline._row_blocks(states, tau_max)]
        assert got == [(h, (h, nodes * (tau_max + 1))) for h in heights]

    @pytest.mark.parametrize("where", ["states", "target"])
    def test_non_finite_entry_in_a_late_block_rejected(self, rng, monkeypatch, where):
        monkeypatch.setattr(pipeline, "BLOCK_ROWS", 50)
        train, test, g_train, g_test = self.states(rng, 155)
        (train[-3] if where == "states" else g_train[-3:])[1] = np.nan  # the 5-row last block
        with pytest.raises(ValueError, match="training matrix or target contains non-finite"):
            pipeline._mask_context(self.TAU, train, test, g_train, g_test)

    @pytest.mark.parametrize("mode", list(NrmseMode))
    def test_zero_test_target_is_degenerate(self, rng, monkeypatch, mode):
        monkeypatch.setattr(pipeline, "BLOCK_ROWS", 50)
        train, test, g_train, g_test = self.states(rng, 151)
        ctx = pipeline._mask_context(self.TAU, train, test, g_train, np.zeros_like(g_test))
        w = pipeline._fit_group(ctx, [[0, 4, 8]], 1e-6, False)
        with pytest.raises(DegenerateTargetError):
            pipeline._score_weights(ctx, w, mode)

    def test_compression_holds_one_block_and_its_qr_copy(self, rng):
        # each [X | 1 | g] block is one allocation, and only the QR's copy
        # of it is held beside it (three blocks when it was stacked anew)
        train, test, g_train, g_test = self.states(rng, 4 * pipeline.BLOCK_ROWS)
        columns = self.NODES * (self.TAU + 1) + 2  # [X | 1 | g]
        block = pipeline.BLOCK_ROWS * columns * 8
        factors = 8 * columns**2 * 8  # the TSQR tree's R factors and merges
        peak = traced_peak(pipeline._mask_context, self.TAU, train, test, g_train, g_test)
        assert peak < 2.5 * block + factors

    def test_scoring_holds_one_product_buffer(self, rng):
        # the (cells, rows) product takes the bias and becomes its errors in
        # place (three such buffers when each step allocated its own)
        train, test, g_train, g_test = self.states(rng, 3 * pipeline.BLOCK_ROWS)
        ctx = pipeline._mask_context(self.TAU, train, test, g_train, g_test)
        cells = 96
        w = rng.normal(size=(self.NODES * (self.TAU + 1) + 1, cells))
        product = cells * pipeline.BLOCK_ROWS * 8  # (cells, block rows)
        block = pipeline.BLOCK_ROWS * self.NODES * (self.TAU + 1) * 8
        peak = traced_peak(pipeline._score_weights, ctx, w, NrmseMode.GLOBAL)
        assert peak < 1.5 * product + 2 * block

    def test_one_mask_holds_no_tall_matrix(self, rng):
        # tracemalloc counts numpy's buffers: compressing and scoring a mask
        # must stay well below the bytes of its tall shifted training matrix
        cfg = tiny_config(reservoir={**tiny_config().reservoir, "nodes": 6}, tau_max=9,
                          m_red_grid=(10, 30, 60))
        n_rows = 20000
        tall_bytes = n_rows * cfg.n_nodes * (cfg.tau_max + 1) * 8
        assert tall_bytes >= 8 * 2**20
        train = rng.normal(size=(n_rows + cfg.tau_max, cfg.n_nodes))
        test = rng.normal(size=(5000, cfg.n_nodes))
        g_train, g_test = rng.normal(size=train.shape[0]), rng.normal(size=test.shape[0])
        tracemalloc.start()
        try:
            ctx = pipeline._mask_context(cfg.tau_max, train, test, g_train, g_test)
            cells, _ = pipeline._sweep_one_mask(cfg, 0, ctx, "both")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cells) == len(cfg.m_red_grid) * (1 + cfg.n_random_subsets) + 1
        assert peak < tall_bytes / 2


class TestRunSingle:
    """Cells of a single mask: baseline, arm convergence, leakage."""

    def test_baseline_uses_all_nodes_unshifted(self):
        cfg = tiny_config(n_masks=1)
        baseline = [c for c in sweep(cfg).cells if c.method == "baseline"]
        assert len(baseline) == 1
        assert baseline[0].m_red == 4
        assert baseline[0].mask_id == 0 and baseline[0].subset_seed is None
        ctx = mask_context(cfg, derive_seed(cfg.master_seed, "trial", 0))
        _, test_err = score_columns(ctx, np.arange(4), cfg.ridge_lambda)  # shift 0
        assert baseline[0].nrmse_test == test_err
        assert test_err >= 0.0 and np.isfinite(test_err)

    def test_rrqr_and_random_converge_at_full_width(self):
        cfg = tiny_config()
        ctx = mask_context(cfg, derive_seed(cfg.master_seed, "trial", 0))
        shifted_train = tall_matrices(ctx)[0]
        full = shifted_train.shape[1]
        ranked = rrqr_select(shifted_train)[0]
        drawn = random_select(full, full, seed=9)
        _, e1 = score_columns(ctx, ranked, cfg.ridge_lambda)
        _, e2 = score_columns(ctx, drawn, cfg.ridge_lambda)
        assert e1 == pytest.approx(e2, rel=1e-8)

    def test_no_test_leakage(self):
        # corrupting the test split must not change selection or weights
        cfg = tiny_config()
        seed = derive_seed(cfg.master_seed, "trial", 0)
        ctx_a = mask_context(cfg, seed)
        ctx_b = mask_context(cfg, seed)
        rng = np.random.default_rng(0)
        ctx_b.test[:] = rng.normal(size=ctx_b.test.shape)
        ctx_b.target_test = rng.normal(size=ctx_b.target_test.shape)
        train_a, train_b = tall_matrices(ctx_a)[0], tall_matrices(ctx_b)[0]

        order_a = rrqr_select(train_a)[0]
        order_b = rrqr_select(train_b)[0]
        np.testing.assert_array_equal(order_a, order_b)

        w_a = ridge_fit(train_a[:, order_a[:8]],
                        ctx_a.target_train, cfg.ridge_lambda).w
        w_b = ridge_fit(train_b[:, order_b[:8]],
                        ctx_b.target_train, cfg.ridge_lambda).w
        np.testing.assert_array_equal(w_a, w_b)


class TestSweep:
    def test_fewer_training_rows_than_columns_rejected(self):
        # 39 - washout 20 - tau_max 3 = 16 rows against the 17 columns of [X | 1]
        cfg = tiny_config(data=dataclasses.replace(tiny_config().data, train_steps=39))
        for subset_mode in ("both", "rrqr", "random"):
            with pytest.raises(ConfigError, match="data.train_steps") as exc:
                sweep(cfg, subset_mode)
            assert "16 training rows" in str(exc.value)

    @pytest.mark.parametrize("grid", [(4, 20, 30), (0, 8)])
    def test_grid_outside_the_columns_rejected(self, monkeypatch, grid):
        # C = 4 * (3 + 1) = 16 columns: a width past C, or of none, is a
        # config error in every arm, raised before any state is simulated
        def simulate(*args, **kwargs):
            raise AssertionError("reservoir states were simulated")

        monkeypatch.setattr(reservoir, "run_oeo_reservoir", simulate)
        monkeypatch.setattr(reservoir, "run_tanh_reservoir", simulate)
        cfg = tiny_config(m_red_grid=grid)
        for subset_mode in ("both", "rrqr", "random"):
            with pytest.raises(ConfigError, match="'selection.m_red_grid'.*= 1..16"):
                sweep(cfg, subset_mode)

    def test_repeated_m_red_rejected(self, monkeypatch):
        def simulate(*args, **kwargs):
            raise AssertionError("reservoir states were simulated")

        monkeypatch.setattr(reservoir, "run_oeo_reservoir", simulate)
        cfg = tiny_config(m_red_grid=(4, 8, 4))
        for subset_mode in ("both", "rrqr", "random"):
            with pytest.raises(ConfigError, match="'selection.m_red_grid': 4 is repeated"):
                sweep(cfg, subset_mode)

    def test_deterministic_repeat(self):
        cfg = tiny_config()
        a = sweep(cfg)
        b = sweep(cfg)
        assert [dataclasses.asdict(r) for r in a.rows] == [
            dataclasses.asdict(r) for r in b.rows
        ]
        assert [dataclasses.asdict(c) for c in a.cells] == [
            dataclasses.asdict(c) for c in b.cells
        ]

    @pytest.mark.parametrize("continuation", [True, False])
    def test_ranking_on_the_triangle_matches_the_tall_pivot(self, continuation):
        # the sweep pivots the triangle of its compression; the greedy order
        # of the tall training matrix must come out, with |R_kk| to rounding
        cfg = tiny_config(n_masks=3, continuation=continuation)
        pivots = sweep(cfg, subset_mode="rrqr").pivots
        assert len(pivots) == 3
        for mask_id, (order, r_diag) in enumerate(pivots):
            ctx = mask_context(cfg, derive_seed(cfg.master_seed, "trial", mask_id))
            shifted_train = tall_matrices(ctx)[0]
            tall = qr_column_pivot(shifted_train)
            np.testing.assert_array_equal(order, tall.perm)
            np.testing.assert_array_equal(rrqr_select(shifted_train)[0], order)
            np.testing.assert_allclose(r_diag, tall.r_diag,
                                       rtol=0.0, atol=1e-14 * tall.r_diag[0])

    @RESERVOIRS
    def test_ranking_is_task_independent(self, res):
        # the pivot sees only the reservoir states: the target column and the
        # ones column come after the state columns in the compressed system,
        # so neither the task nor the bias can move the ranking
        base = tiny_variant(res, n_masks=3)
        runs = [
            sweep(dataclasses.replace(base, include_bias=bias,
                                      data=dataclasses.replace(base.data, task=task)),
                  subset_mode="rrqr").pivots
            for task in ("prediction", "observer") for bias in (False, True)
        ]
        first = runs[0]
        assert len(first) == 3
        for pivots in runs[1:]:
            for (got, got_r), (want, want_r) in zip(pivots, first, strict=True):
                np.testing.assert_array_equal(got, want)
                assert got_r.tobytes() == want_r.tobytes()

    @RESERVOIRS
    def test_ranking_is_independent_of_the_row_blocks(self, monkeypatch, res):
        # BLOCK_ROWS 1 gives the floor of 4 * (C + 2) rows per block, several
        # TSQR leaves; 2048 gives a single block of the 377 training rows
        cfg = tiny_variant(res, n_masks=6)
        orders = []
        for block_rows in (1, 128, 2048):
            monkeypatch.setattr(pipeline, "BLOCK_ROWS", block_rows)
            orders.append([order.tolist() for order, _ in sweep(cfg, "rrqr").pivots])
        assert len(orders[0]) == 6
        assert orders[0] == orders[1] == orders[2]

    def test_each_mask_is_ranked_once_through_rrqr_select(self, monkeypatch):
        # the benchmark's traced runs count the ranking pivot as the call of
        # qr_column_pivot, under the name that shifts imports, nested in
        # shifts.rrqr_select; the sweep must rank through both names
        cfg = tiny_config(n_masks=3)
        ranked, pivoted, open_selects = [], [], []
        real_select, real_pivot = shifts.rrqr_select, shifts.qr_column_pivot

        def select(b):
            ranked.append(b.shape)
            open_selects.append(b)
            try:
                return real_select(b)
            finally:
                open_selects.pop()

        def pivot(b):
            pivoted.append((bool(open_selects), b.shape))
            return real_pivot(b)

        monkeypatch.setattr(shifts, "rrqr_select", select)
        monkeypatch.setattr(shifts, "qr_column_pivot", pivot)
        result = sweep(cfg)
        n = cfg.n_nodes * (cfg.tau_max + 1)
        assert ranked == [(n, n)] * cfg.n_masks
        assert pivoted == [(True, (n, n))] * cfg.n_masks
        assert len(result.pivots) == cfg.n_masks

    def test_full_width_grid_has_no_improvement(self):
        cfg = tiny_config(m_red_grid=(16,))
        rows = sweep(cfg).rows
        assert abs(rows[0].percent_improvement) <= 0.5

    def test_row_consistency_with_definition(self):
        cfg = tiny_config()
        res = sweep(cfg)
        for row in res.rows:
            expect = 100.0 * (row.nrmse_rand_mean - row.nrmse_rrqr_mean) / row.nrmse_rand_mean
            assert row.percent_improvement == pytest.approx(expect, abs=1e-12)

    def test_subset_modes(self):
        cfg = tiny_config(m_red_grid=(8,))
        only_rrqr = sweep(cfg, subset_mode="rrqr")
        assert only_rrqr.rows[0].nrmse_rand_mean is None
        assert only_rrqr.rows[0].percent_improvement is None
        assert only_rrqr.rows[0].nrmse_rrqr_mean is not None
        only_rand = sweep(cfg, subset_mode="random")
        assert only_rand.rows[0].nrmse_rrqr_mean is None
        assert not only_rand.pivots

    def test_fresh_state_mode_runs(self):
        cfg = tiny_config(continuation=False, m_red_grid=(8,), n_masks=1)
        res = sweep(cfg)
        assert np.isfinite(res.rows[0].nrmse_rrqr_mean)


def scaled_cells(cfg, states=1.0, targets=1.0) -> list[tuple[float, float]]:
    """``(train, test)`` NRMSE of every cell of a sweep whose reservoir
    states and targets are multiplied by ``states`` and ``targets`` before
    each mask is compressed and scored."""
    res_cfgs = [pipeline.build_trial_reservoir(cfg, partial(derive_seed, seed))
                for seed in (derive_seed(cfg.master_seed, "trial", i)
                             for i in range(cfg.n_masks))]
    trains, tests, g_train, g_test = pipeline.run_split_states(
        res_cfgs, build_dataset(cfg.data), cfg.washout, cfg.continuation)
    cells = []
    for mask_id, (train, test) in enumerate(zip(trains, tests)):
        ctx = pipeline._mask_context(cfg.tau_max, states * train, states * test,
                                     targets * g_train, targets * g_test)
        cells += pipeline._sweep_one_mask(cfg, mask_id, ctx, "both")[0]
    return [(cell.nrmse_train, cell.nrmse_test) for cell in cells]



class TestInvariances:
    """Changes to a sweep that must leave its results equal bit for bit.

    Each one runs the same floating-point operations as the original, on
    operands scaled by powers of two where any are scaled, so results are
    compared with ``==`` and any difference is a fault, not rounding. The
    tanh node permutation is the one exception: it reorders sums, so its
    values agree to rounding and only its pivot order is compared exactly."""

    @RESERVOIRS
    def test_leading_masks_of_a_larger_sweep(self, res):
        few = sweep(tiny_variant(res, n_masks=3))
        more = sweep(tiny_variant(res, n_masks=5))
        assert [c for c in more.cells if c.mask_id < 3] == few.cells
        assert [order.tolist() for order, _ in more.pivots[:3]] == [
            order.tolist() for order, _ in few.pivots]

    @RESERVOIRS
    def test_one_value_grid_gives_its_cells_of_the_full_grid(self, res):
        # a one-value grid still scores at least the ranked, random and
        # baseline cells of a mask together: one cell alone would take
        # numpy's gemv path, which rounds differently
        cfg = tiny_variant(res)
        full = sweep(cfg)
        for m_red in cfg.m_red_grid:
            alone = sweep(dataclasses.replace(cfg, m_red_grid=(m_red,)))
            assert alone.cells == [c for c in full.cells
                                   if c.m_red == m_red or c.method == "baseline"]
            assert [order.tolist() for order, _ in alone.pivots] == [
                order.tolist() for order, _ in full.pivots]

    @RESERVOIRS
    @pytest.mark.parametrize("states,targets,lam", [
        (1.0, 8.0, 1.0),  # the fits scale with the targets
        (4.0, 4.0, 16.0),  # the whole stacked ridge system scales by 4
        (0.25, 1.0, 1 / 16),  # the weights scale by 4, the outputs not
    ], ids=["targets-x8", "states-targets-x4", "states-quarter"])
    def test_scaling_leaves_every_nrmse(self, res, states, targets, lam):
        cfg = tiny_variant(res)
        want = scaled_cells(cfg)
        assert want == [(c.nrmse_train, c.nrmse_test) for c in sweep(cfg).cells]
        scaled = dataclasses.replace(cfg, ridge_lambda=cfg.ridge_lambda * lam)
        assert scaled_cells(scaled, states, targets) == want

    def test_tanh_node_permutation_permutes_states_and_ranking(self):
        # new node perm[i] is old node i: P A P^T and P w_in permute the
        # states, so shifted column s*m + i becomes s*m + perm[i]
        cfg = tiny_variant(TINY_TANH, n_masks=1)
        seed = partial(derive_seed, derive_seed(cfg.master_seed, "trial", 0))
        res_cfg = pipeline.build_trial_reservoir(cfg, seed)
        m = res_cfg.m
        perm = np.random.default_rng(3).permutation(m)
        inv = np.argsort(perm)
        permuted = dataclasses.replace(res_cfg, a=res_cfg.a[np.ix_(inv, inv)],
                                       w_in=res_cfg.w_in[inv])
        dataset = build_dataset(cfg.data)
        runs = []
        for res in (res_cfg, permuted):
            (train,), (test,), *targets = pipeline.run_split_states(
                [res], dataset, cfg.washout, cfg.continuation)
            split = (train, test, *targets)
            ctx = pipeline._mask_context(cfg.tau_max, *split)
            runs.append((split, pipeline._sweep_one_mask(cfg, 0, ctx, "both")))
        (split, (cells, pivot)), (split_p, (cells_p, pivot_p)) = runs
        for x, x_p in zip(split[:2], split_p[:2]):
            np.testing.assert_allclose(x_p[:, perm], x, rtol=0, atol=1e-12)
        column = np.arange(m * (cfg.tau_max + 1))
        mapped = column // m * m + perm[column % m]
        assert pivot_p[0].tolist() == mapped[pivot[0]].tolist()
        kept = [(c, c_p) for c, c_p in zip(cells, cells_p) if c.method != "random"]
        assert len(kept) == len(cfg.m_red_grid) + 1
        for c, c_p in kept:
            assert (c_p.method, c_p.m_red) == (c.method, c.m_red)
            assert c_p.nrmse_train == pytest.approx(c.nrmse_train, rel=1e-10)
            assert c_p.nrmse_test == pytest.approx(c.nrmse_test, rel=1e-10)


def reference_analysis_cell(acfg, i_fw, f_w, i_fa, f_a, datasets):
    """The per-trial analysis cell the batched, streamed one replaced: each
    trial's full state matrices, whole-matrix diagnostics and tall fits."""
    cfg = acfg.base
    obs, pred = datasets
    entropies, correlations, err_obs, err_pred = [], [], [], []
    mode = NrmseMode(cfg.nrmse_mode)
    for trial in range(acfg.n_trials):
        res_cfg = reservoir.make_tanh_config(
            m=cfg.reservoir["nodes"],
            alpha=cfg.reservoir["alpha"],
            f_a=f_a,
            f_w=f_w,
            spectral_radius=cfg.reservoir["spectral_radius"],
            adjacency_seed=derive_seed(cfg.master_seed, "adjacency", i_fw, i_fa, trial),
            input_seed=derive_seed(cfg.master_seed, "input-weights", i_fw, i_fa, trial),
        )
        (train,), (test,), g_obs_train, g_obs_test = pipeline.run_split_states(
            [res_cfg], obs, cfg.washout, cfg.continuation
        )
        entropies.append(analysis.reservoir_entropy(train, acfg.window))
        xc = train - train.mean(axis=0)
        gc = g_obs_train - g_obs_train.mean()
        correlations.append(np.mean(np.abs(xc.T @ gc) / np.sqrt(
            (xc**2).sum(axis=0) * (gc**2).sum())))
        readout = ridge_fit(train, g_obs_train, cfg.ridge_lambda,
                           include_bias=cfg.include_bias)
        err_obs.append(nrmse(g_obs_test, predict(test, readout), mode))
        g_pred_train = pred.target_train[cfg.washout :]
        g_pred_test = pred.target_test if cfg.continuation \
            else pred.target_test[cfg.washout :]
        readout = ridge_fit(train, g_pred_train, cfg.ridge_lambda,
                           include_bias=cfg.include_bias)
        err_pred.append(nrmse(g_pred_test, predict(test, readout), mode))
    return pipeline.AnalysisRow(
        f_w=f_w,
        f_a=f_a,
        entropy_bits=float(np.mean(entropies)),
        mean_correlation=float(np.mean(correlations)),
        nrmse_observer=float(np.mean(err_obs)),
        nrmse_prediction=float(np.mean(err_pred)),
    )


def tiny_analysis(**overrides) -> AnalysisConfig:
    data = dataclasses.replace(tiny_config().data, task="observer",
                               train_steps=900, test_steps=700)
    base = tiny_config(
        data=data, washout=40,
        reservoir={"kind": "tanh", "nodes": 12, "alpha": 0.35,
                   "spectral_radius": 0.5, "f_a": 0.5, "f_w": 1.0},
        **overrides,
    )
    return AnalysisConfig(base=base, f_w_values=(0.3, 1.0), f_a_values=(0.5,),
                          n_trials=3, window=4)


class TestAnalysisCell:
    @pytest.mark.parametrize("continuation", [True, False])
    @pytest.mark.parametrize("batch,segment", [(20, 250), (2, 64), (3, 429)])
    def test_matches_per_trial_reference(self, monkeypatch, continuation, batch, segment):
        # (2, 64): several batches, and entropy windows spanning many piece
        # boundaries; the test split then starts inside a piece's span.
        # (3, 429): the 860 training rows end in a piece of 2 rows, fewer
        # than the window - 1 = 3 carried over from the piece before
        monkeypatch.setattr(pipeline, "ANALYSIS_BATCH", batch)
        monkeypatch.setattr(pipeline, "ANALYSIS_SEGMENT", segment)
        acfg = tiny_analysis(continuation=continuation)
        datasets = (build_dataset(acfg.base.data, "observer"),
                    build_dataset(acfg.base.data, "prediction"))
        for i_fw, f_w in enumerate(acfg.f_w_values):
            got = pipeline._analysis_cell(acfg, i_fw, f_w, 0, 0.5, datasets)
            want = reference_analysis_cell(acfg, i_fw, f_w, 0, 0.5, datasets)
            assert got.entropy_bits == want.entropy_bits
            for name in ("mean_correlation", "nrmse_observer", "nrmse_prediction"):
                assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12)

    @pytest.mark.parametrize("continuation", [True, False])
    def test_bias_readouts_match_per_trial_reference(self, continuation):
        acfg = tiny_analysis(continuation=continuation, include_bias=True)
        datasets = (build_dataset(acfg.base.data, "observer"),
                    build_dataset(acfg.base.data, "prediction"))
        got = pipeline._analysis_cell(acfg, 0, 0.3, 0, 0.5, datasets)
        want = reference_analysis_cell(acfg, 0, 0.3, 0, 0.5, datasets)
        unbiased = pipeline._analysis_cell(tiny_analysis(continuation=continuation),
                                           0, 0.3, 0, 0.5, datasets)
        for name in ("nrmse_observer", "nrmse_prediction"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12)
            assert getattr(got, name) != getattr(unbiased, name)

    def test_batch_holds_one_piece(self):
        # beside the batch's ordinal codes, the training pass holds at most
        # one piece, one training block, that block's QR copy and the TSQR
        # factors, and the codes are freed before the test pass (over 6
        # blocks' worth when pieces, blocks and codes outlived their use)
        acfg = tiny_analysis()
        base = acfg.base
        cfg = dataclasses.replace(base, reservoir={**base.reservoir, "nodes": 30},
                                  data=dataclasses.replace(base.data, train_steps=3000))
        datasets = (build_dataset(cfg.data, "observer"), build_dataset(cfg.data, "prediction"))
        trials, m = pipeline.ANALYSIS_BATCH, cfg.n_nodes
        res_cfgs = [pipeline.build_trial_reservoir(
            cfg, lambda role, t=trial: derive_seed(cfg.master_seed, role, t))
            for trial in range(trials)]
        n_windows = cfg.data.train_steps - cfg.washout - acfg.window + 1
        codes = trials * n_windows * m * analysis.key_dtype(acfg.window).itemsize
        block = trials * pipeline.ANALYSIS_SEGMENT * (m + 3) * 8  # [1 | X | g_obs | g_pred]
        peak = traced_peak(pipeline._analysis_batch, cfg, res_cfgs, datasets, acfg.window)
        assert peak < codes + 4 * block

    def test_oscillator_base_rejected_before_any_data(self, monkeypatch):
        # the grid varies the tanh network's f_a, which a delay oscillator
        # has not; the kind is checked before the source is even loaded
        def load(*args, **kwargs):
            raise AssertionError("dataset built")

        monkeypatch.setattr(pipeline, "build_dataset", load)
        acfg = dataclasses.replace(tiny_analysis(), base=tiny_config())
        with pytest.raises(ConfigError, match="'reservoir.kind'.*tanh"):
            pipeline.analysis_sweep(acfg)

    @pytest.mark.parametrize("field", ["f_w_values", "f_a_values"])
    def test_repeated_grid_value_rejected_before_any_data(self, monkeypatch, field):
        # trial seeds follow the grid index: a repeated value would give one
        # grid point two rows with different numbers
        def load(*args, **kwargs):
            raise AssertionError("dataset built")

        monkeypatch.setattr(pipeline, "build_dataset", load)
        acfg = dataclasses.replace(tiny_analysis(), **{field: (0.5, 1.0, 0.5)})
        with pytest.raises(ConfigError, match=f"'analysis.{field}': 0.5 is repeated"):
            pipeline.analysis_sweep(acfg)

    def test_training_rows_shorter_than_window_rejected(self):
        acfg = dataclasses.replace(tiny_analysis(), window=20)
        data = dataclasses.replace(acfg.base.data, train_steps=50)
        acfg = dataclasses.replace(acfg, base=dataclasses.replace(acfg.base, data=data))
        with pytest.raises(ValueError, match="rows"):
            pipeline.analysis_sweep(acfg)


class TestTanhPieces:
    """The analysis stream's pieces and the row slices they carry."""

    @pytest.mark.parametrize("n_drive,washout,resume", [
        (pipeline.ANALYSIS_SEGMENT - 50, 20, False),
        (20 + 3 * pipeline.ANALYSIS_SEGMENT, 20, False),
        (3 * pipeline.ANALYSIS_SEGMENT + 17, pipeline.ANALYSIS_SEGMENT + 50, False),
        (2 * pipeline.ANALYSIS_SEGMENT + 31, 0, True),
    ], ids=["shorter-than-a-segment", "ends-on-a-segment", "washout-past-a-segment",
            "resumed-from-state"])
    def test_row_slices_tile_one_run(self, rng, n_drive, washout, resume):
        cfgs = [reservoir.make_tanh_config(m=6, adjacency_seed=k, input_seed=10 + k)
                for k in range(3)]
        drive = rng.uniform(-1.0, 1.0, n_drive)
        state = rng.uniform(-1.0, 1.0, (3, 6)) if resume else None
        whole = reservoir.run_tanh_reservoir(cfgs, drive, washout, state)
        stop = 0
        for rows, x in pipeline._tanh_pieces(cfgs, drive, washout, state):
            assert (rows.start, rows.step) == (stop, None) and rows.stop > stop
            np.testing.assert_array_equal(x, whole[:, rows])
            stop = rows.stop
        assert stop == n_drive - washout


class TestReadoutsAgree:
    """The sweep's baseline cell and the analysis grid's readouts are fitted
    on two paths, each with its own rule for the test split's rows, and both
    are scored through ``linalg.nrmse_sums``; on tanh reservoirs at
    tau_max = 0 they are the same readout."""

    @pytest.mark.parametrize("include_bias,mode", [
        (False, "global"), (True, "global"), (False, "paper-literal"), (True, "paper-literal"),
    ], ids=["False", "True", "False-paper-literal", "True-paper-literal"])
    @pytest.mark.parametrize("continuation", [True, False])
    def test_baseline_cell_matches_analysis_batch(self, monkeypatch, continuation,
                                                  include_bias, mode):
        cfg = tiny_analysis(continuation=continuation, include_bias=include_bias,
                            nrmse_mode=mode, tau_max=0).base
        res_cfgs = [pipeline.build_trial_reservoir(cfg, partial(derive_seed, seed))
                    for seed in (11, 12, 13)]
        datasets = [build_dataset(cfg.data, task) for task in ("observer", "prediction")]
        scored = []  # (target, outputs) of each nrmse_sums call, before it consumes them

        def spy(g, h, mode):
            scored.append((g.copy(), h.copy()))
            return nrmse_sums(g, h, mode)

        with monkeypatch.context() as patch:
            patch.setattr(linalg, "nrmse_sums", spy)
            per_trial = pipeline._analysis_batch(cfg, res_cfgs, datasets, 4)
        # one call per task scores every trial, bitwise as nrmse scores each alone
        assert [outputs.shape for _, outputs in scored] == [(3, scored[0][0].size)] * 2
        errors = list(zip(*per_trial))[2:]
        for dataset, (g, outputs), task_errors in zip(datasets, scored, errors, strict=True):
            trains, tests, *targets = pipeline.run_split_states(
                res_cfgs, dataset, cfg.washout, cfg.continuation)
            for train, test, trial_outputs, error in zip(trains, tests, outputs, task_errors,
                                                         strict=True):
                assert error == nrmse(g, trial_outputs, NrmseMode(mode))
                ctx = pipeline._mask_context(cfg.tau_max, train, test, *targets)
                _, want = score_columns(ctx, np.arange(cfg.n_nodes), cfg.ridge_lambda,
                                        include_bias, NrmseMode(mode))
                assert error == pytest.approx(want, rel=1e-12, abs=0.0)


class TestBuildTrialReservoir:
    """A library ExperimentConfig's reservoir dict reaches the factory by name."""

    TABLES = RESERVOIR_DEFAULTS.values()

    @staticmethod
    def build(table):
        return pipeline.build_trial_reservoir(tiny_config(reservoir=dict(table)),
                                              partial(derive_seed, 7))

    @pytest.mark.parametrize("table", TABLES, ids=list(RESERVOIR_DEFAULTS))
    def test_unknown_field_rejected(self, table):
        # a misspelt beta must not leave the reservoir at the default gain
        with pytest.raises(TypeError, match="bta"):
            self.build({**table, "bta": 0.9})

    def test_unknown_kind_rejected_before_any_simulation(self, monkeypatch):
        # a misspelt kind must not fall through to a reservoir of another kind
        def simulate(*args, **kwargs):
            raise AssertionError("reservoir states were simulated")

        monkeypatch.setattr(reservoir, "run_oeo_reservoir", simulate)
        monkeypatch.setattr(reservoir, "run_tanh_reservoir", simulate)
        with pytest.raises(ConfigError, match="'reservoir.kind'.*'tnah'"):
            sweep(tiny_variant({**TINY_TANH, "kind": "tnah"}))

    @pytest.mark.parametrize("table", TABLES, ids=list(RESERVOIR_DEFAULTS))
    def test_left_out_fields_take_the_config_defaults(self, table):
        got = self.build({"kind": table["kind"], "nodes": table["nodes"]})
        want = self.build(table)
        for f in dataclasses.fields(want):
            np.testing.assert_array_equal(getattr(got, f.name), getattr(want, f.name))


class TestSeedDerivation:
    def test_frozen_reference_values(self):
        # pinned: the derivation is part of the replay contract
        assert derive_seed(1, "trial", 0) == 14846554670716690330
        assert derive_seed(1, "trial", 1) == 3937021591179696062
        assert derive_seed(1, "subset", 0, 0, 10) == 3041934092799301074
        assert derive_seed(12345, "mask") == 16241832744585225427

    def test_distinct_roles_distinct_seeds(self):
        seeds = {
            derive_seed(7, role, 0)
            for role in ("trial", "mask", "adjacency", "input-weights", "subset")
        }
        assert len(seeds) == 5


def test_series_cache_ignores_task(monkeypatch):
    # an observer and a prediction run of one system share one integration
    calls = []
    integrate = dynamics.integrate_chaotic

    def counting(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(dynamics, "integrate_chaotic", counting)
    pipeline._series_cached.cache_clear()
    prediction = tiny_config().data
    observer = dataclasses.replace(prediction, task="observer")
    obs = build_dataset(observer)
    pred = build_dataset(prediction)
    assert len(calls) == 1
    assert obs.task_kind is dynamics.TaskKind.OBSERVER
    assert pred.task_kind is dynamics.TaskKind.ONE_STEP_PREDICTION
    np.testing.assert_array_equal(obs.drive_train, pred.drive_train)
    build_dataset(dataclasses.replace(prediction, train_steps=401))
    assert len(calls) == 2  # a different row count integrates again


def test_unknown_system_rejected_before_integration(monkeypatch):
    # a misspelt system must not integrate the other source
    def integrate(*args, **kwargs):
        raise AssertionError("a source was integrated")

    monkeypatch.setattr(dynamics, "integrate_chaotic", integrate)
    pipeline._series_cached.cache_clear()
    with pytest.raises(ValueError, match="'Lorenz'"):
        build_dataset(dataclasses.replace(tiny_config().data, system="Lorenz"))


def test_dataset_cache_returns_consistent_data():
    cfg = tiny_config()
    a = build_dataset(cfg.data)
    b = build_dataset(cfg.data)
    np.testing.assert_array_equal(a.drive_train, b.drive_train)
    assert a.standardization == b.standardization


class TestSeriesCache:
    PARAMS = dynamics.lorenz_params(transient_samples=20)
    INITIAL = (1.0, 1.0, 1.0)
    N = 50  # the spot checks re-integrate from rows 0, 24 and 48

    @pytest.fixture
    def calls(self, monkeypatch):
        """``(params, n_samples)`` of every ``integrate_chaotic`` call."""
        seen = []
        integrate = dynamics.integrate_chaotic

        def counting(params, initial_state, n_samples):
            seen.append((params, n_samples))
            return integrate(params, initial_state, n_samples)

        monkeypatch.setattr(dynamics, "integrate_chaotic", counting)
        return seen

    def load(self, params=PARAMS, initial=INITIAL, n=N):
        return series_cache.load_or_integrate(params, initial, n)

    def test_warm_read_is_bitwise_and_only_spot_checks(self, series_cache_dir, calls):
        expected = dynamics.integrate_chaotic(self.PARAMS, self.INITIAL, self.N)
        cold = self.load()
        (path,) = series_cache_dir.iterdir()
        stat = path.stat()
        del calls[:]
        warm = self.load()
        assert warm.tobytes() == cold.tobytes() == expected.tobytes()
        assert warm.shape == (self.N, 3) and warm.dtype == np.float64
        assert not warm.flags.writeable and not cold.flags.writeable
        one_interval = dataclasses.replace(self.PARAMS, transient_samples=0)
        assert calls == [(one_interval, 2)] * 3
        assert (path.stat().st_ino, path.stat().st_mtime_ns) == (stat.st_ino, stat.st_mtime_ns)

    @pytest.mark.parametrize("damage", ["truncated", "flipped_byte", "wrong_length", "stale"])
    def test_bad_file_is_reintegrated_and_overwritten(self, series_cache_dir, calls, damage):
        expected = self.load()
        (path,) = series_cache_dir.iterdir()
        good = path.read_bytes()
        if damage == "truncated":
            path.write_bytes(good[:-100])
        elif damage == "flipped_byte":
            # a byte of row 10, which no spot check re-integrates
            data = bytearray(good)
            data[10 * 24 + 3] ^= 0x01
            path.write_bytes(bytes(data))
        elif damage == "wrong_length":
            # a valid file, of one row more
            series_cache._store(path, dynamics.integrate_chaotic(
                self.PARAMS, self.INITIAL, self.N + 1))
        else:
            # a valid digest over rows of another integrator
            series_cache._store(path, dynamics.integrate_chaotic(
                dataclasses.replace(self.PARAMS, time_scale=11.0), self.INITIAL, self.N))
        assert path.read_bytes() != good
        del calls[:]
        assert self.load().tobytes() == expected.tobytes()
        assert (self.PARAMS, self.N) in calls
        assert path.read_bytes() == good
        assert [p.name for p in series_cache_dir.iterdir()] == [path.name]

    def test_cache_dir_that_is_a_file_falls_back(self, tmp_path, monkeypatch):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        expected = dynamics.integrate_chaotic(self.PARAMS, self.INITIAL, self.N)
        assert self.load().tobytes() == expected.tobytes()
        assert self.load().tobytes() == expected.tobytes()
        assert blocker.read_text() == "a file, not a directory"

    def test_cache_dir_location(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setenv("XDG_CACHE_HOME", "relative/dir")  # ignored, as XDG says
        assert series_cache.cache_dir() == tmp_path / ".cache" / "shiftrc"
        monkeypatch.delenv("XDG_CACHE_HOME")
        assert series_cache.cache_dir() == tmp_path / ".cache" / "shiftrc"
        monkeypatch.setattr(series_cache.os.path, "expanduser", lambda path: path)
        assert series_cache.cache_dir() is None  # no home directory: no cache
        expected = dynamics.integrate_chaotic(self.PARAMS, self.INITIAL, self.N)
        assert self.load().tobytes() == expected.tobytes()
        assert not (tmp_path / ".cache").exists()

    def test_divergence_stores_nothing(self, series_cache_dir):
        params = dynamics.rossler_params(time_scale=1.0, dt_internal=0.5, transient_samples=2)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError):
            self.load(params, self.INITIAL, 200)
        assert not series_cache_dir.exists() or not any(series_cache_dir.iterdir())

    def test_each_input_has_its_own_file(self, series_cache_dir):
        variants = [  # (params, initial state, n_samples)
            (self.PARAMS, self.INITIAL, self.N),
            (self.PARAMS, self.INITIAL, self.N + 1),
            (dataclasses.replace(self.PARAMS, dt_internal=0.005), self.INITIAL, self.N),
            (self.PARAMS, (1.0, 1.0, 1.5), self.N),
        ]
        for params, initial, n in variants:
            self.load(params, initial, n)
        assert len(list(series_cache_dir.iterdir())) == len(variants)
        for params, initial, n in variants:  # each file verifies against its own inputs
            path = series_cache._cache_path(params, initial, n)
            assert series_cache._load(path, params, n) is not None
