"""End-to-end train/test orchestration.

Drives a reservoir over the train and test splits, builds the time-shifted
matrices, applies a column selection computed on training data only, fits
the ridge readout, and scores both splits. Sweeps average the pivoted-QR
and random selections over masks and subsets and report the percent
improvement between the two arms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from . import analysis, dynamics, linalg, reservoir, series_cache, shifts
from .config import (AnalysisConfig, DataConfig, ExperimentConfig, check_distinct,
                     check_m_red_grid, derive_seed, invalid_field)
from .linalg import NrmseMode


@dataclass
class TaskResult:
    nrmse_train: float
    nrmse_test: float
    method: str
    m_red: int
    mask_id: int
    subset_seed: int | None = None


@dataclass
class SweepRow:
    m_red: int
    nrmse_rrqr_mean: float | None
    nrmse_rrqr_std: float | None
    nrmse_rand_mean: float | None
    nrmse_rand_std: float | None
    nrmse_baseline_mean: float
    percent_improvement: float | None


@dataclass
class SweepResult:
    rows: list[SweepRow]
    cells: list[TaskResult]
    pivots: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)  # (order, r_diag)


def percent_improvement(delta_rand: float, delta_rrqr: float) -> float:
    """Relative gain of the ranked selection over the random one, percent."""
    if delta_rand <= 0.0:
        raise ValueError(f"delta_rand must be positive, got {delta_rand}")
    return 100.0 * (delta_rand - delta_rrqr) / delta_rand


SUBSET_MODES = ("both", "rrqr", "random")  # the sweep's selection arms


@lru_cache(maxsize=8)
def _series_cached(system: str, dt_internal: float, sample_interval: float,
                   transient_samples: int, initial_state: tuple,
                   n_samples: int) -> np.ndarray:
    params = getattr(dynamics, f"{dynamics.ChaoticSystem(system).value}_params")(
        dt_internal=dt_internal,
        sample_interval=sample_interval,
        transient_samples=transient_samples,
    )
    return series_cache.load_or_integrate(params, initial_state, n_samples)


def build_series(data: DataConfig) -> np.ndarray:
    """Sampled 3-column source series for a data config (cached, read-only).

    The cache is keyed on the integration parameters only, so configs that
    differ in task or drive standardization share one integration. It is
    kept in memory and, across processes, on disk (see
    :mod:`shiftrc.series_cache`). An unknown system raises ValueError first.
    """
    return _series_cached(data.system, data.dt_internal, data.sample_interval,
                          data.transient_samples, data.initial_state,
                          data.train_steps + data.test_steps + 1)


def build_dataset(data: DataConfig, task: str | None = None) -> dynamics.TaskDataset:
    """Task dataset for a data config; ``task`` overrides the configured kind."""
    kind = dynamics.TaskKind(task if task is not None else data.task)
    return dynamics.make_task(
        build_series(data),
        kind,
        split=(data.train_steps, data.test_steps),
        standardize_drive=data.standardize_drive,
    )


def build_trial_reservoir(cfg: ExperimentConfig, seed, **overrides):
    """Instantiate one trial's reservoir (mask or adjacency realization);
    ``seed(role)`` seeds each draw (``reservoir.SEED_ROLES``), ``overrides``
    replace reservoir fields. The fields go to the factory by name,
    ``nodes`` as ``m``: one left out takes its default, an unknown one
    raises TypeError, an unknown kind ConfigError."""
    params = {**cfg.reservoir, **overrides}
    kind, m = params.pop("kind"), params.pop("nodes")
    if kind not in reservoir.SEED_ROLES:
        raise invalid_field("reservoir.kind", "must be one of "
                            f"{', '.join(reservoir.SEED_ROLES)}, got {kind!r}")
    seeds = {name: seed(role) for name, role in reservoir.SEED_ROLES[kind].items()}
    return getattr(reservoir, f"make_{kind}_config")(m=m, **params, **seeds)


def run_split_states(res_cfgs: list, dataset: dynamics.TaskDataset, washout: int,
                     continuation: bool = True):
    """Run reservoirs over both splits: ``(train, test, g_train, g_test)``,
    the ``(configs, rows, nodes)`` state batch of each split and the
    targets aligned to their rows.

    The configs, all of one kind, run as one batch (one call per drive).
    With ``continuation`` the test split continues from the post-training
    reservoir state (one run over the concatenated drive, split by rows into
    two views); otherwise the test split starts fresh and pays its own washout.
    """
    run = (reservoir.run_oeo_reservoir if isinstance(res_cfgs[0], reservoir.OEOConfig)
           else reservoir.run_tanh_reservoir)
    drives = (dataset.drive_train, dataset.drive_test)
    if continuation:
        train, test = np.split(run(res_cfgs, np.concatenate(drives), washout),
                               [drives[0].shape[0] - washout], axis=1)
    else:
        train, test = (run(res_cfgs, drive, washout) for drive in drives)
    return (train, test, dataset.target_train[washout:],
            dataset.target_test[0 if continuation else washout:])


# Shifted matrices are built, factored and scored in blocks of rows, so a
# mask holds one block at a time instead of its tall train and test
# matrices. A block has at least BLOCK_ROWS rows, and at least four times
# the columns of [X | 1 | g]. Measured on one thread for 7890 rows (medians
# of 15): at 112 columns the TSQR tree took 26 ms with blocks of 1024 or
# 2048 rows and 37 ms at 4096, against 42 ms for one QR; at 552 columns it
# took 312 ms at 1024 rows, 243-249 ms at 2048 or 2208 (4 x 552) and 265 ms
# at 4096, against 251 ms for one QR.
BLOCK_ROWS = 2048


def _row_blocks(states: np.ndarray, tau_max: int, extra: int = 0):
    """Yield ``(rows, x)`` for consecutive row blocks ``x`` of the shifted
    matrix of ``states``, ``rows`` the slice of that matrix each one holds;
    each block is built from the ``tau_max`` state rows before it as well.
    ``x`` has ``extra`` more columns for the caller to fill. Every block is
    a view of one buffer, which the next block overwrites."""
    n_rows = states.shape[0] - tau_max
    if n_rows < 1:
        raise ValueError(f"need more than tau_max={tau_max} rows, have {states.shape[0]}")
    n = states.shape[1] * (tau_max + 1)
    step = max(BLOCK_ROWS, 4 * (n + 2))
    buffer = np.empty((min(step, n_rows), n + extra))
    for start in range(0, n_rows, step):
        rows = slice(start, min(start + step, n_rows))
        x = buffer[: rows.stop - start]
        shifts.build_shifted_matrix(states[start : rows.stop + tau_max], tau_max, out=x[:, :n])
        yield rows, x


@dataclass
class MaskContext:
    """Everything one (mask, task) pair needs to score any selection.

    ``train`` and ``test`` are the mask's reservoir states, ``(rows,
    nodes)`` per split, and the targets are trimmed to the rows of their
    shifted matrices (shift ``tau_max`` drops the first ``tau_max``). The
    shifted matrices themselves are never held whole; they are rebuilt
    block by block (:func:`_row_blocks`) where they are needed.

    ``r`` holds one QR of the training system, ``[X | 1 | g] = Q R`` for
    the shifted training matrix ``X`` (C columns), a ones column and the
    training target: its leading C + 1 rows, ``(C + 1) x (C + 2)``, whose
    last column ``c = Q^T g`` is the right-hand side, so for any column set S

        ||X_S w - g||^2 = ||r[:, S] w - c||^2 + rho^2,

    with ``rho`` the residual of ``g`` outside the span of ``[X | 1]``. The
    ones column comes after the state columns, so the top C rows alone
    serve fits without a bias (row C is zero in every state column).
    """

    train: np.ndarray
    test: np.ndarray
    tau_max: int
    target_train: np.ndarray
    target_test: np.ndarray
    r: np.ndarray


def _mask_context(tau_max: int, train, test, g_train, g_test) -> MaskContext:
    """Compress the training system of one mask's states: a TSQR tree
    (:func:`linalg.tsqr`, unpivoted LAPACK QRs; no normal equations are
    formed) over the row blocks of ``[X | 1 | g]``, each built in one buffer.

    Raises:
        ValueError: a block of the training system holds a non-finite entry.
    """
    target_train = g_train[tau_max:]

    def systems():
        for rows, block in _row_blocks(train, tau_max, extra=2):
            block[:, -2] = 1.0
            block[:, -1] = target_train[rows]
            if not np.all(np.isfinite(block)):
                raise ValueError("training matrix or target contains non-finite entries")
            yield block

    n = train.shape[1] * (tau_max + 1)
    return MaskContext(train, test, tau_max, target_train, g_test[tau_max:],
                       r=linalg.tsqr(systems())[: n + 1])


def _fit_group(ctx: MaskContext, cols, ridge_lambda, include_bias, sizes=None):
    """Weights ``(C + 1, cells)`` of a group of equal-size column sets
    ``cols`` (``(b, k)`` state-column indices), row C holding the bias.

    :func:`linalg.ridge_solve` fits every set on the compressed triangle,
    or with ``sizes`` each of its prefixes of those sizes; by the residual
    identity of :class:`MaskContext` each fit has the tall problem's
    solution. The sets' columns are gathered at most
    ``linalg.RIDGE_SLICE_BYTES`` at a time. The bias column, if included,
    comes first, so every prefix holds it; it is penalised like the others.
    """
    n = ctx.r.shape[0] - 1
    cols = np.asarray(cols, dtype=int)
    if include_bias:
        cols = np.column_stack([np.full(cols.shape[0], n), cols])  # ones column
        sizes = None if sizes is None else [p + 1 for p in sizes]
    rows = n + include_bias
    g = np.broadcast_to(ctx.r[:rows, n + 1 :], (cols.shape[0], rows, 1))
    step = max(1, linalg.RIDGE_SLICE_BYTES // (rows * cols.shape[1] * 8))
    w = np.concatenate([linalg.ridge_solve(ctx.r[:rows, cols[i : i + step]].transpose(1, 0, 2),
                                           g[i : i + step], ridge_lambda, sizes)
                        for i in range(0, cols.shape[0], step)])[..., 0]
    b, s, k = w.shape
    out = np.zeros((n + 1, b * s))
    cell = np.arange(b * s).reshape(b, s, 1)
    np.add.at(out, (cols[:, None, :], cell), w)  # a column listed twice sums its weights
    return out


def _score_weights(ctx: MaskContext, w, mode: NrmseMode) -> list[tuple[float, float]]:
    """``(train, test)`` NRMSE of each column of full-width weights ``w``,
    from one pass over the row blocks of each split: one product per block
    predicts every cell, and the block's target sums are taken once for all
    cells (:func:`linalg.nrmse_sums`), in the product's one buffer. The
    product is not split by cells or rows: BLAS rounds by its shape."""
    n = w.shape[0] - 1
    errs = []
    for states, g in ((ctx.train, ctx.target_train), (ctx.test, ctx.target_test)):
        errors, target = 0.0, 0
        for rows, x in _row_blocks(states, ctx.tau_max):
            h = w[:n].T @ x.T  # (cells, rows)
            h += w[n][:, None]
            block_errors, block_target = linalg.nrmse_sums(g[rows], h, mode)
            del x, h  # frees the product now, and the buffer after the last block
            errors, target = errors + block_errors, target + block_target
        errs.append(linalg.nrmse_from_sums(errors, target, mode).tolist())
    return list(zip(*errs))


def _sweep_one_mask(cfg, mask_id, ctx, subset_mode):
    """Score every cell of one mask: ranked prefixes, random subsets, baseline.

    The ranked arm takes prefixes of one full-width pivot, run on the
    training triangle the compression already holds, and fits them all from
    one factorization; the random subsets of one m_red are fitted as one
    stack. Every cell is then scored in one pass over each split. The
    baseline is the unshifted reservoir evaluated on the same trimmed row
    window.
    """
    n = ctx.r.shape[0] - 1
    weights, labels = [], []

    def fit(cols, sizes=None):
        return _fit_group(ctx, cols, cfg.ridge_lambda, cfg.include_bias, sizes)

    pivot = None
    if subset_mode in ("both", "rrqr"):
        pivot = shifts.rrqr_select(ctx.r[:n, :n])  # (order, r_diag)
        ranked = fit([pivot[0]], cfg.m_red_grid)
    for j, m_red in enumerate(cfg.m_red_grid):
        if pivot is not None:
            weights.append(ranked[:, j : j + 1])
            labels.append(("rrqr", m_red, None))
        if subset_mode in ("both", "random"):
            seeds = [derive_seed(cfg.master_seed, "subset", mask_id, subset_id, m_red)
                     for subset_id in range(cfg.n_random_subsets)]
            weights.append(fit([shifts.random_select(n, m_red, seed) for seed in seeds]))
            labels += [("random", m_red, seed) for seed in seeds]
    weights.append(fit([np.arange(cfg.n_nodes)]))  # the shift-0 columns
    labels.append(("baseline", cfg.n_nodes, None))
    scores = _score_weights(ctx, np.hstack(weights), NrmseMode(cfg.nrmse_mode))
    cells = [TaskResult(train_err, test_err, method, m_red, mask_id, seed)
             for (train_err, test_err), (method, m_red, seed) in zip(scores, labels)]
    return cells, pivot


def sweep(cfg: ExperimentConfig, subset_mode: str = "both") -> SweepResult:
    """Evaluate every m_red on the grid, averaged over masks and subsets.

    All masks share the drive, so they are simulated as one reservoir batch.
    Each mask is then compressed and scored from its states block by block,
    so no tall shifted matrix is held.

    Raises:
        ConfigError: fewer training rows than the columns of ``[X | 1]``,
            an m_red outside 1..nodes*(tau_max+1) or repeated, or an unknown
            reservoir kind, before anything runs (an unknown subset_mode: ValueError).
    """
    if subset_mode not in SUBSET_MODES:
        raise ValueError(f"subset_mode must be one of {SUBSET_MODES}, got {subset_mode!r}")
    check_m_red_grid(cfg.m_red_grid, cfg.n_nodes, cfg.tau_max)
    rows = cfg.data.train_steps - cfg.washout - cfg.tau_max
    columns = cfg.n_nodes * (cfg.tau_max + 1) + 1
    if rows < columns:
        raise invalid_field(
            "data.train_steps", f"{cfg.data.train_steps} leaves "
            f"{rows} training rows after washout {cfg.washout} and tau_max "
            f"{cfg.tau_max}, fewer than the {columns} columns of [X | 1]; a sweep "
            f"needs at least {cfg.washout + cfg.tau_max + columns}")
    trial_seeds = (derive_seed(cfg.master_seed, "trial", i) for i in range(cfg.n_masks))
    res_cfgs = [build_trial_reservoir(cfg, partial(derive_seed, seed)) for seed in trial_seeds]
    train, test, *targets = run_split_states(res_cfgs, build_dataset(cfg.data), cfg.washout,
                                             cfg.continuation)
    per_mask = [
        _sweep_one_mask(cfg, i, _mask_context(cfg.tau_max, train[i], test[i], *targets),
                        subset_mode)
        for i in range(cfg.n_masks)
    ]

    cells = [cell for mask_cells, _ in per_mask for cell in mask_cells]
    pivots = [pivot for _, pivot in per_mask if pivot is not None]

    def stats(method, m_red):
        vals = np.array([c.nrmse_test for c in cells
                         if c.method == method and c.m_red == m_red])
        return (float(vals.mean()), float(vals.std())) if vals.size else (None, None)

    base = float(np.mean([c.nrmse_test for c in cells if c.method == "baseline"]))
    rows = []
    for m_red in cfg.m_red_grid:
        rrqr_mean, rrqr_std = stats("rrqr", m_red)
        rand_mean, rand_std = stats("random", m_red)
        gain = (None if rrqr_mean is None or rand_mean is None
                else percent_improvement(rand_mean, rrqr_mean))
        rows.append(SweepRow(m_red, rrqr_mean, rrqr_std, rand_mean, rand_std, base, gain))
    return SweepResult(rows=rows, cells=cells, pivots=pivots)


@dataclass
class AnalysisRow:
    f_w: float
    f_a: float
    entropy_bits: float
    mean_correlation: float
    nrmse_observer: float
    nrmse_prediction: float


# The trials of an analysis cell advance together, at most ANALYSIS_BATCH at
# a time, through pieces of ANALYSIS_SEGMENT drive steps. Each piece is
# folded into per-trial running state (ordinal codes, node ranges, QR
# factors) and dropped before the next one is simulated, so the states held
# at once are bounded by these two constants rather than by n_trials or the
# run length; over the whole run only the codes (one small integer per node
# and step) and the two test predictions per step are kept.
ANALYSIS_BATCH = 20
ANALYSIS_SEGMENT = 250


def _tanh_pieces(res_cfgs, drive, washout, state=None):
    """Yield ``(rows, x)``, as :func:`_row_blocks` does, for the
    ``(trials, rows, nodes)`` pieces ``x`` of one batched run over ``drive``,
    ``rows`` the slice of the post-washout run each holds; the first piece
    also runs the washout and each later one restarts from a copy of the
    previous piece's last row. The generator lets go of a piece before it
    simulates the next, so a consumer that drops its own reference first
    holds one piece at a time.
    """
    start, skip = 0, washout
    while start < drive.shape[0]:
        stop = min(start + skip + ANALYSIS_SEGMENT, drive.shape[0])
        x = reservoir.run_tanh_reservoir(res_cfgs, drive[start:stop], skip, state)
        yield slice(start + skip - washout, stop - washout), x
        start, skip, state = stop, 0, x[:, -1].copy()
        del x


def _analysis_batch(cfg: ExperimentConfig, res_cfgs, datasets, window):
    """``(entropy, correlation, nrmse_observer, nrmse_prediction)`` of each
    trial of a batch, streamed over pieces of the run.

    Per trial the training states are folded into the R factor of
    ``[1 | X | g_obs | g_pred]`` by the TSQR tree of :func:`linalg.tsqr`,
    one piece per block. That keeps the rounding of R close to a single QR
    of the whole matrix, where folding every piece into one running factor
    made readout NRMSEs drift by up to 7e-12 relative. By the residual
    identity of :class:`MaskContext` both readouts fit on the leading
    ``m + 1`` rows of R. Unlike the sweep's factor, the ones column comes
    first, so the Pearson correlation with ``g_obs`` is read from R as well.
    The test split is predicted piece by piece into one ``(task, trial,
    row)`` array, and each task is scored for every trial at once by
    :func:`linalg.nrmse_sums`, the sweep's own error sums.

    Besides the batch's :class:`analysis.OrdinalCodes` (one small integer
    per trial, node and window, and a copy of the last ``window - 1`` rows)
    and the small per-trial state, the training pass holds at once one
    piece, one training block and that block's QR copy. The entropies are
    taken, and the coder dropped, before the test pass, which holds one
    piece at a time.
    """
    obs, pred = datasets
    washout = cfg.washout
    n_trials, m = len(res_cfgs), res_cfgs[0].m
    g_train = np.column_stack([obs.target_train[washout:], pred.target_train[washout:]])
    coder = analysis.OrdinalCodes(n_trials, g_train.shape[0], m, window)
    lo = np.full((n_trials, m), np.inf)
    hi = np.full((n_trials, m), -np.inf)
    last = None  # the last training state, where a continued test run starts

    def systems():
        nonlocal last
        for rows, x in _tanh_pieces(res_cfgs, obs.drive_train, washout):
            coder.add(x)
            np.minimum(lo, x.min(axis=1), out=lo)
            np.maximum(hi, x.max(axis=1), out=hi)
            last = x[:, -1].copy()
            block = np.empty((*x.shape[:2], m + 3))
            block[:, :, 0] = 1.0
            block[:, :, 1 : m + 1] = x
            block[:, :, m + 1 :] = g_train[rows]
            del x
            yield block
            del block

    r = linalg.tsqr(systems())
    entropies = coder.entropies()
    del coder

    # Both readouts of every trial: one stacked solve, the two targets
    # sharing each trial's design. A bias fit takes the ones column too,
    # and its weight comes first.
    bias = int(cfg.include_bias)
    w = linalg.ridge_solve(r[:, : m + 1, 1 - bias : m + 1], r[:, : m + 1, m + 1 :],
                           cfg.ridge_lambda)[:, 0]
    # A fresh test run pays its own washout; a continued one starts from last.
    test_washout, start = (0, last) if cfg.continuation else (washout, None)
    g_test = np.stack([obs.target_test, pred.target_test])[:, test_washout:]
    h = np.empty((2, n_trials, g_test.shape[1]))  # (task, trial, row)
    for rows, x in _tanh_pieces(res_cfgs, obs.drive_test, test_washout, start):
        h[:, :, rows] = np.matmul(x, w[:, bias:]).transpose(2, 0, 1)
        if bias:
            h[:, :, rows] += w[:, 0].T[:, :, None]
        del x

    mode = NrmseMode(cfg.nrmse_mode)
    errors = [linalg.nrmse_from_sums(*linalg.nrmse_sums(g, outputs, mode), mode).tolist()
              for g, outputs in zip(g_test, h)]  # [task][trial]
    constant = (lo == hi) | (g_train[:, 0].min() == g_train[:, 0].max())
    return [(entropies[t], analysis.correlation_from_r(r[t, : m + 2, : m + 2], constant[t]),
             errors[0][t], errors[1][t]) for t in range(n_trials)]


def _analysis_cell(acfg: AnalysisConfig, i_fw, f_w, i_fa, f_a,
                   datasets) -> AnalysisRow:
    """One grid cell: every trial's diagnostics and readout errors, averaged.

    The two tasks share the drive, so the same states serve both fits.
    """
    cfg = acfg.base
    per_trial = []
    for first in range(0, acfg.n_trials, ANALYSIS_BATCH):
        res_cfgs = [
            build_trial_reservoir(cfg, lambda role, t=trial: derive_seed(
                cfg.master_seed, role, i_fw, i_fa, t), f_w=f_w, f_a=f_a)
            for trial in range(first, min(first + ANALYSIS_BATCH, acfg.n_trials))
        ]
        per_trial += _analysis_batch(cfg, res_cfgs, datasets, acfg.window)
    entropies, correlations, err_obs, err_pred = zip(*per_trial)
    return AnalysisRow(
        f_w=f_w,
        f_a=f_a,
        entropy_bits=float(np.mean(entropies)),
        mean_correlation=float(np.mean(correlations)),
        nrmse_observer=float(np.mean(err_obs)),
        nrmse_prediction=float(np.mean(err_pred)),
    )


def analysis_sweep(acfg: AnalysisConfig) -> list[AnalysisRow]:
    """Entropy, node-target correlation, and unshifted-readout errors over
    the (f_w, f_a) sparseness grid, averaged over seeded trials. Raises
    ConfigError, before any data is loaded, if the base reservoir is not a
    tanh network or a value of either grid axis is repeated."""
    base = acfg.base
    if base.reservoir["kind"] != "tanh":
        raise invalid_field("reservoir.kind",
                            "the sparseness analysis grid runs on the tanh reservoir")
    check_distinct("analysis.f_w_values", acfg.f_w_values)
    check_distinct("analysis.f_a_values", acfg.f_a_values)
    datasets = (build_dataset(base.data, "observer"), build_dataset(base.data, "prediction"))
    return [
        _analysis_cell(acfg, i_fw, f_w, i_fa, f_a, datasets)
        for i_fw, f_w in enumerate(acfg.f_w_values)
        for i_fa, f_a in enumerate(acfg.f_a_values)
    ]
