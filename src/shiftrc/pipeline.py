"""End-to-end train/test orchestration.

Drives a reservoir over the train and test splits, builds the time-shifted
matrices, applies a column selection computed on training data only, fits
the ridge readout, and scores both splits. Sweeps average the pivoted-QR
and random selections over masks and subsets and report the percent
improvement between the two arms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import analysis, dynamics, linalg, reservoir, series_cache, shifts
from .config import (AnalysisConfig, DataConfig, ExperimentConfig, check_distinct,
                     check_m_red_grid, derive_seed, invalid_field)
from .errors import DivergenceError
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


def build_trial_reservoir(cfg: ExperimentConfig, seed: int, *indices: int, **overrides):
    """Instantiate one trial's reservoir (mask or adjacency realization);
    ``derive_seed(seed, role, *indices)`` seeds its draw of each role of
    ``reservoir.SEED_ROLES``, ``overrides`` replace reservoir fields. The
    fields go to the factory by name, ``nodes`` as ``m``: one left out
    takes its default, an unknown one raises TypeError, an unknown kind
    ConfigError."""
    params = {**cfg.reservoir, **overrides}
    kind, m = params.pop("kind"), params.pop("nodes")
    if kind not in reservoir.SEED_ROLES:
        raise invalid_field("reservoir.kind", "must be one of "
                            f"{', '.join(reservoir.SEED_ROLES)}, got {kind!r}")
    seeds = {name: derive_seed(seed, role, *indices)
             for name, role in reservoir.SEED_ROLES[kind].items()}
    return getattr(reservoir, f"make_{kind}_config")(m=m, **params, **seeds)


def _run_pieces(res_cfgs: list, drive: np.ndarray, washout: int, bounds, state: np.ndarray):
    """Yield ``(rows, x)`` for the ``(configs, rows, nodes)`` pieces of one
    batched run of ``res_cfgs`` over ``drive``, piece k running from drive
    index ``bounds[k]`` to ``bounds[k + 1]``, ``rows`` the slice of the
    run's rows after its ``washout`` (counted from ``bounds[0]``) that it
    holds. A piece inside the washout yields nothing.

    The run starts from ``state`` and leaves in it, before each piece is
    yielded, the state the next piece starts from: the last row of a tanh
    piece, the last delay period ``(configs, tau_d + 1)`` of an oscillator
    piece, which also reads the sample after it. So another call given the
    same ``state`` and later bounds continues the run. The generator keeps
    no reference to a piece it has yielded: once the consumer drops its
    own, the piece is freed, even while the generator is suspended, and a
    consumer that does so before it resumes the generator holds one piece
    at a time. Any bounds give the states of one run bitwise.

    Raises:
        DivergenceError: as the runner raises it for the one run: ``step``
            counts from the start of ``drive``, not of the piece.
    """
    oeo = isinstance(res_cfgs[0], reservoir.OEOConfig)
    unit = res_cfgs[0].tau_d if oeo else 1  # the runner's steps per drive step
    first = bounds[0] + washout

    def run(start, stop):
        try:
            if oeo:
                return reservoir.run_oeo_reservoir(
                    res_cfgs, drive[start:stop], 0, period=state,
                    next_sample=drive[stop] if stop < drive.shape[0] else None)
            x = reservoir.run_tanh_reservoir(res_cfgs, drive[start:stop], 0, state)
            state[...] = x[:, -1]
            return x
        except DivergenceError as err:
            raise DivergenceError(err.step + start * unit, err.what) from None

    for start, stop in zip(bounds, bounds[1:]):
        if stop <= first:
            run(start, stop)  # inside the washout: only the state it leaves is kept
        else:
            skip = max(first - start, 0)
            yield slice(start + skip - first, stop - first), run(start, stop)[:, skip:]


def _split_runs(res_cfgs: list, dataset: dynamics.TaskDataset, washout: int,
                continuation: bool, size: int | None = None):
    """``(train, test, test_washout)``: the :func:`_run_pieces` of a run of
    ``res_cfgs`` over each split of ``dataset``, and the rows the test run
    drops. A piece spans ``size`` rows after the washout (the first one the
    washout as well), or the whole split if ``size`` is None.

    With ``continuation`` the test run continues the training run from the
    state it left, with no washout: iterate it only once the training
    pieces are exhausted. Otherwise it starts at rest and pays its own
    washout. Either iterator simulates nothing until it is iterated.
    """
    first = res_cfgs[0]
    width = first.tau_d + 1 if isinstance(first, reservoir.OEOConfig) else first.m
    state = np.zeros((len(res_cfgs), width))  # at rest: zero state and history

    def run(drive, start, stop, skip, state):
        steps = [] if size is None else range(start + skip + size, stop, size)
        return _run_pieces(res_cfgs, drive, skip, [start, *steps, stop], state)

    train, test = dataset.drive_train, dataset.drive_test
    if continuation:
        drive = np.concatenate([train, test])
        return (run(drive, 0, train.shape[0], washout, state),
                run(drive, train.shape[0], drive.shape[0], 0, state), 0)
    return (run(train, 0, train.shape[0], washout, state),
            run(test, 0, test.shape[0], washout, np.zeros_like(state)), washout)


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


def _compress(train, target, tau_max: int) -> np.ndarray:
    """The compressed training system of one mask's states ``train``,
    ``(rows, nodes)``, and ``target``, trimmed to the rows of the shifted
    matrix (shift ``tau_max`` drops the first ``tau_max``): a TSQR tree
    (:func:`linalg.tsqr`, unpivoted LAPACK QRs, no normal equations) over
    the row blocks of ``[X | 1 | g]``, each built in one buffer, so the
    shifted matrix is never held whole.

    The returned ``r`` holds one QR of the training system, ``[X | 1 | g]
    = Q R`` for the shifted training matrix ``X`` (C columns), a ones column
    and the training target: its leading C + 1 rows, ``(C + 1) x (C + 2)``,
    whose last column ``c = Q^T g`` is the right-hand side, so for any
    column set S

        ||X_S w - g||^2 = ||r[:, S] w - c||^2 + rho^2,

    with ``rho`` the residual of ``g`` outside the span of ``[X | 1]``. The
    ones column comes after the state columns, so the top C rows alone
    serve fits without a bias (row C is zero in every state column).

    Raises:
        ValueError: a block of the training system holds a non-finite entry.
    """
    def systems():
        for rows, block in _row_blocks(train, tau_max, extra=2):
            block[:, -2] = 1.0
            block[:, -1] = target[rows]
            if not np.all(np.isfinite(block)):
                raise ValueError("training matrix or target contains non-finite entries")
            yield block

    n = train.shape[1] * (tau_max + 1)
    return linalg.tsqr(systems())[: n + 1]


def _fit_group(r, cols, ridge_lambda, include_bias, sizes=None):
    """Weights ``(C + 1, cells)`` of a group of equal-size column sets
    ``cols`` (``(b, k)`` state-column indices), row C holding the bias.

    :func:`linalg.ridge_solve` fits every set on the compressed triangle
    ``r`` of :func:`_compress`, or with ``sizes`` each of its prefixes of
    those sizes; by the residual identity there each fit has the tall
    problem's solution. The sets' columns are gathered at most
    ``linalg.RIDGE_SLICE_BYTES`` at a time. The bias column, if included,
    comes first, so every prefix holds it; it is penalised like the others.
    """
    n = r.shape[0] - 1
    cols = np.asarray(cols, dtype=int)
    if include_bias:
        cols = np.column_stack([np.full(cols.shape[0], n), cols])  # ones column
        sizes = None if sizes is None else [p + 1 for p in sizes]
    rows = n + include_bias
    g = np.broadcast_to(r[:rows, n + 1 :], (cols.shape[0], rows, 1))
    step = max(1, linalg.RIDGE_SLICE_BYTES // (rows * cols.shape[1] * 8))
    w = np.concatenate([linalg.ridge_solve(r[:rows, cols[i : i + step]].transpose(1, 0, 2),
                                           g[i : i + step], ridge_lambda, sizes)
                        for i in range(0, cols.shape[0], step)])[..., 0]
    b, s, k = w.shape
    out = np.zeros((n + 1, b * s))
    cell = np.arange(b * s).reshape(b, s, 1)
    np.add.at(out, (cols[:, None, :], cell), w)  # a column listed twice sums its weights
    return out


def _score_weights(states, target, tau_max: int, w, mode: NrmseMode) -> list[float]:
    """NRMSE on one split of each column of full-width weights ``w``, from
    one pass over the row blocks of the split's ``states``, ``target``
    trimmed to the shifted rows: one product per block predicts every cell,
    and the block's target sums are taken once for all cells
    (:func:`linalg.nrmse_sums`), in the product's one buffer. The product is
    not split by cells or rows: BLAS rounds by its shape."""
    n = w.shape[0] - 1
    errors, target_sum = 0.0, 0
    for rows, x in _row_blocks(states, tau_max):
        h = w[:n].T @ x.T  # (cells, rows)
        h += w[n][:, None]
        block_errors, block_target = linalg.nrmse_sums(target[rows], h, mode)
        del x, h  # frees the product now, and the buffer after the last block
        errors, target_sum = errors + block_errors, target_sum + block_target
    return linalg.nrmse_from_sums(errors, target_sum, mode).tolist()


def _sweep_one_mask(cfg, mask_id, train, target, subset_mode):
    """Fit every cell of one mask (ranked prefixes, random subsets,
    baseline) on its training states ``train`` and ``target``, trimmed to
    the shifted rows, and score it on them: ``(w, labels, train_errors,
    pivot)``.

    The training system is compressed once (:func:`_compress`). The ranked
    arm takes prefixes of one full-width pivot, run on that triangle, and
    fits them all from one factorization; the random subsets of one m_red
    are fitted as one stack. Every cell is then scored in one pass over the
    training split. The baseline is the unshifted reservoir evaluated on the
    same trimmed row window. ``w`` holds the cells' full-width weights, one
    column per cell, for the test pass to score, and ``labels`` each cell's
    ``(method, m_red, mask_id, subset_seed)``, the fields of its TaskResult.
    """
    r = _compress(train, target, cfg.tau_max)
    n = r.shape[0] - 1
    weights, labels = [], []

    def fit(cols, sizes=None):
        return _fit_group(r, cols, cfg.ridge_lambda, cfg.include_bias, sizes)

    pivot = None
    if subset_mode in ("both", "rrqr"):
        pivot = shifts.rrqr_select(r[:n, :n])  # (order, r_diag)
        ranked = fit([pivot[0]], cfg.m_red_grid)
    for j, m_red in enumerate(cfg.m_red_grid):
        if pivot is not None:
            weights.append(ranked[:, j : j + 1])
            labels.append(("rrqr", m_red, mask_id, None))
        if subset_mode in ("both", "random"):
            seeds = [derive_seed(cfg.master_seed, "subset", mask_id, subset_id, m_red)
                     for subset_id in range(cfg.n_random_subsets)]
            weights.append(fit([shifts.random_select(n, m_red, seed) for seed in seeds]))
            labels += [("random", m_red, mask_id, seed) for seed in seeds]
    weights.append(fit([np.arange(cfg.n_nodes)]))  # the shift-0 columns
    labels.append(("baseline", cfg.n_nodes, mask_id, None))
    w = np.hstack(weights)
    errors = _score_weights(train, target, cfg.tau_max, w, NrmseMode(cfg.nrmse_mode))
    return w, labels, errors, pivot


def _run_units(run, units):
    """``run(*unit)`` of each of ``units``, in unit order: the one loop that
    runs a command's units. Units read nothing another unit leaves."""
    return [run(*unit) for unit in units]


def _sweep_masks(cfg: ExperimentConfig, subset_mode: str, masks):
    """``(cells, pivots)`` of the masks ``masks`` (a range of mask ids), a
    unit of :func:`sweep`.

    The masks share the drive, so each split is simulated as one reservoir
    batch, and only one split's states are held at a time. The training
    states come first: each mask is compressed, ranked, fitted and scored
    on them block by block, so no tall shifted matrix is held, and only its
    weights are kept. The training states are dropped before the test split
    is simulated (continuing the training run if ``cfg.continuation``) and
    every mask's weights are scored on it. A batched run equals each
    member's own run bitwise, so any split of the masks gives the same bits.
    """
    res_cfgs = [build_trial_reservoir(cfg, derive_seed(cfg.master_seed, "trial", i))
                for i in masks]
    dataset = build_dataset(cfg.data)
    train_run, test_run, test_washout = _split_runs(res_cfgs, dataset, cfg.washout,
                                                    cfg.continuation)
    ((_, train),) = train_run
    g_train = dataset.target_train[cfg.washout + cfg.tau_max :]
    per_mask = [_sweep_one_mask(cfg, i, x, g_train, subset_mode) for i, x in zip(masks, train)]
    del train
    ((_, test),) = test_run
    g_test = dataset.target_test[test_washout + cfg.tau_max :]
    cells = []
    for x, (w, labels, train_errors, _) in zip(test, per_mask):
        test_errors = _score_weights(x, g_test, cfg.tau_max, w, NrmseMode(cfg.nrmse_mode))
        cells += [TaskResult(*errors, *label)
                  for label, *errors in zip(labels, train_errors, test_errors)]
    return cells, [pivot for *_, pivot in per_mask if pivot is not None]


def sweep(cfg: ExperimentConfig, subset_mode: str = "both") -> SweepResult:
    """Evaluate every m_red on the grid, averaged over masks and subsets.

    Its one unit, :func:`_sweep_masks` of all masks, gives the cells and
    pivots in mask order, which are pooled into one :class:`SweepRow` per m_red.

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
    results = _run_units(_sweep_masks, [(cfg, subset_mode, range(cfg.n_masks))])
    cells = [cell for unit_cells, _ in results for cell in unit_cells]
    pivots = [pivot for _, unit_pivots in results for pivot in unit_pivots]

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


# A unit of the analysis grid is a range of at most ANALYSIS_BATCH trials of
# one cell, which advance together through pieces of ANALYSIS_SEGMENT drive
# steps. Each piece is folded into per-trial running state (ordinal keys,
# node ranges, QR factors) and dropped before its block is factored, so the
# states held at once are bounded by these two constants rather than by
# n_trials or the run length; over the whole run only the keys (one packed
# key per step: 8 bytes per 13 nodes at window 4) and the two test
# predictions per step are kept.
ANALYSIS_BATCH = 20
ANALYSIS_SEGMENT = 250


def _analysis_batch(cfg: ExperimentConfig, res_cfgs, datasets, window):
    """``(entropy, correlation, nrmse_observer, nrmse_prediction)`` of each
    trial of a batch, streamed over pieces of the run.

    Per trial the training states are folded into the R factor of
    ``[1 | X | g_obs | g_pred]`` by the TSQR tree of :func:`linalg.tsqr`,
    one piece per block. That keeps the rounding of R close to a single QR
    of the whole matrix, where folding every piece into one running factor
    made readout NRMSEs drift by up to 7e-12 relative. By the residual
    identity of :func:`_compress` both readouts fit on the leading
    ``m + 1`` rows of R. Unlike the sweep's factor, the ones column comes
    first, so the Pearson correlation with ``g_obs`` is read from R as well.
    The test split is predicted piece by piece into one ``(task, trial,
    row)`` array, and each task is scored for every trial at once by
    :func:`linalg.nrmse_sums`, the sweep's own error sums.

    Besides the batch's :class:`analysis.OrdinalCodes` (one packed key per
    trial and window, 32 bytes at 50 nodes and window 4, and a copy of the
    last ``window - 1`` rows) and the small per-trial state, the training
    pass holds at once one training block, that block's QR copy and the
    TSQR factors: each piece is coded and copied into its block, and freed
    before the block is factored. Every block is built in one buffer. At
    the shipped grid's shape (20 trials of 50 nodes, 7900 training rows)
    that peaks at 11.6 MiB under tracemalloc.
    The entropies are taken, and the coder dropped, before the test pass,
    which holds one piece at a time.
    """
    obs, pred = datasets
    washout = cfg.washout
    n_trials, m = len(res_cfgs), res_cfgs[0].m
    train_run, test_run, test_washout = _split_runs(res_cfgs, obs, washout, cfg.continuation,
                                                    ANALYSIS_SEGMENT)
    g_train = np.column_stack([obs.target_train[washout:], pred.target_train[washout:]])
    coder = analysis.OrdinalCodes(n_trials, g_train.shape[0], m, window)
    lo = np.full((n_trials, m), np.inf)
    hi = np.full((n_trials, m), -np.inf)

    def systems():
        # every block is a view of one buffer, which the next piece overwrites
        buffer = np.empty((n_trials, min(ANALYSIS_SEGMENT, g_train.shape[0]), m + 3))
        buffer[:, :, 0] = 1.0
        for rows, x in train_run:
            coder.add(x)
            np.minimum(lo, x.min(axis=1), out=lo)
            np.maximum(hi, x.max(axis=1), out=hi)
            block = buffer[:, : x.shape[1]]
            block[:, :, 1 : m + 1] = x
            block[:, :, m + 1 :] = g_train[rows]
            del x
            yield block

    r = linalg.tsqr(systems())
    entropies = coder.entropies()
    del coder

    # Both readouts of every trial: one stacked solve, the two targets
    # sharing each trial's design. A bias fit takes the ones column too,
    # and its weight comes first.
    bias = int(cfg.include_bias)
    w = linalg.ridge_solve(r[:, : m + 1, 1 - bias : m + 1], r[:, : m + 1, m + 1 :],
                           cfg.ridge_lambda)[:, 0]
    g_test = np.stack([obs.target_test, pred.target_test])[:, test_washout:]
    h = np.empty((2, n_trials, g_test.shape[1]))  # (task, trial, row)
    for rows, x in test_run:
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


def _analysis_unit(acfg: AnalysisConfig, i_fw, f_w, i_fa, f_a, trials):
    """The per-trial results of :func:`_analysis_batch` for the trials
    ``trials`` (a range) of grid cell ``(i_fw, i_fa)``, a unit of
    :func:`analysis_sweep`. The two tasks share the drive, so the same
    states serve both fits; their datasets come from the series cache."""
    cfg = acfg.base
    res_cfgs = [build_trial_reservoir(cfg, cfg.master_seed, i_fw, i_fa, trial, f_w=f_w, f_a=f_a)
                for trial in trials]
    datasets = (build_dataset(cfg.data, "observer"), build_dataset(cfg.data, "prediction"))
    return _analysis_batch(cfg, res_cfgs, datasets, acfg.window)


def analysis_sweep(acfg: AnalysisConfig) -> list[AnalysisRow]:
    """Entropy, node-target correlation, and unshifted-readout errors over
    the (f_w, f_a) sparseness grid, averaged over seeded trials. Raises
    ConfigError, before any data is loaded, if the base reservoir is not a
    tanh network or a value of either grid axis is repeated.

    The grid is its units, :func:`_analysis_unit` of each cell's trials in
    ranges of at most ANALYSIS_BATCH, plus a reduction: each cell's
    per-trial results, in unit order, averaged into its row in grid order.
    """
    if acfg.base.reservoir["kind"] != "tanh":
        raise invalid_field("reservoir.kind",
                            "the sparseness analysis grid runs on the tanh reservoir")
    check_distinct("analysis.f_w_values", acfg.f_w_values)
    check_distinct("analysis.f_a_values", acfg.f_a_values)
    n = acfg.n_trials
    units = [(acfg, i_fw, f_w, i_fa, f_a, range(first, min(first + ANALYSIS_BATCH, n)))
             for i_fw, f_w in enumerate(acfg.f_w_values)
             for i_fa, f_a in enumerate(acfg.f_a_values)
             for first in range(0, n, ANALYSIS_BATCH)]
    per_cell = {}  # (i_fw, f_w, i_fa, f_a): the cell's per-trial results
    for unit, per_trial in zip(units, _run_units(_analysis_unit, units)):
        per_cell.setdefault(unit[1:5], []).extend(per_trial)
    return [AnalysisRow(f_w, f_a, *(float(np.mean(values)) for values in zip(*per_trial)))
            for (_, f_w, _, f_a), per_trial in per_cell.items()]
