"""Shared fixtures and the acceptance-criteria summary reporter."""

import os

# The suite runs BLAS on one thread unless the caller names a count. OpenBLAS
# reads the variable once, when numpy first loads it, so this comes first.
os.environ["OPENBLAS_NUM_THREADS"] = os.environ.get("OPENBLAS_NUM_THREADS") or "1"

import importlib.util
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from shiftrc import integrate_chaotic, lorenz_params, pipeline, series_cache, standardize
from shiftrc.linalg import NrmseMode
from shiftrc.reservoir import make_oeo_config, run_oeo_reservoir
from shiftrc.shifts import build_shifted_matrix

ACCEPTANCE_RESULTS = []
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def record_criterion(num: int, name: str, seconds: float, passed: bool,
                     detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((num, name, seconds, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num, name, seconds, passed, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        line = f"criterion {num:2d}: {status} ({seconds:7.1f} s)  {name}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def lorenz_drive_short():
    """Standardized Lorenz x drive, 900 samples, short transient."""
    params = lorenz_params(transient_samples=200)
    series = integrate_chaotic(params, (1.0, 1.0, 1.0), 900)
    drive, _ = standardize(series[:, 0])
    drive.setflags(write=False)
    return drive


@pytest.fixture(scope="session")
def oeo_shifted():
    """Shifted states of a 10-node delay reservoir, tau_max = 10: 640 x 110."""
    # a cheap synthetic chaotic-ish drive
    rng = np.random.default_rng(5)
    drive = np.cumsum(rng.normal(size=700))
    drive = (drive - drive.mean()) / drive.std()
    cfg = make_oeo_config(m=10, theta=8, mask_seed=3)
    states = run_oeo_reservoir(cfg, drive, washout=50)
    return build_shifted_matrix(states.values, 10)


@pytest.fixture(autouse=True)
def series_cache_dir(tmp_path_factory, monkeypatch):
    """Every test starts with an empty series cache of its own and never
    reads or writes the user's; CLI subprocesses inherit it. Returns the
    directory the cache files go to."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
    return series_cache.cache_dir()


@pytest.fixture
def perfbench_run(monkeypatch):
    """The benchmark harness ``perfbench/run.py``, imported as a module."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports tracing
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # @dataclass looks the module up
    spec.loader.exec_module(run)
    return run


@pytest.fixture
def rng():
    return np.random.default_rng(20230117)


def split_states(res_cfgs, dataset, washout: int, continuation: bool = True):
    """``(train, test, g_train, g_test)``: the ``(configs, rows, nodes)``
    states of each split, simulated as a sweep simulates them, and the
    targets aligned to their rows."""
    train_run, test_run, test_washout = pipeline._split_runs(res_cfgs, dataset, washout,
                                                             continuation)
    ((_, train),) = train_run
    ((_, test),) = test_run
    return train, test, dataset.target_train[washout:], dataset.target_test[test_washout:]


@dataclass
class SplitContext:
    """One mask's states on both splits, their targets trimmed to the
    shifted rows, and the training system compressed as a sweep compresses
    it (``r``); a sweep simulates the test split only after the training
    fits, so it never holds them together."""

    train: np.ndarray
    tau_max: int
    target_train: np.ndarray
    r: np.ndarray
    test: np.ndarray
    target_test: np.ndarray


def split_context(tau_max: int, train, test, g_train, g_test) -> SplitContext:
    """Both splits of one mask, ``g_train`` and ``g_test`` aligned to the
    states' rows."""
    target_train = g_train[tau_max:]
    return SplitContext(train, tau_max, target_train,
                        pipeline._compress(train, target_train, tau_max),
                        test, g_test[tau_max:])


def score_weights(ctx: SplitContext, w, mode: NrmseMode) -> list[tuple[float, float]]:
    """``(train, test)`` NRMSE of each column of ``w``, each split scored
    as a sweep scores it."""
    return list(zip(*(pipeline._score_weights(x, g, ctx.tau_max, w, mode)
                      for x, g in ((ctx.train, ctx.target_train), (ctx.test, ctx.target_test)))))


def mask_context(cfg, trial_seed: int) -> SplitContext:
    """One mask of a sweep config simulated alone, shifted and compressed
    as the sweep prepares each of its masks."""
    res_cfg = pipeline.build_trial_reservoir(cfg, trial_seed)
    (train,), (test,), *targets = split_states(
        [res_cfg], pipeline.build_dataset(cfg.data), cfg.washout, cfg.continuation)
    return split_context(cfg.tau_max, train, test, *targets)


def tall_matrices(ctx) -> tuple[np.ndarray, np.ndarray]:
    """The whole shifted train and test matrices of a mask context, which
    the context itself never holds: ``build_shifted_matrix`` of its states."""
    return (build_shifted_matrix(ctx.train, ctx.tau_max),
            build_shifted_matrix(ctx.test, ctx.tau_max))


def score_columns(ctx, cols, ridge_lambda: float, include_bias: bool = False,
                  mode: NrmseMode = NrmseMode.GLOBAL) -> tuple[float, float]:
    """``(train, test)`` NRMSE of one readout on the shifted-matrix columns
    ``cols``, fitted as a sweep group of one cell and scored as the sweep
    scores its cells. The sweep never scores a cell alone, so a zero-weight
    cell goes beside it: numpy multiplies a single weight row by gemv, whose
    rounding differs from the gemm that a pass over many cells takes."""
    w = pipeline._fit_group(ctx.r, [cols], ridge_lambda, include_bias)
    return score_weights(ctx, np.column_stack([w, np.zeros_like(w)]), mode)[0]


def traced_peak(fn, *args) -> int:
    """Bytes allocated at the peak of ``fn(*args)`` over the level at the
    call, as tracemalloc counts them (numpy reports its buffers to it)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
