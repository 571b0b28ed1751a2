"""Shared fixtures and the acceptance-criteria summary reporter."""

import numpy as np
import pytest

from shiftrc import integrate_chaotic, lorenz_params, pipeline, standardize
from shiftrc.linalg import NrmseMode
from shiftrc.reservoir import make_oeo_config, run_oeo_reservoir
from shiftrc.shifts import build_shifted_matrix

ACCEPTANCE_RESULTS = []


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
    return build_shifted_matrix(states, 10)


@pytest.fixture
def rng():
    return np.random.default_rng(20230117)


def mask_context(cfg, trial_seed: int) -> pipeline.MaskContext:
    """One mask of a sweep config simulated alone, shifted and compressed
    as the sweep prepares each of its masks."""
    res_cfg = pipeline.build_trial_reservoir(cfg, trial_seed)
    split = pipeline.run_split_states([res_cfg], pipeline.build_dataset(cfg.data),
                                      cfg.washout, cfg.continuation)[0]
    return pipeline._mask_context(cfg.tau_max, *split)


def score_pairs(ctx, pairs, ridge_lambda: float, include_bias: bool = False,
                mode: NrmseMode = NrmseMode.GLOBAL) -> tuple[float, float]:
    """``(train, test)`` NRMSE of one readout on the (node, shift) ``pairs``,
    fitted and scored as a sweep group of one cell."""
    cols = [ctx.shifted_train.columns.index(p) for p in pairs]
    w = pipeline._fit_group(ctx, [cols], ridge_lambda, include_bias)
    return pipeline._score_weights(ctx, w, mode)[0]
