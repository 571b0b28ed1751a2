"""Chaotic drive and target generation.

Integrates the Lorenz and Rossler systems with fixed-step classical RK4,
samples them on a regular grid, and packages the sampled series into
one-step-prediction and observer task datasets with train-statistics
standardization of the drive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateSignalError, DivergenceError


class ChaoticSystem(Enum):
    LORENZ = "lorenz"
    ROSSLER = "rossler"


class TaskKind(Enum):
    ONE_STEP_PREDICTION = "prediction"
    OBSERVER = "observer"


@dataclass(frozen=True)
class ChaoticParams:
    """Parameters of one chaotic source plus its sampling setup.

    ``p`` holds the three system coefficients and ``time_scale`` divides the
    full right-hand side, stretching the attractor's natural time so that
    unit-interval samples are meaningful reservoir inputs.
    """

    system: ChaoticSystem
    p: tuple[float, float, float]
    time_scale: float
    dt_internal: float = 0.01
    sample_interval: float = 1.0
    transient_samples: int = 1000

    def __post_init__(self):
        if self.time_scale <= 0.0:
            raise ValueError(f"time_scale must be positive, got {self.time_scale}")
        if self.dt_internal <= 0.0:
            raise ValueError(f"dt_internal must be positive, got {self.dt_internal}")
        if self.dt_internal > self.sample_interval:
            raise ValueError(
                f"dt_internal {self.dt_internal} exceeds sample_interval "
                f"{self.sample_interval}"
            )
        ratio = self.sample_interval / self.dt_internal
        if abs(ratio - round(ratio)) > 1e-9 * ratio:
            raise ValueError(
                f"sample_interval {self.sample_interval} is not an integer "
                f"multiple of dt_internal {self.dt_internal}"
            )
        if self.transient_samples < 0:
            raise ValueError("transient_samples must be non-negative")

    @property
    def steps_per_sample(self) -> int:
        return round(self.sample_interval / self.dt_internal)


def lorenz_params(**overrides) -> ChaoticParams:
    """Lorenz source with the standard coefficients and time scale 10."""
    kwargs = dict(
        system=ChaoticSystem.LORENZ,
        p=(10.0, 28.0, 8.0 / 3.0),
        time_scale=10.0,
    )
    kwargs.update(overrides)
    return ChaoticParams(**kwargs)


def rossler_params(**overrides) -> ChaoticParams:
    """Rossler source with the standard coefficients and time scale 0.65."""
    kwargs = dict(
        system=ChaoticSystem.ROSSLER,
        p=(0.2, 0.2, 5.7),
        time_scale=0.65,
    )
    kwargs.update(overrides)
    return ChaoticParams(**kwargs)


def integrate_chaotic(
    params: ChaoticParams,
    initial_state,
    n_samples: int,
) -> np.ndarray:
    """Integrate one system and return ``(n_samples, 3)`` sampled states.

    Classical fourth-order Runge-Kutta at ``dt_internal``; one row every
    ``sample_interval`` time units, the first ``transient_samples`` of the
    sample grid discarded. The first returned row is the state at the end of
    the transient (the initial state itself when the transient is zero).

    Raises:
        DivergenceError: the state became non-finite (names the RK4 step at
            which this was observed).
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    x, y, z = (float(v) for v in initial_state)
    p1, p2, p3 = params.p
    inv = 1.0 / params.time_scale
    dt = params.dt_internal
    steps = params.steps_per_sample

    half = 0.5 * dt
    sixth = dt / 6.0
    out = np.empty((n_samples, 3))
    # One step loop per system, right-hand side written out (no call per
    # stage). Each stage computes inv * f(x, y, z) in this order; another
    # order changes the series bits that tests/test_dynamics.py pins.
    lorenz = params.system is ChaoticSystem.LORENZ
    step_count = 0
    for i in range(n_samples):
        # The first sample ends the transient; each later one is a sample
        # interval further on.
        n_steps = params.transient_samples * steps if i == 0 else steps
        if lorenz:
            for _ in range(n_steps):
                k1x = inv * (p1 * (y - x))
                k1y = inv * (x * (p2 - z) - y)
                k1z = inv * (x * y - p3 * z)
                ax, ay, az = x + half * k1x, y + half * k1y, z + half * k1z
                k2x = inv * (p1 * (ay - ax))
                k2y = inv * (ax * (p2 - az) - ay)
                k2z = inv * (ax * ay - p3 * az)
                ax, ay, az = x + half * k2x, y + half * k2y, z + half * k2z
                k3x = inv * (p1 * (ay - ax))
                k3y = inv * (ax * (p2 - az) - ay)
                k3z = inv * (ax * ay - p3 * az)
                ax, ay, az = x + dt * k3x, y + dt * k3y, z + dt * k3z
                k4x = inv * (p1 * (ay - ax))
                k4y = inv * (ax * (p2 - az) - ay)
                k4z = inv * (ax * ay - p3 * az)
                x = x + sixth * (k1x + 2.0 * (k2x + k3x) + k4x)
                y = y + sixth * (k1y + 2.0 * (k2y + k3y) + k4y)
                z = z + sixth * (k1z + 2.0 * (k2z + k3z) + k4z)
        else:
            for _ in range(n_steps):
                k1x = inv * (-y - z)
                k1y = inv * (x + p1 * y)
                k1z = inv * (p2 + z * (x - p3))
                ax, ay, az = x + half * k1x, y + half * k1y, z + half * k1z
                k2x = inv * (-ay - az)
                k2y = inv * (ax + p1 * ay)
                k2z = inv * (p2 + az * (ax - p3))
                ax, ay, az = x + half * k2x, y + half * k2y, z + half * k2z
                k3x = inv * (-ay - az)
                k3y = inv * (ax + p1 * ay)
                k3z = inv * (p2 + az * (ax - p3))
                ax, ay, az = x + dt * k3x, y + dt * k3y, z + dt * k3z
                k4x = inv * (-ay - az)
                k4y = inv * (ax + p1 * ay)
                k4z = inv * (p2 + az * (ax - p3))
                x = x + sixth * (k1x + 2.0 * (k2x + k3x) + k4x)
                y = y + sixth * (k1y + 2.0 * (k2y + k3y) + k4y)
                z = z + sixth * (k1z + 2.0 * (k2z + k3z) + k4z)
        step_count += n_steps
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise DivergenceError(step_count, "integrator state")
        out[i, 0] = x
        out[i, 1] = y
        out[i, 2] = z
    return out


def standardize(sequence, stats: tuple[float, float] | None = None):
    """Shift/scale a sequence to zero mean and unit population std.

    When ``stats`` is omitted the statistics are computed from the input
    (the training split) and returned for reuse on the test split.

    Raises:
        DegenerateSignalError: the standard deviation is below 1e-12.
    """
    sequence = np.asarray(sequence, dtype=float)
    if stats is None:
        if sequence.size < 2:
            raise ValueError(f"need at least 2 samples, got {sequence.size}")
        mean = float(np.mean(sequence))
        std = float(np.std(sequence))
    else:
        mean, std = float(stats[0]), float(stats[1])
    if std < 1e-12:
        raise DegenerateSignalError(f"signal std {std:.3e} below 1e-12")
    return (sequence - mean) / std, (mean, std)


@dataclass
class TaskDataset:
    """Drive/target pairs for both splits, drive optionally standardized."""

    drive_train: np.ndarray
    target_train: np.ndarray
    drive_test: np.ndarray
    target_test: np.ndarray
    task_kind: TaskKind
    standardization: tuple[float, float] | None


def make_task(
    series: np.ndarray,
    task_kind: TaskKind,
    split: tuple[int, int] = (8000, 7500),
    standardize_drive: bool = True,
) -> TaskDataset:
    """Slice a sampled 3-column series into a train/test task dataset.

    The drive is always the x column. One-step prediction targets the next x
    sample; the observer task targets the simultaneous z sample. Train rows
    precede test rows contiguously. The drive is standardized with training
    statistics (reused verbatim on the test split); targets stay raw.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 2 or series.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) series, got {series.shape}")
    task_kind = TaskKind(task_kind)
    t_train, t_test = split
    if t_train < 1 or t_test < 1:
        raise ValueError(f"split lengths must be positive, got {split}")
    needed = t_train + t_test + 1
    if series.shape[0] < needed:
        raise ValueError(
            f"series too short: need {needed} rows ({t_train} train + {t_test} "
            f"test + 1 lookahead), have {series.shape[0]}"
        )
    x = series[:, 0]
    z = series[:, 2]
    drive_train = x[:t_train]
    drive_test = x[t_train : t_train + t_test]
    if task_kind is TaskKind.ONE_STEP_PREDICTION:
        target_train = x[1 : t_train + 1].copy()
        target_test = x[t_train + 1 : t_train + t_test + 1].copy()
    else:
        target_train = z[:t_train].copy()
        target_test = z[t_train : t_train + t_test].copy()
    if standardize_drive:
        drive_train, stats = standardize(drive_train)
        drive_test, _ = standardize(drive_test, stats)
    else:
        stats = None
        drive_train = drive_train.copy()
        drive_test = drive_test.copy()
    return TaskDataset(
        drive_train=drive_train,
        target_train=target_train,
        drive_test=drive_test,
        target_test=target_test,
        task_kind=task_kind,
        standardization=stats,
    )

