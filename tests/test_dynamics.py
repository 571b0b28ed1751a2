"""Chaotic source integration, task packaging and standardization."""

import hashlib

import numpy as np
import pytest

from shiftrc.dynamics import (
    ChaoticParams,
    ChaoticSystem,
    TaskKind,
    integrate_chaotic,
    lorenz_params,
    make_task,
    rossler_params,
    standardize,
)
from shiftrc.errors import DegenerateSignalError, DivergenceError


class TestParams:
    def test_defaults_match_operating_point(self):
        p = lorenz_params()
        assert p.p == (10.0, 28.0, 8.0 / 3.0)
        assert p.time_scale == 10.0
        r = rossler_params()
        assert r.p == (0.2, 0.2, 5.7)
        assert r.time_scale == 0.65

    def test_sample_interval_must_be_multiple(self):
        with pytest.raises(ValueError, match="integer multiple"):
            lorenz_params(dt_internal=0.3)

    def test_dt_cannot_exceed_interval(self):
        with pytest.raises(ValueError, match="exceeds"):
            lorenz_params(dt_internal=2.0)

    def test_time_scale_positive(self):
        with pytest.raises(ValueError):
            ChaoticParams(ChaoticSystem.LORENZ, (10.0, 28.0, 8 / 3), 0.0)


class TestIntegration:
    def test_lorenz_stays_on_attractor(self):
        series = integrate_chaotic(lorenz_params(), (1.0, 1.0, 1.0), 2000)
        assert np.all(np.isfinite(series))
        assert np.all(np.abs(series[:, 0]) < 25.0)
        assert np.all((series[:, 2] > 0.0) & (series[:, 2] < 50.0))

    def test_origin_is_equilibrium(self):
        series = integrate_chaotic(
            lorenz_params(transient_samples=0), (0.0, 0.0, 0.0), 5
        )
        np.testing.assert_array_equal(series, 0.0)

    def test_step_refinement_agreement(self):
        coarse = integrate_chaotic(
            lorenz_params(dt_internal=0.01, transient_samples=0), (1.0, 1.0, 1.0), 10
        )
        fine = integrate_chaotic(
            lorenz_params(dt_internal=0.001, transient_samples=0), (1.0, 1.0, 1.0), 10
        )
        assert np.max(np.abs(coarse - fine)) <= 1e-4

    @pytest.mark.parametrize("make", [lorenz_params, rossler_params])
    def test_rk4_self_convergence_order(self, make):
        runs = [
            integrate_chaotic(
                make(dt_internal=dt, transient_samples=0), (1.0, 1.0, 1.0), 10
            )
            for dt in (0.1, 0.05, 0.025)
        ]
        e1 = np.max(np.abs(runs[0] - runs[1]))
        e2 = np.max(np.abs(runs[1] - runs[2]))
        assert np.log2(e1 / e2) >= 3.5

    def test_lorenz_z_band_long_run(self):
        # 1e5 samples after transient; the coarser internal step is still
        # far inside the RK4 stability region at this time scale.
        series = integrate_chaotic(
            lorenz_params(dt_internal=0.1, transient_samples=100),
            (1.0, 1.0, 1.0),
            100_000,
        )
        assert np.all((series[:, 2] > 0.0) & (series[:, 2] < 50.0))

    def test_rossler_bounded(self):
        series = integrate_chaotic(rossler_params(transient_samples=500), (1.0, 1.0, 0.0), 3000)
        assert np.all(np.isfinite(series))
        assert np.max(np.abs(series)) < 60.0

    def test_n_samples_positive(self):
        with pytest.raises(ValueError):
            integrate_chaotic(lorenz_params(), (1.0, 1.0, 1.0), 0)


# SHA-256 of the raw float64 bytes of 300 samples after a 50-sample
# transient. Any change to the order of the RK4 arithmetic changes them.
SERIES_SHA256 = {
    "lorenz": "27a071e0e60fff87b25d8db095eea81d154659d93339d77e0d1b9b6a48088a7a",
    "rossler": "8dc222937f43e99b8ee43a44ca1e33ef30565e1e724e3cd45c803e742bdcc892",
}


class TestIntegrationBits:
    @pytest.mark.parametrize("make, initial", [(lorenz_params, (1.0, 1.0, 1.0)),
                                               (rossler_params, (1.0, 1.0, 0.0))])
    def test_sampled_series_digest(self, make, initial):
        series = integrate_chaotic(make(transient_samples=50), initial, 300)
        assert series.dtype == np.float64 and series.shape == (300, 3)
        name = make().system.value
        assert hashlib.sha256(series.tobytes()).hexdigest() == SERIES_SHA256[name]

    @pytest.mark.parametrize("make, step", [
        # Lorenz blows up inside the transient: it is seen at the first
        # sample, after all 2 x 2 transient steps.
        (lorenz_params, 4),
        # Rossler blows up after the transient: 4 transient steps, then
        # 2 steps to each of samples 1, 2 and 3.
        (rossler_params, 10),
    ])
    def test_divergence_reports_step(self, make, step):
        params = make(time_scale=1.0, dt_internal=0.5, transient_samples=2)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError) as info:
            integrate_chaotic(params, (1.0, 1.0, 1.0), 200)
        assert info.value.step == step


class TestStandardize:
    def test_two_point_hand_value(self):
        out, (mean, std) = standardize(np.array([0.0, 2.0]))
        assert (mean, std) == (1.0, 1.0)
        np.testing.assert_array_equal(out, [-1.0, 1.0])

    def test_idempotent_on_standardized(self, rng):
        x = rng.normal(size=500)
        x = (x - x.mean()) / x.std()
        out, _ = standardize(x)
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_constant_sequence_degenerate(self):
        with pytest.raises(DegenerateSignalError):
            standardize(np.full(10, 3.3))

    def test_reuses_given_stats(self):
        train = np.array([0.0, 2.0, 4.0])
        _, stats = standardize(train)
        out, stats2 = standardize(np.array([6.0]), stats)
        assert stats2 == stats
        np.testing.assert_allclose(out, [(6.0 - 2.0) / stats[1]])


@pytest.fixture(scope="module")
def series():
    return integrate_chaotic(lorenz_params(transient_samples=300), (1.0, 1.0, 1.0), 501)


class TestMakeTask:
    def test_observer_alignment(self, series):
        ds = make_task(series, TaskKind.OBSERVER, split=(300, 200))
        np.testing.assert_array_equal(ds.target_train, series[:300, 2])
        np.testing.assert_array_equal(ds.target_test, series[300:500, 2])
        mean, std = ds.standardization
        np.testing.assert_allclose(ds.drive_train, (series[:300, 0] - mean) / std)

    def test_prediction_alignment(self, series):
        ds = make_task(series, TaskKind.ONE_STEP_PREDICTION, split=(300, 200))
        np.testing.assert_array_equal(ds.target_train, series[1:301, 0])
        np.testing.assert_array_equal(ds.target_test, series[301:501, 0])

    def test_test_split_uses_train_stats_exactly(self, series):
        ds = make_task(series, TaskKind.OBSERVER, split=(300, 200))
        mean, std = ds.standardization
        expect = (series[300:500, 0] - mean) / std
        np.testing.assert_array_equal(ds.drive_test, expect)

    def test_constant_series_prediction(self):
        const = np.full((50, 3), 4.2)
        ds = make_task(
            const, TaskKind.ONE_STEP_PREDICTION, split=(30, 19), standardize_drive=False
        )
        np.testing.assert_array_equal(ds.target_train, 4.2)
        assert ds.standardization is None

    def test_length_boundary(self, series):
        make_task(series[:501], TaskKind.ONE_STEP_PREDICTION, split=(300, 200))
        with pytest.raises(ValueError, match="need 501"):
            make_task(series[:500], TaskKind.ONE_STEP_PREDICTION, split=(300, 200))
