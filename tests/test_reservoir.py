"""Reservoir back-ends: adjacency/mask generation and both simulators."""

import dataclasses

import numpy as np
import pytest
from scipy.signal import lfilter

from shiftrc import reservoir
from shiftrc.errors import DivergenceError
from shiftrc.reservoir import (
    OEO_CHUNK,
    OEOConfig,
    StateMatrix,
    TanhReservoirConfig,
    generate_adjacency,
    generate_input_weights,
    make_oeo_config,
    make_tanh_config,
    run_oeo_reservoir,
    run_tanh_reservoir,
)


class TestAdjacency:
    def test_density_and_radius(self):
        a = generate_adjacency(50, 0.5, 0.5, rng_seed=101)
        n_nonzero = np.count_nonzero(a)
        assert 1225 <= n_nonzero <= 1225 + 50  # guarantee pass may add entries
        rho = np.max(np.abs(np.linalg.eigvals(a)))
        assert rho == pytest.approx(0.5, abs=1e-8)
        assert np.all(np.diag(a) == 0.0)

    def test_two_by_two_exact(self):
        a = generate_adjacency(2, 1.0, 0.5, rng_seed=7)
        assert a[0, 0] == a[1, 1] == 0.0
        assert np.sqrt(abs(a[0, 1] * a[1, 0])) == pytest.approx(0.5, abs=1e-12)

    def test_every_row_gets_an_input(self):
        for seed in range(20):
            a = generate_adjacency(10, 0.1, 0.5, rng_seed=seed)
            assert np.all(np.count_nonzero(a, axis=1) >= 1)

    def test_deterministic(self):
        a1 = generate_adjacency(20, 0.3, 0.5, rng_seed=5)
        a2 = generate_adjacency(20, 0.3, 0.5, rng_seed=5)
        np.testing.assert_array_equal(a1, a2)

    def test_zero_radius_draw_errors_out(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.zeros(a.shape[0]))
        with pytest.raises(ValueError, match="spectral radius of the sparse draw is zero"):
            generate_adjacency(5, 0.5, 0.5, rng_seed=1)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_adjacency(1, 0.5, 0.5, rng_seed=0)
        with pytest.raises(ValueError):
            generate_adjacency(5, 0.0, 0.5, rng_seed=0)


class TestMask:
    def test_forty_percent_nonzero(self):
        mask = generate_input_weights(10, 0.4, rng_seed=3)
        nz = mask[mask != 0.0]
        assert nz.size == 4
        assert np.all(np.abs(nz) <= 1.0)

    def test_full_mask(self):
        mask = generate_input_weights(10, 1.0, rng_seed=3)
        assert np.count_nonzero(mask) == 10

    def test_deterministic(self):
        np.testing.assert_array_equal(
            generate_input_weights(16, 0.4, rng_seed=9),
            generate_input_weights(16, 0.4, rng_seed=9),
        )

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="no input"):
            generate_input_weights(2, 0.25, rng_seed=0)  # round(0.5) == 0

    def test_input_weights_same_contract(self):
        w = generate_input_weights(50, 0.1, rng_seed=2)
        assert np.count_nonzero(w) == 5
        with pytest.raises(ValueError, match="no input"):
            generate_input_weights(2, 0.25, rng_seed=0)


class TestTanhReservoir:
    def test_bounded_states(self, lorenz_drive_short):
        cfg = make_tanh_config(m=50, adjacency_seed=1, input_seed=2)
        sm = run_tanh_reservoir(cfg, lorenz_drive_short, washout=100)
        assert np.all(np.abs(sm.values) <= 1.0)
        assert sm.values.shape == (len(lorenz_drive_short) - 100, 50)

    def test_constant_collapse(self):
        cfg = TanhReservoirConfig(alpha=1.0, a=np.zeros((3, 3)), w_in=np.zeros(3))
        sm = run_tanh_reservoir(cfg, np.linspace(-1, 1, 20), washout=0)
        np.testing.assert_allclose(sm.values, np.tanh(1.0), atol=1e-15)

    def test_single_step_hand_value(self):
        cfg = TanhReservoirConfig(alpha=0.5, a=np.zeros((1, 1)), w_in=np.ones(1))
        sm = run_tanh_reservoir(cfg, np.array([0.2]), washout=0)
        assert sm.values[0, 0] == pytest.approx(0.5 * np.tanh(1.2), abs=1e-15)

    def test_bound_with_large_initial_state(self, rng):
        cfg = make_tanh_config(m=10, f_a=0.5, adjacency_seed=4, input_seed=5)
        x0 = np.full(10, 2.5)
        sm = run_tanh_reservoir(cfg, rng.normal(size=60), washout=0, initial_state=x0)
        assert np.all(np.abs(sm.values) <= max(np.max(np.abs(x0)), 1.0) + 1e-12)

    def test_echo_state_convergence(self, lorenz_drive_short):
        cfg = make_tanh_config(m=50, adjacency_seed=1, input_seed=2)
        drive = lorenz_drive_short[:150]
        run_a = run_tanh_reservoir(cfg, drive, washout=0)
        run_b = run_tanh_reservoir(cfg, drive, washout=0, initial_state=np.full(50, 0.5))
        diff = np.abs(run_a.values[99] - run_b.values[99]).max()
        assert diff <= 1e-10

    def test_washout_validation(self):
        cfg = TanhReservoirConfig(alpha=0.5, a=np.zeros((1, 1)), w_in=np.ones(1))
        with pytest.raises(ValueError, match="washout"):
            run_tanh_reservoir(cfg, np.zeros(5), washout=5)


def reference_tanh_run(cfg, drive, washout, initial_state=None):
    """The single-config loop the batched map replaced, kept as the oracle."""
    chi = np.zeros(cfg.m) if initial_state is None else np.array(initial_state, dtype=float)
    out = np.empty((len(drive) - washout, cfg.m))
    for i, s in enumerate(drive):
        chi = (1.0 - cfg.alpha) * chi + cfg.alpha * np.tanh(cfg.a @ chi + cfg.w_in * s + 1.0)
        if i >= washout:
            out[i - washout] = chi
    return out


# Leak rates of the tanh batches: a batch shares one, and its draws differ.
TANH_ALPHAS = (0.35, 0.2, 0.9)


def batch_configs(alpha=TANH_ALPHAS[0]):
    return [
        make_tanh_config(m=20, alpha=alpha, f_a=f_a, f_w=f_w,
                         adjacency_seed=10 + k, input_seed=20 + k)
        for k, (f_a, f_w) in enumerate([(0.5, 1.0), (0.1, 0.3), (0.9, 0.6)])
    ]


class TestTanhBatch:
    def test_batch_equals_per_config_runs(self, lorenz_drive_short):
        for alpha in TANH_ALPHAS:
            cfgs = batch_configs(alpha)
            batch = run_tanh_reservoir(cfgs, lorenz_drive_short, washout=50)
            assert batch.shape == (len(cfgs), len(lorenz_drive_short) - 50, 20)
            for cfg, x in zip(cfgs, batch):
                single = run_tanh_reservoir(cfg, lorenz_drive_short, washout=50)
                np.testing.assert_array_equal(x, single.values)
                np.testing.assert_array_equal(x, reference_tanh_run(cfg, lorenz_drive_short, 50))

    def test_pieces_restarted_from_last_state_equal_one_run(self, lorenz_drive_short):
        cfgs = batch_configs()
        whole = run_tanh_reservoir(cfgs, lorenz_drive_short, 50)
        pieces = [run_tanh_reservoir(cfgs, lorenz_drive_short[:300], 50)]
        for start in range(300, len(lorenz_drive_short), 137):
            pieces.append(run_tanh_reservoir(cfgs, lorenz_drive_short[start:start + 137], 0,
                                             initial_state=pieces[-1][:, -1]))
        np.testing.assert_array_equal(np.concatenate(pieces, axis=1), whole)

    def test_batch_of_one_equals_reference_loop(self, lorenz_drive_short, rng):
        cfg = batch_configs(TANH_ALPHAS[1])[1]
        x0 = rng.uniform(-1, 1, size=cfg.m)
        expected = reference_tanh_run(cfg, lorenz_drive_short, 30, x0)
        single = run_tanh_reservoir(cfg, lorenz_drive_short, 30, initial_state=x0)
        (listed,) = run_tanh_reservoir([cfg], lorenz_drive_short, 30, initial_state=[x0])
        np.testing.assert_array_equal(single.values, expected)
        np.testing.assert_array_equal(listed, expected)

    def test_diverging_member_raises_with_its_step(self):
        # An infinite drive sample turns 0 * inf into NaN only in the member
        # with zero input weights; the fully driven member saturates instead.
        full = make_tanh_config(m=10, f_w=1.0, adjacency_seed=1, input_seed=2)
        sparse = make_tanh_config(m=10, f_w=0.5, adjacency_seed=3, input_seed=4)
        drive = np.zeros(40)
        drive[17] = np.inf
        assert np.all(np.isfinite(run_tanh_reservoir(full, drive, 5).values))
        with np.errstate(invalid="ignore"), \
                pytest.raises(DivergenceError, match="config 1") as exc:
            run_tanh_reservoir([full, sparse], drive, washout=5)
        assert exc.value.step == 17

    def test_nan_drive_inside_the_washout_raises_at_its_drive_index(self):
        cfgs = batch_configs()
        drive = np.linspace(-1.0, 1.0, 60)
        drive[5] = np.nan
        # a single config is the batch of one, so its error names config 0
        for run in (cfgs[0], cfgs):
            err = divergence_step(lambda: run_tanh_reservoir(run, drive, washout=20))
            assert err.step == 5 and "config 0" in str(err)

    def test_batch_validation(self):
        small, large = (make_tanh_config(m=m, adjacency_seed=1, input_seed=2) for m in (4, 5))
        with pytest.raises(ValueError, match="equal m"):
            run_tanh_reservoir([small, large], np.zeros(5), washout=0)
        with pytest.raises(ValueError, match="at least one"):
            run_tanh_reservoir([], np.zeros(5), washout=0)
        with pytest.raises(ValueError, match="initial_state"):
            run_tanh_reservoir([small, small], np.zeros(5), 0, initial_state=np.zeros(4))

    def test_batch_of_two_leak_rates_rejected_before_any_step(self):
        # the NaN drive sample would raise DivergenceError at step 0
        base = batch_configs()[0]
        other = dataclasses.replace(base, alpha=0.2)
        with pytest.raises(ValueError, match="must have equal alpha$"):
            run_tanh_reservoir([base, other], np.array([np.nan, 0.0, 0.0]), washout=0)


class TestOEOReservoir:
    def test_bounded_states(self, lorenz_drive_short):
        cfg = make_oeo_config(m=10, mask_seed=42)
        sm = run_oeo_reservoir(cfg, lorenz_drive_short[:400], washout=100)
        assert np.all(np.abs(sm.values) <= 0.8 * 1.1)
        assert sm.values.shape == (300, 10)

    def test_zero_gain_exponential_decay(self):
        cfg = OEOConfig(mask=np.full(4, 0.5), theta=5, beta=0.0, phi=0.0, rho=0.0)
        sm = run_oeo_reservoir(cfg, np.zeros(40), washout=0, v0=1.0)
        flat = sm.values.ravel()
        assert np.all(np.diff(flat) < 0.0)
        assert np.all(flat > 0.0)
        # Heun's one-step multiplier for v' = -v/tau_L
        tau_l = float(cfg.tau_l)
        a = 1.0 - 1.0 / tau_l + 1.0 / (2.0 * tau_l**2)
        steps = (np.arange(40)[:, None] * cfg.tau_d
                 + (np.arange(4)[None, :] + 1) * cfg.theta).ravel()
        np.testing.assert_allclose(flat, a**steps, rtol=1e-12)
        # and the multiplier tracks the exact exponential to O(1/tau_L^3)
        assert a == pytest.approx(np.exp(-1.0 / tau_l), abs=2.0 / tau_l**3)

    def test_constant_drive_reaches_fixed_point(self):
        m0, s0 = 0.5, 0.8
        cfg = OEOConfig(mask=np.full(3, m0), theta=5, beta=0.8, phi=0.2, rho=0.4)
        sm = run_oeo_reservoir(cfg, np.full(3000, s0), washout=0)
        terminal = sm.values[-1, -1]
        # independent oracle: bisection on v = beta sin^2(v + phi + rho m s)
        c = cfg.phi + cfg.rho * m0 * s0
        lo, hi = 0.0, cfg.beta
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if cfg.beta * np.sin(mid + c) ** 2 - mid > 0.0:
                lo = mid
            else:
                hi = mid
        assert terminal == pytest.approx(lo, abs=1e-6)

    def test_bitwise_deterministic(self, lorenz_drive_short):
        cfg = make_oeo_config(m=6, theta=8, mask_seed=11)
        a = run_oeo_reservoir(cfg, lorenz_drive_short[:200], washout=20)
        b = run_oeo_reservoir(cfg, lorenz_drive_short[:200], washout=20)
        assert np.array_equal(a.values, b.values)

    def test_zero_input_settles_independently_of_start(self):
        # sub-unity gain: with no input the loop forgets its initial state
        cfg = make_oeo_config(m=4, theta=5, mask_seed=1)
        drive = np.zeros(400)
        from_rest = run_oeo_reservoir(cfg, drive, washout=0, v0=0.0)
        from_high = run_oeo_reservoir(cfg, drive, washout=0, v0=0.7)
        assert np.all(np.abs(from_high.values) <= cfg.beta * 1.1)
        np.testing.assert_allclose(
            from_rest.values[-1], from_high.values[-1], atol=1e-10
        )

    def test_nan_drive_raises_divergence(self):
        cfg = make_oeo_config(m=4, theta=5, mask_seed=1)
        drive = np.zeros(30)
        drive[10] = np.nan
        with pytest.raises(DivergenceError):
            run_oeo_reservoir(cfg, drive, washout=0)

    def test_sample_offset_shifts_sampling(self, lorenz_drive_short):
        cfg_end = make_oeo_config(m=4, theta=5, mask_seed=1)
        cfg_mid = make_oeo_config(m=4, theta=5, sample_offset=3, mask_seed=1)
        end = run_oeo_reservoir(cfg_end, lorenz_drive_short[:100], washout=10)
        mid = run_oeo_reservoir(cfg_mid, lorenz_drive_short[:100], washout=10)
        assert not np.array_equal(end.values, mid.values)


def reference_oeo_run(cfg, drive, washout, v0=0.0):
    """The per-config loop the batched oscillator replaced, kept as the
    oracle: it holds the whole trajectory, v_full[tau_d + t] = v(t), and
    checks it for non-finite values once at the end."""
    drive = np.asarray(drive, dtype=float)
    n_in, theta, tau_d = len(drive), cfg.theta, cfg.tau_d
    tau_l = float(cfg.tau_l)
    a = 1.0 - 1.0 / tau_l + 1.0 / (2.0 * tau_l * tau_l)
    c1 = (1.0 / (2.0 * tau_l)) * (1.0 - 1.0 / tau_l)
    c2 = 1.0 / (2.0 * tau_l)
    v_full = np.zeros(tau_d + n_in * tau_d + 1)
    v_full[tau_d] = float(v0)
    mask_period = np.repeat(cfg.mask, theta)
    forcing_arg = np.empty(tau_d + 1)
    for n in range(n_in):
        base = n * tau_d
        forcing_arg[:tau_d] = (cfg.rho * drive[n]) * mask_period
        nxt = drive[n + 1] if n + 1 < n_in else drive[n_in - 1]
        forcing_arg[tau_d] = cfg.rho * nxt * cfg.mask[0]
        forcing_arg += cfg.phi
        forcing_arg += v_full[base : base + tau_d + 1]
        forcing = cfg.beta * np.sin(forcing_arg) ** 2
        b = c1 * forcing[:-1] + c2 * forcing[1:]
        seg, _ = lfilter([1.0], [1.0, -a], b, zi=np.array([a * v_full[tau_d + base]]))
        v_full[base + tau_d + 1 : base + 2 * tau_d + 1] = seg
    if not np.all(np.isfinite(v_full)):
        bad = int(np.nonzero(~np.isfinite(v_full))[0][0]) - tau_d
        raise DivergenceError(bad, "delay oscillator state")
    offset = cfg.sample_offset if cfg.sample_offset is not None else theta
    sample_t = np.arange(n_in)[:, None] * tau_d + np.arange(cfg.m)[None, :] * theta + offset
    return v_full[tau_d + sample_t][washout:]


# Operating points (beta, phi, rho) of the oscillator batches: a batch
# shares one, and its masks differ.
OEO_GAINS = ((0.8, 0.2, 0.4), (1.1, -0.3, 0.9), (0.5, 0.7, 0.2))


def oeo_batch_configs(sample_offset=None, gains=OEO_GAINS[0]):
    beta, phi, rho = gains
    return [
        make_oeo_config(m=6, theta=8, beta=beta, phi=phi, rho=rho, f_w=f_w,
                        sample_offset=sample_offset, mask_seed=40 + k)
        for k, f_w in enumerate([0.5, 1.0, 0.34])
    ]


def divergence_step(run):
    with np.errstate(invalid="ignore"), pytest.raises(DivergenceError) as exc:
        run()
    return exc.value


class TestOEOBatch:
    @pytest.mark.parametrize("sample_offset", [None, 3])
    def test_batch_equals_per_config_runs_and_reference(self, lorenz_drive_short,
                                                        sample_offset):
        drive = lorenz_drive_short[:300]
        for gains in OEO_GAINS:
            cfgs = oeo_batch_configs(sample_offset, gains)
            batch = run_oeo_reservoir(cfgs, drive, washout=30, v0=0.3)
            assert batch.shape == (len(cfgs), 270, 6)
            for cfg, x in zip(cfgs, batch):
                single = run_oeo_reservoir(cfg, drive, washout=30, v0=0.3)
                assert isinstance(single, StateMatrix)
                np.testing.assert_array_equal(x, single.values)
                np.testing.assert_array_equal(x, reference_oeo_run(cfg, drive, 30, 0.3))

    @pytest.mark.parametrize("n_in,washout", [
        (OEO_CHUNK // 2, 5),                     # shorter than one chunk
        (2 * OEO_CHUNK, OEO_CHUNK + 3),          # washout past the first chunk
        (2 * OEO_CHUNK + 1, 2 * OEO_CHUNK - 1),  # a last chunk of one step
        (3 * OEO_CHUNK + 17, OEO_CHUNK),         # not a multiple of the chunk
    ])
    @pytest.mark.parametrize("sample_offset", [None, 3])
    def test_chunk_boundaries_equal_reference(self, lorenz_drive_short, n_in, washout,
                                              sample_offset):
        cfgs = oeo_batch_configs(sample_offset)
        drive = lorenz_drive_short[:n_in]
        batch = run_oeo_reservoir(cfgs, drive, washout=washout, v0=0.3)
        for cfg, x in zip(cfgs, batch):
            np.testing.assert_array_equal(x, reference_oeo_run(cfg, drive, washout, 0.3))
            assert x.shape == (n_in - washout, 6)

    @pytest.mark.parametrize("bad_index", [10, 11, OEO_CHUNK - 1, OEO_CHUNK, 299])
    def test_nan_drive_raises_at_the_reference_step(self, bad_index):
        cfgs = oeo_batch_configs()
        drive = np.linspace(-1.0, 1.0, 300)
        drive[bad_index] = np.nan
        want = divergence_step(lambda: reference_oeo_run(cfgs[1], drive, 0)).step
        # a single config is the batch of one, so its error names config 0
        for run in (cfgs[1], cfgs):
            err = divergence_step(lambda: run_oeo_reservoir(run, drive, 0))
            assert err.step == want and "config 0" in str(err)

    def test_diverging_member_raises_with_its_step(self):
        good, bad = oeo_batch_configs()[:2]
        # set past the config's range check, so only this member diverges
        bad.mask[2] = np.nan
        # longer than one chunk: the whole chunk runs before its check
        drive = np.linspace(-1.0, 1.0, OEO_CHUNK + 50)
        want = divergence_step(lambda: reference_oeo_run(bad, drive, 0)).step
        err = divergence_step(lambda: run_oeo_reservoir([good, bad], drive, washout=5))
        assert err.step == want and "config 1" in str(err)

    def test_direct_filter_kernel_equals_lfilter(self, rng):
        # The oscillator calls lfilter's private compiled kernel; a SciPy
        # release that changes or removes it must fail here.
        tau_l = 4.0 * 8
        a = 1.0 - 1.0 / tau_l + 1.0 / (2.0 * tau_l * tau_l)
        numer, denom = np.array([1.0]), np.array([1.0, -a])
        rhs = rng.uniform(-1.0, 1.0, size=(3, 6 * 8))
        zi = a * rng.uniform(-1.0, 1.0, size=(3, 1))
        seg, zf = reservoir._linear_filter(numer, denom, rhs, -1, zi)
        want_seg, want_zf = lfilter(numer, denom, rhs, axis=-1, zi=zi)
        np.testing.assert_array_equal(seg, want_seg)
        np.testing.assert_array_equal(zf, want_zf)

    def test_batch_validation(self):
        base = make_oeo_config(m=4, theta=5, f_w=0.5, mask_seed=1)
        for field, other in (
                ("m", make_oeo_config(m=6, theta=6, f_w=0.5, mask_seed=1)),
                ("theta", make_oeo_config(m=4, theta=6, f_w=0.5, mask_seed=1)),
                ("sample_offset",
                 make_oeo_config(m=4, theta=5, f_w=0.5, sample_offset=2, mask_seed=1))):
            with pytest.raises(ValueError, match=f"must have equal {field}$"):
                run_oeo_reservoir([base, other], np.zeros(5), washout=0)
        with pytest.raises(ValueError, match="at least one"):
            run_oeo_reservoir([], np.zeros(5), washout=0)

    @pytest.mark.parametrize("field,value", [
        ("theta", 6), ("beta", 0.9), ("phi", -0.2), ("rho", 0.5), ("sample_offset", 2),
    ])
    def test_batch_of_two_operating_points_rejected_before_any_step(self, field, value):
        # the configs differ in this field alone, and the NaN drive sample
        # would raise DivergenceError at step 0
        base = make_oeo_config(m=4, theta=5, f_w=0.5, mask_seed=1)
        other = dataclasses.replace(base, **{field: value})
        with pytest.raises(ValueError, match=f"must have equal {field}$"):
            run_oeo_reservoir([base, other], np.array([np.nan, 0.0, 0.0]), washout=0)

    @pytest.mark.parametrize("sample_offset", [None, 3])
    def test_single_config_is_the_batch_of_one(self, lorenz_drive_short, sample_offset):
        cfg = oeo_batch_configs(sample_offset, OEO_GAINS[1])[2]
        drive = lorenz_drive_short[:OEO_CHUNK + 20]
        single = run_oeo_reservoir(cfg, drive, washout=7, v0=0.3)
        (listed,) = run_oeo_reservoir([cfg], drive, washout=7, v0=0.3)
        assert isinstance(single, StateMatrix)
        np.testing.assert_array_equal(single.values, listed)


@pytest.mark.parametrize("kind", ["tanh", "oeo"])
def test_batch_of_another_kind_rejected_before_any_step(kind):
    # equal in m, so the kind is checked before any field is compared and
    # the other kind's fields are not read: no AttributeError, no TypeError
    tanh = make_tanh_config(m=6, adjacency_seed=1, input_seed=2)
    oeo = oeo_batch_configs()[0]
    run, own, other = ((run_tanh_reservoir, tanh, oeo) if kind == "tanh"
                       else (run_oeo_reservoir, oeo, tanh))
    for cfgs in ([own, other], [other, own], other, [other]):
        with pytest.raises(ValueError, match="configs of a batch must be of one kind"):
            run(cfgs, np.array([np.nan, 0.0, 0.0]), washout=0)


class TestConfigs:
    def test_oeo_derived_times_exact(self):
        cfg = make_oeo_config(m=10, theta=40, mask_seed=0)
        assert cfg.tau_l == 160
        assert cfg.tau_d == 400

    def test_oeo_mask_range_validated(self):
        for entry in (1.5, np.nan):
            with pytest.raises(ValueError, match="-1, 1"):
                OEOConfig(mask=np.array([entry, 0.5]), theta=5, beta=0.8, phi=0.2, rho=0.4)

    @pytest.mark.parametrize("field", ["beta", "phi", "rho"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_oeo_gains_must_be_finite(self, field, value):
        gains = {"beta": 0.8, "phi": 0.2, "rho": 0.4, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            OEOConfig(mask=np.full(3, 0.5), theta=5, **gains)

    def test_tanh_diagonal_validated(self):
        with pytest.raises(ValueError, match="diagonal"):
            TanhReservoirConfig(alpha=0.5, a=np.eye(2), w_in=np.ones(2))

    def test_node_count_is_the_input_vector_length(self):
        # a config is its arrays: m is read from mask / w_in, and how the
        # mask was drawn (f_w) is not part of it
        oeo = make_oeo_config(m=6, f_w=0.5, mask_seed=3)
        assert oeo.m == len(oeo.mask) == 6 and oeo.tau_d == 6 * oeo.theta
        assert not hasattr(oeo, "f_w")
        tanh = make_tanh_config(m=5, adjacency_seed=1, input_seed=2)
        assert tanh.m == len(tanh.w_in) == 5
        with pytest.raises(AttributeError):
            oeo.m = 7

    @pytest.mark.parametrize("mask", [np.linspace(-1.0, 1.0, 5), [0.0, 0.0, -0.3]])
    def test_any_mask_in_range_accepted(self, mask):
        # a dense mask and one with a single nonzero entry: no draw rule
        cfg = OEOConfig(mask=mask, theta=5, beta=0.8, phi=0.2, rho=0.4)
        assert cfg.m == len(mask)
        assert run_oeo_reservoir(cfg, np.linspace(-1.0, 1.0, 8), 0).values.shape == (8, cfg.m)

    @pytest.mark.parametrize("mask", [np.full((2, 3), 0.5), np.zeros(0)])
    def test_oeo_mask_must_be_a_nonempty_vector(self, mask):
        with pytest.raises(ValueError, match="non-empty vector"):
            OEOConfig(mask=mask, theta=5, beta=0.8, phi=0.2, rho=0.4)

    def test_tanh_input_weights_must_be_a_vector(self):
        with pytest.raises(ValueError, match="non-empty vector"):
            TanhReservoirConfig(alpha=0.5, a=np.zeros((2, 2)), w_in=np.ones((2, 1)))
        with pytest.raises(ValueError, match="adjacency shape"):
            TanhReservoirConfig(alpha=0.5, a=np.zeros((3, 3)), w_in=np.ones(2))
