"""Acceptance suite: one test per exit criterion, each timed and reported.

Run with ``pytest tests/test_acceptance.py -v``; a per-criterion pass/fail
summary (with runtimes) is printed at the end of the session.
"""

import contextlib
import hashlib
import json
import time

import numpy as np
import pytest
from scipy import stats

from shiftrc.config import DataConfig, ExperimentConfig
from shiftrc import pipeline
from shiftrc.analysis import reservoir_entropy
from shiftrc.cli import main as cli_main
from shiftrc.linalg import estimate_rank, qr_column_pivot, ridge_fit

from conftest import record_criterion
from oracles import covariance_rank, r22_bound_check, row_dominance_excess
from test_linalg import gram_schmidt_lstsq, thin_q


@contextlib.contextmanager
def criterion(num, name):
    info = {"detail": ""}
    start = time.perf_counter()
    try:
        yield info
    except BaseException:
        record_criterion(num, name, time.perf_counter() - start, False, info["detail"])
        raise
    record_criterion(num, name, time.perf_counter() - start, True, info["detail"])


def paper_scale_config(system, task, **overrides):
    data = DataConfig(
        system=system, task=task, train_steps=8000, test_steps=7500,
        dt_internal=0.01, sample_interval=1.0, transient_samples=1000,
        initial_state=(1.0, 1.0, 1.0), standardize_drive=True,
    )
    kwargs = dict(
        data=data,
        reservoir={"kind": "oeo", "nodes": 10, "theta": 40, "beta": 0.8,
                   "phi": 0.2, "rho": 0.4, "f_w": 0.4, "sample_offset": None},
        tau_max=10,
        m_red_grid=(20, 30, 40, 50),
        ridge_lambda=1e-6,
        n_masks=12,
        n_random_subsets=10,
        master_seed=2301,
        washout=100,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def per_mask_means(result, method, m_red):
    """Per-mask test NRMSE (random arm averaged over its subsets)."""
    out = {}
    for cell in result.cells:
        if cell.method == method and cell.m_red == m_red:
            out.setdefault(cell.mask_id, []).append(cell.nrmse_test)
    return {mask: float(np.mean(v)) for mask, v in sorted(out.items())}


def test_criterion_01_qr_property_suite():
    with criterion(1, "pivoted QR property suite (100 x 200x50)") as info:
        rng = np.random.default_rng(11)
        start = time.perf_counter()
        for _ in range(100):
            b = rng.normal(size=(200, 50))
            qr = qr_column_pivot(b)
            q = thin_q(qr, b)
            rel = np.linalg.norm(b[:, qr.perm] - q @ qr.r) / np.linalg.norm(b)
            assert rel <= 1e-12
            assert np.max(np.abs(q.T @ q - np.eye(50))) <= 1e-12
            assert np.all(np.diff(qr.r_diag) <= 0.0)
            assert row_dominance_excess(qr) <= 4 * np.finfo(float).eps * qr.r_diag[0]
        elapsed = time.perf_counter() - start
        info["detail"] = f"{elapsed:.1f} s for 100 factorizations"
        assert elapsed < 10.0


def test_criterion_02_trailing_block_bound():
    with criterion(2, "trailing-block singular-value bound (100 x 40x10)") as info:
        rng = np.random.default_rng(12)
        start = time.perf_counter()
        worst = -np.inf
        for _ in range(100):
            b = rng.normal(size=(40, 10))
            qr = qr_column_pivot(b)
            sv = np.linalg.svd(b, compute_uv=False)  # independent oracle
            for ell in range(1, 11):
                sigma, r22 = r22_bound_check(qr, ell)
                assert sigma == pytest.approx(sv[10 - ell], abs=1e-10)
                assert sigma <= r22 + 1e-10
                worst = max(worst, sigma - r22)
        elapsed = time.perf_counter() - start
        info["detail"] = f"max(sigma - ||R22||) = {worst:.2e}"
        assert elapsed < 5.0


def test_criterion_03_constructed_rank_oracle():
    with criterion(3, "constructed-rank recovery (90 x 100x10)") as info:
        rng = np.random.default_rng(13)
        hits = 0
        for r in range(1, 10):
            for _ in range(10):
                b = rng.normal(size=(100, r)) @ rng.normal(size=(r, 10))
                ok_qr = estimate_rank(qr_column_pivot(b), 1e-10) == r
                ok_cov = covariance_rank(b, 1e-10) == r
                assert ok_qr and ok_cov
                hits += 1
        info["detail"] = f"{hits}/90 exact"


def test_criterion_04_ridge_oracles():
    with criterion(4, "ridge solver vs orthogonalization oracle") as info:
        rng = np.random.default_rng(14)
        for _ in range(50):
            x = rng.normal(size=(30, 8))
            g = rng.normal(size=30)
            w = ridge_fit(x, g, 0.0).w
            w_oracle = gram_schmidt_lstsq(x, g)
            assert np.linalg.norm(w - w_oracle) <= 1e-10 * np.linalg.norm(w_oracle)
        # scalar closed form: an exact-arithmetic identity, verified here to
        # float rounding (a few ulps through the factorization path)
        worst = 0.0
        for _ in range(1000):
            x = rng.uniform(-3.0, 3.0)
            g = rng.uniform(-3.0, 3.0)
            lam = rng.uniform(0.0, 2.0)
            w = ridge_fit(np.array([[x]]), np.array([g]), lam).w[0]
            ref = x * g / (x * x + lam)
            assert w == pytest.approx(ref, rel=1e-13, abs=1e-300)
            if ref != 0.0:
                worst = max(worst, abs(w - ref) / abs(ref))
        info["detail"] = f"scalar closed form max rel dev {worst:.1e}"


def test_criterion_05_full_width_convergence():
    with criterion(5, "selection arms converge at full width (5 masks)") as info:
        start = time.perf_counter()
        cfg = paper_scale_config(
            "lorenz", "prediction", m_red_grid=(110,), n_masks=5, n_random_subsets=1
        )
        result = pipeline.sweep(cfg)
        rrqr = per_mask_means(result, "rrqr", 110)
        rand = per_mask_means(result, "random", 110)
        worst = 0.0
        for mask in rrqr:
            rel = abs(rrqr[mask] - rand[mask]) / rrqr[mask]
            worst = max(worst, rel)
            assert rel <= 1e-8
        elapsed = time.perf_counter() - start
        info["detail"] = f"max per-mask rel diff {worst:.1e}"
        assert elapsed < 300.0


def test_criterion_06_lorenz_ordering():
    with criterion(6, "Lorenz ranked selection beats random (both tasks)") as info:
        start = time.perf_counter()
        details = []
        for task in ("prediction", "observer"):
            cfg = paper_scale_config("lorenz", task)
            result = pipeline.sweep(cfg)
            best_improvement = -np.inf
            for row in result.rows:
                assert row.nrmse_rrqr_mean < row.nrmse_rand_mean
                best_improvement = max(best_improvement, row.percent_improvement)
                rrqr = per_mask_means(result, "rrqr", row.m_red)
                rand = per_mask_means(result, "random", row.m_red)
                wins = sum(rrqr[m] < rand[m] for m in rrqr)
                p = stats.binomtest(wins, cfg.n_masks, 0.5,
                                    alternative="greater").pvalue
                assert p < 0.05, f"{task} m_red={row.m_red}: {wins}/{cfg.n_masks} wins"
            assert best_improvement >= 10.0
            details.append(f"{task} max impr {best_improvement:.0f}%")
        elapsed = time.perf_counter() - start
        info["detail"] = "; ".join(details)
        assert elapsed < 1800.0


def test_criterion_07_rossler_ordering():
    with criterion(7, "Rossler ranked selection ordering (>= 70% of grid)") as info:
        start = time.perf_counter()
        ordered = 0
        total = 0
        for task in ("prediction", "observer"):
            cfg = paper_scale_config("rossler", task)
            result = pipeline.sweep(cfg)
            for row in result.rows:
                total += 1
                ordered += row.nrmse_rrqr_mean <= row.nrmse_rand_mean
        info["detail"] = f"ordered at {ordered}/{total} grid points"
        assert ordered / total >= 0.70
        assert time.perf_counter() - start < 1800.0


def test_criterion_08_entropy_and_correlation_trends():
    with criterion(8, "entropy falls and correlation rises with input density") as info:
        start = time.perf_counter()
        data = DataConfig(
            system="lorenz", task="observer", train_steps=8000, test_steps=7500,
            dt_internal=0.01, sample_interval=1.0, transient_samples=1000,
            initial_state=(1.0, 1.0, 1.0), standardize_drive=True,
        )
        base = ExperimentConfig(
            data=data,
            reservoir={"kind": "tanh", "nodes": 50, "alpha": 0.35,
                       "spectral_radius": 0.5, "f_a": 0.5, "f_w": 1.0},
            tau_max=10, m_red_grid=(110,), ridge_lambda=1e-6,
            n_masks=1, n_random_subsets=1, master_seed=2301, washout=100,
        )
        from shiftrc.config import AnalysisConfig

        acfg = AnalysisConfig(
            base=base,
            f_w_values=tuple(round(0.1 * k, 1) for k in range(1, 11)),
            f_a_values=(0.5,),
            n_trials=20,
            window=4,
        )
        rows = pipeline.analysis_sweep(acfg)
        f_w = [row.f_w for row in rows]
        entropy = [row.entropy_bits for row in rows]
        corr = [row.mean_correlation for row in rows]
        rho_h, p_h = stats.spearmanr(f_w, entropy)
        rho_c, p_c = stats.spearmanr(f_w, corr)
        info["detail"] = f"spearman H {rho_h:.2f} (p={p_h:.1e}), C {rho_c:.2f} (p={p_c:.1e})"
        assert rho_h < 0.0 and p_h < 0.05
        assert rho_c > 0.0 and p_c < 0.05
        assert time.perf_counter() - start < 300.0


def test_criterion_09_entropy_oracle():
    with criterion(9, "entropy oracle: degenerate and balanced symbols") as info:
        constant = np.ones((60, 5))
        assert reservoir_entropy(constant) == 0.0
        x = np.tile([0.0, 1.0], 11)[:21]  # 18 positions, 2 balanced symbols
        two = np.column_stack([x, x])
        h = reservoir_entropy(two, window=4)
        assert abs(h - 1.0) <= 1e-12
        info["detail"] = f"H(balanced) = {h!r}"


def test_criterion_10_replay_determinism(tmp_path):
    with criterion(10, "manifest replay reproduces outputs bitwise") as info:
        config = {
            "task": {"system": "lorenz", "kind": "prediction"},
            "data": {"train_steps": 400, "test_steps": 200, "transient_samples": 100},
            "reservoir": {"kind": "oeo", "nodes": 4, "theta": 4, "f_w": 0.5},
            "shifts": {"tau_max": 3},
            "selection": {"m_red_grid": [4, 16], "n_masks": 2, "n_random_subsets": 2},
            "washout": 20,
            "master_seed": 31,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        replayed = tmp_path / "replayed"
        assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert cli_main(["replay", "--manifest", str(out / "manifest.json"),
                         "--out", str(replayed)]) == 0

        def hashes(base):
            return {
                str(p.relative_to(base)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(base.rglob("*"))
                if p.is_file()
            }

        h_out, h_rep = hashes(out), hashes(replayed)
        assert h_out == h_rep
        info["detail"] = f"{len(h_out)} files identical"
