#!/usr/bin/env python3
"""Self-tests of the benchmark.

Every output check must pass on the program's own output and reject a
deliberately corrupted copy, and the whole benchmark (workers, checks,
metrics, traced mode) must run on tiny configs. Run from the checkout root:

    python3 perfbench/selftest.py

It takes about half a minute and leaves its files in perfbench/out/selftest.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from shiftrc import pipeline  # noqa: E402
from shiftrc.cli import main as cli_main  # noqa: E402
from shiftrc.config import experiment_from_dict, resolve_config  # noqa: E402

WORK = HERE / "out" / "selftest"
TINY_DATA = {"train_steps": 400, "test_steps": 200, "transient_samples": 100}
TINY_SWEEP = {
    "task": {"system": "lorenz", "kind": "prediction"},
    "data": TINY_DATA,
    "reservoir": {"kind": "oeo", "nodes": 4, "theta": 4, "f_w": 0.5},
    "shifts": {"tau_max": 3},
    "selection": {"m_red_grid": [4, 16], "n_masks": 2, "n_random_subsets": 2},
    "washout": 20,
    "master_seed": 31,
}
TINY_ANALYZE = {
    "task": {"system": "rossler", "kind": "observer"},
    "data": TINY_DATA,
    "reservoir": {"kind": "tanh", "nodes": 8},
    "selection": {"m_red_grid": [8]},
    "washout": 20,
    "master_seed": 31,
    "analysis": {"f_w_values": [0.5, 1.0], "f_a_values": [0.5], "n_trials": 2},
}


def produce(name: str, command: str, config: dict):
    """Run the CLI on a tiny config; return its out dir, outputs and series."""
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "config.json").write_text(json.dumps(config))
    out_dir = work / "out"
    assert cli_main([command, "--config", str(work / "config.json"),
                     "--out", str(out_dir)]) == 0
    data = experiment_from_dict(resolve_config(config)).data
    return out_dir, checks.load_outputs(out_dir), np.array(pipeline.build_series(data))


def bump_8th_digit(value: float) -> float:
    return value + 10.0 ** (np.floor(np.log10(abs(value))) - 7)


class SweepChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out_dir, cls.out, cls.series = produce("sweep", "sweep", TINY_SWEEP)
        cls.problem = checks.MaskProblem(cls.out, cls.series, 0)

    def corrupted(self):
        return copy.deepcopy(self.out)

    def readout(self, out):
        return checks.check_readout(out, self.problem, np.random.default_rng(0))

    def test_program_output_passes(self):
        for ok, detail in (
            checks.check_series(self.series, "lorenz", range(0, 500, 50)),
            checks.check_oscillator(self.out, self.series),
            self.readout(self.out),
            checks.check_pivot_greedy(self.out, self.problem),
            checks.check_pivot_files(self.out, 2, 4, 3),
            checks.check_cell_count(self.out, 2 * (2 * 3 + 1)),
            checks.check_aggregates(self.out),
            checks.check_full_width(self.out, 16),
        ):
            self.assertTrue(ok, detail)

    def test_nrmse_changed_in_8th_digit(self):
        for method in ("rrqr", "random", "baseline"):
            out = self.corrupted()
            cell = next(c for c in out["cells"] if c["method"] == method and c["mask_id"] == 0)
            cell["nrmse_test"] = bump_8th_digit(cell["nrmse_test"])
            if method != "random":  # only one random cell per m_red is re-solved
                self.assertFalse(self.readout(out)[0], method)
            self.assertFalse(checks.check_aggregates(out)[0], method)

    def test_two_pivot_entries_swapped(self):
        out = self.corrupted()
        retained = out["selections"][0]["retained"]
        retained[1], retained[2] = retained[2], retained[1]
        self.assertTrue(checks.check_pivot_files(out, 2, 4, 3)[0])
        self.assertFalse(checks.check_pivot_greedy(out, self.problem)[0])

    def test_pivot_spectrum_increasing(self):
        out = self.corrupted()
        rdiag = out["rdiags"][1]
        rdiag[[3, 4]] = rdiag[[4, 3]]
        self.assertFalse(checks.check_pivot_files(out, 2, 4, 3)[0])

    def test_oscillator_sample_perturbed(self):
        echo = self.out["manifest"]["config_echo"]
        drive, _, _ = checks.task_arrays(self.series, echo, "prediction")
        cfg, states = checks.oeo_states(echo, 0, drive[:50], 0)
        ref = checks.heun_oscillator(cfg.mask.tolist(), cfg.theta, cfg.beta, cfg.phi,
                                     cfg.rho, drive[:50].tolist())
        self.assertTrue(checks.compare_states(states, ref, checks.OSCILLATOR_RTOL)[0])
        states[17, 2] += 1e-9 * np.max(np.abs(states))
        self.assertFalse(checks.compare_states(states, ref, checks.OSCILLATOR_RTOL)[0])

    def test_series_row_perturbed(self):
        series = self.series.copy()
        j = int(np.argmax(np.abs(series[101])))
        series[101, j] = bump_8th_digit(series[101, j] * 10.0) / 10.0  # 7th digit
        self.assertFalse(checks.check_series(series, "lorenz", [100])[0])

    def test_percent_improvement_changed(self):
        out = self.corrupted()
        row = out["sweep.csv"][0]
        row["percent_improvement"] = bump_8th_digit(row["percent_improvement"])
        self.assertFalse(checks.check_aggregates(out)[0])

    def test_full_width_arms_disagree(self):
        out = self.corrupted()
        out["sweep.csv"][-1]["nrmse_rand_mean"] *= 1.0 + 1e-6
        self.assertFalse(checks.check_full_width(out, 16)[0])

    def test_cell_dropped(self):
        out = self.corrupted()
        out["cells"].pop()
        self.assertFalse(checks.check_cell_count(out, 14)[0])

    def test_output_files_differ(self):
        copy_dir = WORK / "sweep" / "copy"
        shutil.rmtree(copy_dir, ignore_errors=True)
        shutil.copytree(self.out_dir, copy_dir)
        manifest = json.loads((copy_dir / "manifest.json").read_text())
        manifest["wall_time_seconds"] += 1.0
        (copy_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))
        self.assertTrue(checks.check_identical([self.out_dir, copy_dir])[0])
        path = copy_dir / "sweep.csv"
        text = path.read_text()
        path.write_text(text[:-2] + ("0" if text[-2] != "0" else "1") + "\n")
        self.assertFalse(checks.check_identical([self.out_dir, copy_dir])[0])


class AnalyzeChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        _, cls.out, cls.series = produce("analyze", "analyze", TINY_ANALYZE)
        echo = cls.out["manifest"]["config_echo"]
        cls.expected = checks.analysis_row(echo, cls.series, 1, 0)

    def test_program_output_passes(self):
        self.assertTrue(checks.check_analysis_grid(self.out)[0])
        echo = self.out["manifest"]["config_echo"]
        ok, detail = checks.check_tanh_map(echo, self.series, 1, 0)
        self.assertTrue(ok, detail)
        ok, detail = checks.check_analysis_row(self.out, self.expected, 1, 0)
        self.assertTrue(ok, detail)
        self.assertTrue(checks.check_series(self.series, "rossler", range(0, 500, 50))[0])

    def test_row_value_changed_in_8th_digit(self):
        for key in ("entropy_bits", "mean_correlation", "nrmse_observer", "nrmse_prediction"):
            out = copy.deepcopy(self.out)
            row = out["analysis.csv"][1]
            row[key] = bump_8th_digit(row[key])
            self.assertFalse(checks.check_analysis_row(out, self.expected, 1, 0)[0], key)

    def test_tanh_state_perturbed(self):
        from shiftrc.reservoir import run_tanh_reservoir

        echo = self.out["manifest"]["config_echo"]
        cfg = checks.tanh_config(echo, 1, 0, 0)
        drive = checks.task_arrays(self.series, echo, "observer")[0][:50]
        states = run_tanh_reservoir(cfg, drive, 0).values
        ref = checks.tanh_reference(cfg.a, cfg.w_in, cfg.alpha, drive)
        self.assertTrue(checks.compare_states(states, ref, checks.TANH_RTOL)[0])
        states[17, 2] += 1e-9 * np.max(np.abs(states))
        self.assertFalse(checks.compare_states(states, ref, checks.TANH_RTOL)[0])

    def test_spectral_radius_changed(self):
        echo = self.out["manifest"]["config_echo"]
        cfg = checks.tanh_config(echo, 1, 0, 0)
        radius = echo["reservoir"]["spectral_radius"]
        self.assertLessEqual(checks.spectral_radius_error(cfg.a, radius), checks.RADIUS_RTOL)
        self.assertGreater(checks.spectral_radius_error(cfg.a * (1.0 + 1e-8), radius),
                           checks.RADIUS_RTOL)

    def test_row_dropped(self):
        out = copy.deepcopy(self.out)
        out["analysis.csv"].pop(0)
        self.assertFalse(checks.check_analysis_grid(out)[0])


class Smoke(unittest.TestCase):
    """The whole benchmark, untraced and traced, on the tiny configs."""

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def run_tiny(self, w, trace):
        result = run.run_workload(w, 7, 0.0, trace, self.spec, log=lambda _line: None)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        kind = "per_layer" if trace else "end_to_end"
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in self.spec[kind]))
        return result

    def test_sweep(self):
        w = run.Workload("tiny-sweep", TINY_SWEEP, {"selection": {"n_masks": 1}}, "sweep")
        self.assertEqual(self.run_tiny(w, False)["attempted"], 2 * 7 + 9)
        layers = self.run_tiny(w, True)["metrics"]
        self.assertEqual(layers["linalg.ridge_fit.calls"]["value"], 7)
        self.assertEqual(layers["linalg.qr_column_pivot.calls"]["value"], 8)

    def test_ranked_sweep(self):
        w = run.Workload("tiny-ranked", TINY_SWEEP, {}, "sweep", subset="rrqr")
        layers = self.run_tiny(w, True)["metrics"]
        self.assertEqual(layers["linalg.qr_column_pivot.under_rrqr_select.calls"]["value"], 2)
        self.assertEqual(layers["linalg.qr_column_pivot.under_ridge_fit.calls"]["value"], 6)

    def test_analyze(self):
        w = run.Workload("tiny-analyze", TINY_ANALYZE, {}, "analyze")
        self.run_tiny(w, False)


if __name__ == "__main__":
    unittest.main()
