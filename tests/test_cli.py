"""Command-line interface: files, manifests, replay, exit codes."""

import argparse
import ast
import dataclasses
import hashlib
import importlib.util
import json
import logging
import math
import os
import subprocess
import sys
import tempfile
import tomllib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftrc
from shiftrc.cli import COMMANDS, build_parser, main
from shiftrc.config import config_hash, derive_seed, experiment_from_dict, resolve_config
from shiftrc.linalg import qr_column_pivot
from shiftrc.pipeline import build_series

from conftest import mask_context, tall_matrices

TINY_SWEEP = {
    "task": {"system": "lorenz", "kind": "prediction"},
    "data": {"train_steps": 400, "test_steps": 200, "transient_samples": 100},
    "reservoir": {"kind": "oeo", "nodes": 4, "theta": 4, "f_w": 0.5},
    "shifts": {"tau_max": 3},
    "selection": {"m_red_grid": [4, 16], "n_masks": 2, "n_random_subsets": 2},
    "washout": 20,
    "master_seed": 31,
}

TINY_ANALYZE = {
    "task": {"system": "lorenz", "kind": "observer"},
    "data": {"train_steps": 300, "test_steps": 150, "transient_samples": 100},
    "reservoir": {"kind": "tanh", "nodes": 10},
    "selection": {"m_red_grid": [10]},
    "washout": 20,
    "master_seed": 5,
    "analysis": {"f_w_values": [0.5], "f_a_values": [0.5], "n_trials": 2},
}


PINNED_ANALYSIS = """\
f_w,f_a,entropy_bits,mean_correlation,nrmse_observer,nrmse_prediction
0.5,0.29999999999999999,7.26712095461491,0.10948742161328777,0.058391973159845234,0.44468262302358252
0.5,0.90000000000000002,7.4522538464477259,0.11925631619769887,0.027859488745114642,0.33506251112949514
1,0.29999999999999999,5.823766838453369,0.17697480213251948,0.056932671848353898,0.30103119385025207
1,0.90000000000000002,6.1442558788831105,0.16355352889388064,0.047679112805736189,0.23611771323980157
"""

PINNED_RANKED_SWEEP = """\
m_red,nrmse_rrqr_mean,nrmse_rrqr_std,nrmse_rand_mean,nrmse_rand_std,nrmse_baseline_mean,percent_improvement
4,0.52422583948676094,0.054436426490293344,,,0.42843377208496525,
16,0.19612574204396982,0.11597686458438934,,,0.42843377208496525,
"""


def tiny_rows(train_steps: int) -> dict:
    """TINY_SWEEP with ``train_steps`` changed."""
    payload = json.loads(json.dumps(TINY_SWEEP))
    payload["data"]["train_steps"] = train_steps
    return payload


def assert_rows_match(text, pinned, exact_fields=()):
    """Same header, row count and empty fields as ``pinned``; the fields at
    ``exact_fields`` equal as written, every other one to 1e-12 relative."""
    got, want = text.splitlines(), pinned.splitlines()
    assert got[0] == want[0] and len(got) == len(want)
    for line, ref in zip(got[1:], want[1:]):
        for i, (a, b) in enumerate(zip(line.split(","), ref.split(","), strict=True)):
            if i in exact_fields or not b:
                assert a == b
            else:
                assert float(a) == pytest.approx(float(b), rel=1e-12, abs=0.0)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def file_hashes(directory):
    """Every file's hash, the manifest included: it is deterministic too."""
    out = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(directory))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return out


class TestGenerate:
    def test_writes_expected_files(self, tmp_path):
        cfg = write_config(tmp_path, TINY_SWEEP)
        out = tmp_path / "out"
        assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
        drive = (out / "drive_train.csv").read_text().strip().split("\n")
        assert drive[0] == "n,value"
        assert len(drive) == 401
        test_drive = (out / "drive_test.csv").read_text().strip().split("\n")
        assert len(test_drive) == 201
        series = (out / "series.csv").read_text().split("\n", 1)[0]
        assert series == "t,x,y,z"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["config_echo"]["task"]["system"] == "lorenz"

    def test_series_csv_round_trips_the_source(self, tmp_path):
        # t is k * sample_interval, and 17 significant digits give every
        # double back exactly
        payload = json.loads(json.dumps(TINY_SWEEP))
        payload["data"]["sample_interval"] = 0.1
        out = tmp_path / "out"
        assert main(["generate", "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == 0
        lines = (out / "series.csv").read_text().splitlines()
        assert lines[0] == "t,x,y,z"
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        series = build_series(experiment_from_dict(resolve_config(payload)).data)
        np.testing.assert_array_equal(parsed[:, 0], np.arange(len(series)) * 0.1)
        np.testing.assert_array_equal(parsed[:, 1:], series)

    def test_negative_seed_rejected_before_compute(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["generate", "--config", write_config(tmp_path, TINY_SWEEP),
                     "--out", str(out), "--seed", "-3"])
        assert code == 2
        assert "master_seed" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_outputs(self, tmp_path):
        cfg = write_config(tmp_path, TINY_SWEEP)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["generate", "--config", cfg, "--out", str(out1)])
        main(["generate", "--config", cfg, "--out", str(out2)])
        assert file_hashes(out1) == file_hashes(out2)

    def test_missing_system_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"task": {"kind": "prediction"}})
        code = main(["generate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "system" in capsys.readouterr().err

    def test_malformed_json_names_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"task": \n  oops}')
        code = main(["generate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "line 2" in capsys.readouterr().err


class TestSweep:
    def test_ranked_rows_match_pinned_values(self, tmp_path):
        # sweep.csv as written when every cell was fitted on its own; the
        # m_red column and the empty fields of the missing random arm exact
        out = tmp_path / "out"
        assert main(["sweep", "--config", write_config(tmp_path, TINY_SWEEP),
                     "--out", str(out), "--subset", "rrqr"]) == 0
        assert_rows_match((out / "sweep.csv").read_text(), PINNED_RANKED_SWEEP, (0,))

    def test_csv_header_and_rows(self, tmp_path):
        cfg = write_config(tmp_path, TINY_SWEEP)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == (
            "m_red,nrmse_rrqr_mean,nrmse_rrqr_std,nrmse_rand_mean,nrmse_rand_std,"
            "nrmse_baseline_mean,percent_improvement"
        )
        assert len(lines) == 3
        cells = json.loads((out / "cells.json").read_text())["cells"]
        # 2 masks x (2 m_red x (1 rrqr + 2 random) + 1 baseline)
        assert len(cells) == 2 * (2 * 3 + 1)
        assert (out / "diagnostics" / "mask_0000_selection.json").exists()
        assert (out / "diagnostics" / "mask_0001_rdiag.csv").exists()

    def test_pooled_columns_are_the_moments_of_the_cells(self, tmp_path):
        # every mean and (population) std of sweep.csv, and its gain, from
        # the test NRMSEs of cells.json, summed by hand; with three masks a
        # median is no mean
        payload = json.loads(json.dumps(TINY_SWEEP))
        payload["selection"]["n_masks"] = 3
        out = tmp_path / "out"
        assert main(["sweep", "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == 0
        cells = json.loads((out / "cells.json").read_text())["cells"]
        header, *lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == len(payload["selection"]["m_red_grid"])

        def moments(method, m_red=None):
            values = []
            for cell in cells:
                if cell["method"] == method and m_red in (None, cell["m_red"]):
                    values.append(cell["nrmse_test"])
            total = 0.0
            for value in values:
                total += value
            mean = total / len(values)
            spread = 0.0
            for value in values:
                spread += (value - mean) ** 2
            return len(values), mean, math.sqrt(spread / len(values))

        n_base, base_mean, _ = moments("baseline")
        assert n_base == 3
        for line in lines:
            row = dict(zip(header.split(","), map(float, line.split(",")), strict=True))
            n_rrqr, rrqr_mean, rrqr_std = moments("rrqr", row["m_red"])
            n_rand, rand_mean, rand_std = moments("random", row["m_red"])
            assert (n_rrqr, n_rand) == (3, 3 * payload["selection"]["n_random_subsets"])
            want = {"nrmse_rrqr_mean": rrqr_mean, "nrmse_rrqr_std": rrqr_std,
                    "nrmse_rand_mean": rand_mean, "nrmse_rand_std": rand_std,
                    "nrmse_baseline_mean": base_mean,
                    "percent_improvement": 100.0 * (rand_mean - rrqr_mean) / rand_mean}
            for name, value in want.items():
                assert row[name] == pytest.approx(value, rel=1e-12, abs=0.0), name

    def test_selection_diagnostics_record_the_pivot(self, tmp_path):
        # per mask: the full pivot order of the training matrix, its |R_kk|,
        # and the same |R_kk| again as a CSV
        out = tmp_path / "out"
        assert main(["sweep", "--config", write_config(tmp_path, TINY_SWEEP),
                     "--out", str(out), "--subset", "rrqr"]) == 0
        cfg = experiment_from_dict(resolve_config(TINY_SWEEP))
        n_columns, diag = cfg.n_nodes * (cfg.tau_max + 1), out / "diagnostics"
        for mask_id in range(cfg.n_masks):
            sel = json.loads((diag / f"mask_{mask_id:04d}_selection.json").read_text())
            ctx = mask_context(cfg, derive_seed(cfg.master_seed, "trial", mask_id))
            tall = qr_column_pivot(tall_matrices(ctx)[0])
            # column shift * n_nodes + node is written as [node, shift]
            assert sel["retained"] == [[j % cfg.n_nodes, j // cfg.n_nodes] for j in tall.perm]
            assert sel["m_red"] == len(sel["retained"]) == n_columns
            assert len(sel["r_diag"]) == n_columns
            rdiag = (diag / f"mask_{mask_id:04d}_rdiag.csv").read_text().splitlines()
            assert rdiag[0] == "k,r_kk_abs"
            assert [line.split(",")[0] for line in rdiag[1:]] == [
                str(k) for k in range(n_columns)]
            assert [float(line.split(",")[1]) for line in rdiag[1:]] == sel["r_diag"]

    def test_replay_reproduces_bitwise(self, tmp_path):
        cfg = write_config(tmp_path, TINY_SWEEP)
        out = tmp_path / "out"
        main(["sweep", "--config", cfg, "--out", str(out)])
        replay_out = tmp_path / "replayed"
        code = main(["replay", "--manifest", str(out / "manifest.json"),
                     "--out", str(replay_out)])
        assert code == 0
        assert file_hashes(out) == file_hashes(replay_out)

    def test_replay_rejects_edited_config_echo(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_SWEEP)
        out = tmp_path / "out"
        main(["sweep", "--config", cfg, "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["config_echo"]["readout"]["ridge_lambda"] = 1e-3
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(manifest))
        replay_out = tmp_path / "replayed"
        code = main(["replay", "--manifest", str(edited), "--out", str(replay_out)])
        assert code == 2
        assert "config_hash" in capsys.readouterr().err
        assert not replay_out.exists()
        del manifest["config_hash"]
        edited.write_text(json.dumps(manifest))
        assert main(["replay", "--manifest", str(edited), "--out", str(replay_out)]) == 2
        assert not replay_out.exists()

    def test_replay_rejects_other_tool_version(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_SWEEP)
        out = tmp_path / "out"
        main(["sweep", "--config", cfg, "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        edited = tmp_path / "edited.json"
        replay_out = tmp_path / "replayed"
        manifest["tool_version"] = "0.0.0"
        edited.write_text(json.dumps(manifest))
        assert main(["replay", "--manifest", str(edited), "--out", str(replay_out)]) == 2
        assert "tool_version" in capsys.readouterr().err
        assert not replay_out.exists()
        del manifest["tool_version"]
        edited.write_text(json.dumps(manifest))
        assert main(["replay", "--manifest", str(edited), "--out", str(replay_out)]) == 2
        assert "tool_version" in capsys.readouterr().err
        assert not replay_out.exists()

    def test_packaged_version_is_the_recorded_one(self):
        # replay refuses a manifest whose tool_version is not __version__,
        # so the packaged version and the recorded one move together
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as f:
            assert tomllib.load(f)["project"]["version"] == shiftrc.__version__

    def test_replay_rejects_unknown_subset_mode_or_command(self, tmp_path, capsys):
        out = tmp_path / "out"
        main(["sweep", "--config", write_config(tmp_path, TINY_SWEEP), "--out", str(out),
              "--subset", "rrqr"])
        manifest = json.loads((out / "manifest.json").read_text())
        edited = tmp_path / "edited.json"
        replay_out = tmp_path / "replayed"
        for field, value in (("subset_mode", "ranked"), ("command", "bogus")):
            edited.write_text(json.dumps({**manifest, field: value}))
            assert main(["replay", "--manifest", str(edited), "--out", str(replay_out)]) == 2
            err = capsys.readouterr().err
            assert field in err and value in err
            assert not replay_out.exists()

    @pytest.mark.parametrize("command", [["sweep"], {"sweep": 1}, None, 1])
    def test_replay_rejects_command_that_is_not_a_name(self, tmp_path, capsys, command):
        # a list or an object is not hashable: looking it up in the command
        # table raised TypeError, a traceback and exit 1
        out = tmp_path / "out"
        main(["sweep", "--config", write_config(tmp_path, TINY_SWEEP), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps({**manifest, "command": command}))
        replay_out = tmp_path / "replayed"
        assert main(["replay", "--manifest", str(edited), "--out", str(replay_out)]) == 2
        assert "command" in capsys.readouterr().err
        assert not replay_out.exists()

    @pytest.mark.parametrize("seed", ["x", 32, "31", 31.0, True, None, "missing"])
    def test_replay_rejects_master_seed_other_than_the_echo(self, tmp_path, capsys, seed):
        # the top-level seed is what a reader of the manifest sees; an edited
        # one replayed the echo's seed with exit 0
        out = tmp_path / "out"
        main(["sweep", "--config", write_config(tmp_path, TINY_SWEEP), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == manifest["config_echo"]["master_seed"] == 31
        edited = tmp_path / "edited.json"
        if seed == "missing":
            del manifest["master_seed"]
        else:
            manifest["master_seed"] = seed
        edited.write_text(json.dumps(manifest))
        replay_out = tmp_path / "replayed"
        assert main(["replay", "--manifest", str(edited), "--out", str(replay_out)]) == 2
        assert "master_seed" in capsys.readouterr().err
        assert not replay_out.exists()

    def test_replay_rejects_manifest_without_subset_mode(self, tmp_path, capsys):
        # a missing field is not read as "both": a ranked-only sweep would
        # replay with both arms, exit 0, and write another sweep.csv
        out = tmp_path / "out"
        main(["sweep", "--config", write_config(tmp_path, TINY_SWEEP), "--out", str(out),
              "--subset", "rrqr"])
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest["subset_mode"]
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(manifest))
        replay_out = tmp_path / "replayed"
        assert main(["replay", "--manifest", str(edited), "--out", str(replay_out)]) == 2
        assert "subset_mode" in capsys.readouterr().err
        assert not replay_out.exists()
        # an edited echo is still reported first
        edited.write_text(json.dumps({**manifest, "master_seed": 32,
                                      "config_echo": {**manifest["config_echo"],
                                                      "master_seed": 32}}))
        assert main(["replay", "--manifest", str(edited), "--out", str(replay_out)]) == 2
        assert "config_hash" in capsys.readouterr().err

    @pytest.mark.parametrize("field,edit", [
        ("tool", lambda m: {**m, "tool": "not-shiftrc"}),
        ("walltime_s", lambda m: {**m, "walltime_s": 1.5}),
        ("config_echo", lambda m: {**m, "config_echo": TINY_SWEEP}),
    ], ids=["tool", "unknown-key", "echo-without-defaults"])
    def test_replay_rejects_manifest_other_than_the_record(self, tmp_path, capsys,
                                                           field, edit):
        # each replayed with exit 0; the echo without its defaulted fields
        # still hashes to config_hash, and was rewritten resolved
        out = tmp_path / "out"
        main(["sweep", "--config", write_config(tmp_path, TINY_SWEEP), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(resolve_config(TINY_SWEEP))
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(edit(manifest)))
        replay_out = tmp_path / "replayed"
        assert main(["replay", "--manifest", str(edited), "--out", str(replay_out)]) == 2
        assert f"'{field}'" in capsys.readouterr().err
        assert not replay_out.exists()

    @pytest.mark.parametrize("edit", [
        lambda m: {**m, "output_paths": m["output_paths"][:-1]},
        lambda m: {**m, "output_paths": [*m["output_paths"], "extra.csv"]},
        lambda m: {k: v for k, v in m.items() if k != "output_paths"},
        lambda m: {**m, "command": "generate"},
    ], ids=["one-less", "one-more", "missing", "sweep-as-generate"])
    def test_replay_writing_other_outputs_fails_at_run_time(self, tmp_path, capsys, edit):
        # the manifest would not list the files beside it; a sweep relabelled
        # generate wrote the generate outputs under the sweep's output_paths
        out = tmp_path / "out"
        main(["sweep", "--config", write_config(tmp_path, TINY_SWEEP), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(edit(manifest)))
        replay_out = tmp_path / "replayed"
        assert main(["replay", "--manifest", str(edited), "--out", str(replay_out)]) == 3
        assert "'output_paths'" in capsys.readouterr().err
        assert not replay_out.exists()

    def test_reused_out_rejected_and_left_untouched(self, tmp_path, capsys, monkeypatch):
        # a 1-mask run into a 3-mask run's --out would leave mask 1 and 2
        # diagnostics beside a manifest that does not list them
        payload = json.loads(json.dumps(TINY_SWEEP))
        payload["selection"]["n_masks"] = 3
        out = tmp_path / "out"
        assert main(["sweep", "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == 0
        before = file_hashes(out)
        assert "diagnostics/mask_0002_selection.json" in before
        payload["selection"]["n_masks"] = 1
        one_mask = write_config(tmp_path, payload, "one_mask.json")
        capsys.readouterr()

        def must_not_run(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(shiftrc.pipeline, "sweep", must_not_run)
        assert main(["sweep", "--config", one_mask, "--out", str(out)]) == 2
        assert f"--out {out} is not empty" in capsys.readouterr().err
        assert main(["replay", "--manifest", str(out / "manifest.json"),
                     "--out", str(out)]) == 2
        assert f"--out {out} is not empty" in capsys.readouterr().err
        assert file_hashes(out) == before

    def test_empty_out_directory_accepted(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        cfg = write_config(tmp_path, TINY_SWEEP)
        assert main(["sweep", "--config", cfg, "--out", str(out), "--subset", "rrqr"]) == 0
        assert (out / "manifest.json").exists()
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert main(["sweep", "--config", cfg, "--out", str(blocker)]) == 2
        assert f"--out {blocker} is not a directory" in capsys.readouterr().err
        assert blocker.read_text() == ""

    def test_subset_rrqr_leaves_random_columns_empty(self, tmp_path):
        cfg = write_config(tmp_path, TINY_SWEEP)
        out = tmp_path / "out"
        main(["sweep", "--config", cfg, "--out", str(out), "--subset", "rrqr"])
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        first = lines[1].split(",")
        assert first[1] != "" and first[3] == "" and first[4] == ""
        assert first[6] == ""
        # replay honors the recorded subset mode
        replay_out = tmp_path / "replayed"
        main(["replay", "--manifest", str(out / "manifest.json"), "--out", str(replay_out)])
        assert file_hashes(out) == file_hashes(replay_out)

    def test_oversized_m_red_rejected_before_compute(self, tmp_path, capsys):
        payload = json.loads(json.dumps(TINY_SWEEP))
        payload["selection"]["m_red_grid"] = [17]
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        code = main(["sweep", "--config", cfg, "--out", str(out)])
        assert code == 2
        assert "m_red_grid" in capsys.readouterr().err
        assert not out.exists()

    def test_step_not_dividing_sample_interval_rejected(self, tmp_path, capsys):
        payload = json.loads(json.dumps(TINY_SWEEP))
        payload["data"]["dt_internal"] = 0.3
        out = tmp_path / "out"
        assert main(["sweep", "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'data.dt_internal'" in err and "integer multiple" in err
        assert not out.exists()

    @pytest.mark.parametrize("subset", ["both", "rrqr", "random"])
    def test_fewer_training_rows_than_columns_rejected(self, tmp_path, capsys, subset):
        # 39 - washout 20 - tau_max 3 = 16 training rows against the 17
        # columns of [X | 1]; one more row is enough
        out = tmp_path / "out"
        assert main(["sweep", "--config", write_config(tmp_path, tiny_rows(39)),
                     "--out", str(out), "--subset", subset]) == 2
        err = capsys.readouterr().err
        assert "'data.train_steps'" in err and "16 training rows" in err
        assert not out.exists()
        assert main(["sweep", "--config", write_config(tmp_path, tiny_rows(40)),
                     "--out", str(out), "--subset", subset]) == 0

    def test_replay_of_too_few_training_rows_rejected(self, tmp_path, capsys):
        resolved = resolve_config(tiny_rows(39))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "command": "sweep", "subset_mode": "random", "config_echo": resolved,
            "config_hash": config_hash(resolved), "tool_version": shiftrc.__version__,
            "master_seed": resolved["master_seed"], "tool": "shiftrc", "output_paths": [],
        }))
        out = tmp_path / "out"
        assert main(["replay", "--manifest", str(manifest), "--out", str(out)]) == 2
        assert "'data.train_steps'" in capsys.readouterr().err
        assert not out.exists()

    def test_too_few_training_rows_still_generate_and_analyze(self, tmp_path):
        # neither command builds a shifted matrix
        assert main(["generate", "--config", write_config(tmp_path, tiny_rows(39)),
                     "--out", str(tmp_path / "gen")]) == 0
        payload = json.loads(json.dumps(TINY_ANALYZE))
        payload["data"]["train_steps"] = 120  # 90 rows, 111 columns
        assert main(["analyze", "--config", write_config(tmp_path, payload),
                     "--out", str(tmp_path / "ana")]) == 0

    def test_seed_override_changes_results(self, tmp_path):
        cfg = write_config(tmp_path, TINY_SWEEP)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["sweep", "--config", cfg, "--out", str(out1)])
        main(["sweep", "--config", cfg, "--out", str(out2), "--seed", "99"])
        assert file_hashes(out1) != file_hashes(out2)
        manifest = json.loads((out2 / "manifest.json").read_text())
        assert manifest["master_seed"] == 99
        assert manifest["config_echo"]["master_seed"] == 99

    def test_threads_flag_keeps_outputs_identical(self, tmp_path):
        cfg = write_config(tmp_path, TINY_SWEEP)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["sweep", "--config", cfg, "--out", str(out1)])
        main(["sweep", "--config", cfg, "--out", str(out2), "--threads", "2"])
        assert file_hashes(out1) == file_hashes(out2)

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SHIFTRC_THREADS", "2")
        cfg = write_config(tmp_path, TINY_SWEEP)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0

    def test_threads_below_one_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_SWEEP)
        for value in ("0", "-1"):
            out = tmp_path / f"out{value}"
            code = main(["sweep", "--config", cfg, "--out", str(out),
                         "--threads", value])
            assert code == 2
            assert "--threads" in capsys.readouterr().err
            assert not out.exists()

    def test_threads_env_below_one_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SHIFTRC_THREADS", "0")
        cfg = write_config(tmp_path, TINY_SWEEP)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert "SHIFTRC_THREADS" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,env,named", [
        (["--threads", "0"], None, "--threads"), ([], "0", "SHIFTRC_THREADS"),
    ], ids=["flag", "env"])
    def test_replay_threads_below_one_rejected(self, tmp_path, monkeypatch, capsys,
                                               flag, env, named):
        out = tmp_path / "out"
        main(["sweep", "--config", write_config(tmp_path, TINY_SWEEP), "--out", str(out)])
        capsys.readouterr()
        if env is not None:
            monkeypatch.setenv("SHIFTRC_THREADS", env)
        replay_out = tmp_path / "replayed"
        assert main(["replay", "--manifest", str(out / "manifest.json"),
                     "--out", str(replay_out), *flag]) == 2
        assert named in capsys.readouterr().err
        assert not replay_out.exists()

    def test_input_fraction_reaching_no_node_rejected(self, tmp_path, capsys):
        # round(0.2 * 2) = 0: the mask would drive no node
        payload = json.loads(json.dumps(TINY_SWEEP))
        payload["reservoir"].update(nodes=2, f_w=0.2)
        payload["selection"]["m_red_grid"] = [4, 8]
        out = tmp_path / "out"
        assert main(["sweep", "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == 2
        assert "reservoir.f_w" in capsys.readouterr().err
        assert not out.exists()

    def test_nrmse_mode_flag(self, tmp_path):
        payload = json.loads(json.dumps(TINY_SWEEP))
        payload["task"]["kind"] = "observer"  # strictly positive target
        cfg = write_config(tmp_path, payload)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["sweep", "--config", cfg, "--out", str(out1)])
        main(["sweep", "--config", cfg, "--out", str(out2),
              "--nrmse-mode", "paper-literal"])
        assert file_hashes(out1) != file_hashes(out2)


class TestAnalyze:
    def test_single_cell_grid(self, tmp_path):
        cfg = write_config(tmp_path, TINY_ANALYZE)
        out = tmp_path / "out"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "analysis.csv").read_text().strip().split("\n")
        assert lines[0] == (
            "f_w,f_a,entropy_bits,mean_correlation,nrmse_observer,nrmse_prediction"
        )
        assert len(lines) == 2
        values = [float(v) for v in lines[1].split(",")]
        assert values[0] == 0.5 and values[1] == 0.5
        assert all(v >= 0.0 for v in values)

    def test_rows_match_pinned_values(self, tmp_path):
        # analysis.csv as written when each trial's two readouts were fitted
        # one by one: entropies bit for bit, the rest to 1e-12 relative
        payload = json.loads(json.dumps(TINY_ANALYZE))
        payload["analysis"] = {"f_w_values": [0.5, 1.0], "f_a_values": [0.3, 0.9],
                               "n_trials": 3}
        out = tmp_path / "out"
        assert main(["analyze", "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == 0
        assert_rows_match((out / "analysis.csv").read_text(), PINNED_ANALYSIS, (2,))

    def test_replay_matches(self, tmp_path):
        cfg = write_config(tmp_path, TINY_ANALYZE)
        out = tmp_path / "out"
        main(["analyze", "--config", cfg, "--out", str(out)])
        replay_out = tmp_path / "replayed"
        main(["replay", "--manifest", str(out / "manifest.json"), "--out", str(replay_out)])
        assert file_hashes(out) == file_hashes(replay_out)

    def test_threads_flag_keeps_outputs_identical(self, tmp_path):
        payload = json.loads(json.dumps(TINY_ANALYZE))
        payload["analysis"]["f_w_values"] = [0.5, 1.0]
        cfg = write_config(tmp_path, payload)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["analyze", "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
        assert main(["analyze", "--config", cfg, "--out", str(out2), "--threads", "2"]) == 0
        assert file_hashes(out1) == file_hashes(out2)

    def test_window_above_limit_rejected(self, tmp_path, capsys):
        payload = json.loads(json.dumps(TINY_ANALYZE))
        payload["analysis"]["window"] = 21
        code = main(["analyze", "--config", write_config(tmp_path, payload),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "window" in capsys.readouterr().err
        payload["analysis"]["window"] = 20  # the largest window, 8-byte keys
        assert main(["analyze", "--config", write_config(tmp_path, payload),
                     "--out", str(tmp_path / "p")]) == 0

    def test_window_longer_than_training_rows_rejected(self, tmp_path, capsys):
        # train_steps - washout = 5 training rows: a window of 6 fits none
        payload = json.loads(json.dumps(TINY_ANALYZE))
        payload["data"]["train_steps"] = 25
        payload["shifts"] = {"tau_max": 0}
        payload["analysis"]["window"] = 6
        out = tmp_path / "out"
        assert main(["analyze", "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == 2
        assert "analysis.window" in capsys.readouterr().err
        assert not out.exists()
        payload["analysis"]["window"] = 5  # one window over all rows
        assert main(["analyze", "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == 0

    def test_oeo_reservoir_rejected(self, tmp_path, capsys):
        payload = json.loads(json.dumps(TINY_ANALYZE))
        payload["reservoir"] = {"kind": "oeo", "nodes": 4, "theta": 4, "f_w": 0.5}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o"
        code = main(["analyze", "--config", cfg, "--out", str(out)])
        assert code == 2
        assert "tanh" in capsys.readouterr().err
        assert not out.exists()
        # the same error from replay: an OEO sweep's manifest relabelled as
        # an analysis (its config_echo, and so its hash, unchanged)
        sweep_out = tmp_path / "sweep"
        assert main(["sweep", "--config", write_config(tmp_path, TINY_SWEEP),
                     "--out", str(sweep_out)]) == 0
        manifest = json.loads((sweep_out / "manifest.json").read_text())
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps({**manifest, "command": "analyze"}))
        replay_out = tmp_path / "replayed"
        assert main(["replay", "--manifest", str(edited), "--out", str(replay_out)]) == 2
        assert "tanh" in capsys.readouterr().err
        assert not replay_out.exists()

    @pytest.mark.parametrize("field", ["f_w_values", "f_a_values"])
    def test_repeated_grid_value_rejected(self, tmp_path, capsys, field):
        # trial seeds follow the grid index, so a repeated value would give
        # two rows of one grid point with different numbers
        payload = json.loads(json.dumps(TINY_ANALYZE))
        payload["analysis"][field] = [0.5, 0.5]
        out = tmp_path / "out"
        assert main(["analyze", "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == 2
        assert f"analysis.{field}" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_fraction_reaching_no_node_rejected(self, tmp_path, capsys):
        # round(0.1 * 4) = 0: the first grid column would drive no node
        payload = json.loads(json.dumps(TINY_ANALYZE))
        payload["reservoir"]["nodes"] = 4
        payload["analysis"]["f_w_values"] = [0.1, 1.0]
        out = tmp_path / "out"
        assert main(["analyze", "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == 2
        assert "analysis.f_w_values" in capsys.readouterr().err
        assert not out.exists()


class TestErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["sweep", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_missing_manifest(self, tmp_path, capsys):
        code = main(["replay", "--manifest", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("command,flag", [("sweep", "--config"),
                                              ("replay", "--manifest")])
    def test_malformed_json_names_the_file(self, tmp_path, capsys, command, flag):
        path = tmp_path / "broken.json"
        path.write_text('{"task": \n  oops}')
        out = tmp_path / "o"
        assert main([command, flag, str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"({path}, line 2, column 3)" in err
        assert not out.exists()

    @pytest.mark.parametrize("text,key", [
        ('{"washout": 50, ' + json.dumps(TINY_SWEEP)[1:], "washout"),
        (json.dumps(TINY_SWEEP).replace('"n_masks": 2', '"n_masks": 2, "n_masks": 3'),
         "n_masks"),
    ], ids=["top-level", "nested"])
    def test_repeated_config_key_rejected(self, tmp_path, capsys, text, key):
        # json would silently run with the last of the two values
        path = tmp_path / "config.json"
        path.write_text(text)
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        assert f"config file repeats the key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_replay_of_manifest_with_repeated_key_rejected(self, tmp_path, capsys):
        # the echo's later washout is the one its hash was taken over
        assert main(["generate", "--config", write_config(tmp_path, TINY_SWEEP),
                     "--out", str(tmp_path / "run")]) == 0
        manifest = tmp_path / "run" / "manifest.json"
        text = manifest.read_text()
        assert text.count('"config_echo": {') == 1
        manifest.write_text(text.replace('"config_echo": {', '"config_echo": {"washout": 50,'))
        out = tmp_path / "o"
        assert main(["replay", "--manifest", str(manifest), "--out", str(out)]) == 2
        assert "manifest repeats the key 'washout'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("content", [None, b"\xff\xfe{}"], ids=["directory", "not-utf8"])
    @pytest.mark.parametrize("command,flag", [("sweep", "--config"),
                                              ("replay", "--manifest")])
    def test_unreadable_input_names_the_file(self, tmp_path, capsys, command, flag,
                                             content):
        # a directory or a file that is not UTF-8 is a config error, like a
        # missing file, not a runtime error
        path = tmp_path / "input.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        out = tmp_path / "o"
        assert main([command, flag, str(path), "--out", str(out)]) == 2
        assert f"cannot be read ({path})" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "sweep"])
    def test_failed_run_writes_nothing(self, tmp_path, capsys, command):
        # the Lorenz fixed point gives a constant drive: the run fails at
        # run time, after the config was accepted, and leaves no --out
        payload = json.loads(json.dumps(TINY_SWEEP))
        payload["data"]["initial_state"] = [0, 0, 0]
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == 3
        assert "shiftrc: error:" in capsys.readouterr().err
        assert not out.exists()

    def test_rank_deficient_design_at_zero_lambda(self, tmp_path, capsys, caplog,
                                                  monkeypatch):
        # node 1 repeats node 0, so 3 of the 12 shifted columns are copies;
        # at lambda = 0 the rank check of the fits refuses the run.
        run = shiftrc.reservoir.run_oeo_reservoir

        def repeat_node_0(*args, **kwargs):
            states = np.array(run(*args, **kwargs))
            states[..., 1] = states[..., 0]
            return states

        monkeypatch.setattr(shiftrc.reservoir, "run_oeo_reservoir", repeat_node_0)
        payload = json.loads(json.dumps(TINY_SWEEP))
        payload["shifts"]["tau_max"] = 2
        payload["selection"]["m_red_grid"] = [2, 6, 12]
        payload["readout"] = {"ridge_lambda": 0}
        out = tmp_path / "out"
        with caplog.at_level(logging.DEBUG):
            assert main(["sweep", "--config", write_config(tmp_path, payload),
                         "--out", str(out)]) == 3
        assert not caplog.records
        assert capsys.readouterr().err == (
            "shiftrc: error: design matrix is rank deficient (estimated rank 9 of "
            "12 columns); use a positive ridge parameter\n")
        assert not out.exists()

    def test_non_finite_drive_sample(self, tmp_path, capsys, monkeypatch):
        make_task = shiftrc.dynamics.make_task

        def with_nan(*args, **kwargs):
            task = make_task(*args, **kwargs)
            drive = task.drive_train.copy()
            drive[50] = np.nan
            return dataclasses.replace(task, drive_train=drive)

        monkeypatch.setattr(shiftrc.dynamics, "make_task", with_nan)
        out = tmp_path / "out"
        assert main(["sweep", "--config", write_config(tmp_path, TINY_SWEEP),
                     "--out", str(out)]) == 3
        assert "became non-finite at step" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_root_not_an_object(self, tmp_path, capsys):
        # a string holding every required key passes an ``in`` check
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps("command config_echo config_hash tool_version"))
        out = tmp_path / "o"
        assert main(["replay", "--manifest", str(path), "--out", str(out)]) == 2
        assert "object" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,flag,text", [
        ("sweep", "--config", "[" * 100_000 + "]" * 100_000),
        ("replay", "--manifest", '{"a":' * 50_000 + "1" + "}" * 50_000),
        ("sweep", "--config", json.dumps({**TINY_SWEEP, "washout": []})
         .replace("[]", "[" * 500 + "]" * 500)),
    ], ids=["config-array", "manifest-object", "washout-list"])
    def test_deeply_nested_input_names_the_file(self, tmp_path, capsys, command, flag,
                                                text):
        # each raised RecursionError, a traceback and exit 1: json.load in
        # the first two, merging the config over its defaults in the third
        path = tmp_path / "input.json"
        path.write_text(text)
        out = tmp_path / "o"
        assert main([command, flag, str(path), "--out", str(out)]) == 2
        assert f"nests too deeply ({path})" in capsys.readouterr().err
        assert not out.exists()

    def test_misspelt_kind_reported_as_the_kind(self, tmp_path, capsys):
        # the kind chooses the reservoir's fields, so a misspelt one must be
        # named itself, not as a tanh field the oscillator does not know
        payload = {"task": {"system": "lorenz", "kind": "observer"},
                   "reservoir": {"kind": "tnah", "nodes": 8, "alpha": 0.35}}
        out = tmp_path / "out"
        assert main(["sweep", "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'reservoir.kind'" in err and "'tnah'" in err
        assert not out.exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        payload = json.loads(json.dumps(TINY_SWEEP))
        payload["typo_key"] = 1
        cfg = write_config(tmp_path, payload)
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("section,field,value", [
        ("data", "sample_interval", float("inf")),
        ("data", "dt_internal", float("nan")),
        ("reservoir", "f_w", float("nan")),
        ("readout", "ridge_lambda", float("nan")),
        ("reservoir", "beta", float("-inf")),
        ("shifts", "tau_max", float("nan")),
    ])
    def test_non_finite_number_rejected(self, tmp_path, capsys, section, field, value):
        # Python's json reads NaN and Infinity; neither may reach a run
        payload = json.loads(json.dumps(TINY_SWEEP))
        payload.setdefault(section, {})[field] = value
        out = tmp_path / "out"
        assert main(["sweep", "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == 2
        assert f"'{section}.{field}'" in capsys.readouterr().err
        assert not out.exists()
        # the same number in a manifest's config_echo fails replay alike
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"command": "sweep", "config_echo": payload,
                                        "config_hash": "0" * 40,
                                        "tool_version": shiftrc.__version__}))
        assert main(["replay", "--manifest", str(manifest), "--out", str(out)]) == 2
        assert f"'{section}.{field}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section,field,value", [
        ("reservoir", "nodes", 4.0),
        ("data", "train_steps", 400.0),
        ("shifts", "tau_max", 3.0),
        ("selection", "n_masks", 2.0),
        ("reservoir", "sample_offset", 4.0),
    ])
    def test_integral_float_in_integer_field_rejected(self, tmp_path, capsys,
                                                      section, field, value):
        # 4.0 is a JSON number, not an integer; a run given one used to
        # crash with a traceback and leave an empty --out behind
        payload = json.loads(json.dumps(TINY_SWEEP))
        payload[section][field] = value
        out = tmp_path / "out"
        assert main(["sweep", "--config", write_config(tmp_path, payload),
                     "--out", str(out)]) == 2
        assert f"'{section}.{field}': must be an integer" in capsys.readouterr().err
        assert not out.exists()
        # a manifest whose config_echo holds one fails replay alike
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"command": "sweep", "config_echo": payload,
                                        "config_hash": "0" * 40,
                                        "tool_version": shiftrc.__version__}))
        assert main(["replay", "--manifest", str(manifest), "--out", str(out)]) == 2
        assert f"'{section}.{field}'" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_dir(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_SWEEP)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code = main(["generate", "--config", cfg, "--out", str(blocker / "sub")])
        assert code == 3


@pytest.mark.parametrize("argv,payload", [
    (["generate"], TINY_SWEEP),
    (["sweep", "--subset", "both"], TINY_SWEEP),
    (["analyze"], TINY_ANALYZE),
], ids=["generate", "sweep", "analyze"])
def test_manifest_lists_every_output_in_write_order(tmp_path, monkeypatch, argv, payload):
    # output_paths names exactly the files under --out besides the
    # manifest, in the order they were written
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    written, write_text = [], Path.write_text

    def recording_write_text(path, *args, **kwargs):
        written.append(path.relative_to(out).as_posix())
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", recording_write_text)
    assert main([*argv, "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert written == manifest["output_paths"] + ["manifest.json"]
    on_disk = [p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()]
    assert sorted(on_disk) == sorted(written)
    if argv[0] == "sweep":
        assert sum(p.startswith("diagnostics/") for p in written) == 2 * 2  # two masks


# Runs ``python -m shiftrc.cli`` with the given arguments, then prints the
# exit code and every SciPy or jsonschema module the process imported.
RUN_CLI_AND_LIST_SCIPY = """
import runpy, sys
sys.argv[0] = "shiftrc"
try:
    runpy.run_module("shiftrc.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(exc.code, *sorted(m for m in sys.modules
                            if m.split(".")[0] in ("scipy", "jsonschema")))
"""


@pytest.mark.parametrize("command", ["sweep", "analyze"])
def test_cli_loads_no_scipy_package(tmp_path, command):
    # only the two compiled kernels are loaded, not scipy.signal (which
    # pulls in scipy.stats) or scipy.linalg, and configs are checked
    # without jsonschema
    src = str(Path(shiftrc.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    payload = TINY_SWEEP if command == "sweep" else TINY_ANALYZE
    argv = [command, "--config", write_config(tmp_path, payload),
            "--out", str(tmp_path / "out")]
    argv += ["--subset", "both"] if command == "sweep" else []
    proc = subprocess.run([sys.executable, "-c", RUN_CLI_AND_LIST_SCIPY, *argv],
                          env=env, capture_output=True, text=True, check=True)
    code, *modules = proc.stdout.split()
    assert code == "0", proc.stderr
    assert not [m for m in modules if m.split(".")[0] == "jsonschema"]
    assert modules == ["scipy.linalg._flapack", "scipy.signal._sigtools"]


def test_series_cache_is_shared_across_processes(tmp_path, series_cache_dir):
    # the second process reads the series the first one stored, and its
    # outputs are byte-identical
    src = str(Path(shiftrc.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    cfg = write_config(tmp_path, TINY_SWEEP)
    outs, stats = [tmp_path / "a", tmp_path / "b"], []
    for out in outs:
        subprocess.run([sys.executable, "-m", "shiftrc.cli", "generate", "--config", cfg,
                        "--out", str(out)], env=env, check=True)
        files = list(series_cache_dir.iterdir())
        assert len(files) == 1
        stats.append(files[0].stat())
    assert file_hashes(outs[0]) == file_hashes(outs[1])
    manifests = [(out / "manifest.json").read_bytes() for out in outs]
    assert manifests[0] == manifests[1]
    assert (stats[1].st_ino, stats[1].st_mtime_ns) == (stats[0].st_ino, stats[0].st_mtime_ns)


@st.composite
def tiny_runs(draw, command: str, kind: str):
    """A command line and a tiny config for it: every readout and error
    setting the CLI offers, and a reservoir input fraction that may reach
    no node (a config error)."""
    nodes, tau_max = draw(st.integers(2, 5)), draw(st.integers(0, 3))
    fractions = st.sampled_from([1.0, 0.5, 0.3])  # each reaches a node of two
    reservoir = {"kind": kind, "nodes": nodes,
                 "f_w": draw(st.sampled_from([1.0, 0.5, 0.3, 0.1]))}
    if kind == "oeo":
        reservoir["theta"] = draw(st.integers(1, 4))
    config = {
        "task": {"system": draw(st.sampled_from(["lorenz", "rossler"])),
                 "kind": draw(st.sampled_from(["prediction", "observer"]))},
        "data": {"train_steps": draw(st.sampled_from([80, 120])), "test_steps": 60,
                 "transient_samples": 20},
        "reservoir": reservoir,
        "shifts": {"tau_max": tau_max},
        "selection": {"m_red_grid": draw(st.lists(st.integers(1, nodes * (tau_max + 1)),
                                                  min_size=1, max_size=3)),
                      "n_masks": draw(st.integers(1, 2)),
                      "n_random_subsets": draw(st.integers(1, 2))},
        "readout": {"ridge_lambda": draw(st.sampled_from([0.0, 1e-6, 1.0])),
                    "include_bias": draw(st.booleans())},
        "nrmse_mode": draw(st.sampled_from(["global", "paper-literal"])),
        "washout": draw(st.integers(0, 20)),
        "continuation": draw(st.booleans()),
        "master_seed": draw(st.integers(0, 1000)),
        "analysis": {"f_w_values": draw(st.lists(fractions, min_size=1, max_size=2)),
                     "f_a_values": draw(st.lists(fractions, min_size=1, max_size=2)),
                     "n_trials": draw(st.integers(1, 2)), "window": draw(st.integers(2, 4))},
    }
    if command == "sweep":
        return [command, "--subset", draw(st.sampled_from(["both", "rrqr", "random"]))], config
    return [command], config


def assert_no_nan_written(out: Path) -> None:
    """No output under ``out`` holds a NaN or an infinity, except the
    mean_correlation of analysis.csv, which is NaN for a constant node."""
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        text = path.read_text()
        if path.suffix == ".json":
            def reject(token, name=path.name):
                raise AssertionError(f"{name} holds {token}")
            json.loads(text, parse_constant=reject)
            continue
        header, *rows = (line.split(",") for line in text.splitlines())
        for row in rows:
            for name, value in zip(header, row, strict=True):
                if value and (path.name, name) != ("analysis.csv", "mean_correlation"):
                    assert math.isfinite(float(value)), (path.name, name, row)


@pytest.mark.parametrize("command,kind", [("generate", "oeo"), ("generate", "tanh"),
                                          ("sweep", "oeo"), ("sweep", "tanh"),
                                          ("analyze", "tanh")])
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_tiny_config_fuzz(command, kind, data):
    # every run ends with a documented exit code, none with a traceback,
    # and a successful one writes only finite numbers
    argv, config = data.draw(tiny_runs(command, kind))
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        code = main([*argv, "--config", str(path), "--out", str(out)])
        assert code in (0, 2, 3)
        if code == 0:
            assert_no_nan_written(out)


WRITE_CALLS = {"write_text", "write_bytes", "dump", "save", "savez", "savetxt", "tofile"}


def _opens_for_writing(call):
    """An ``open`` call given a mode that writes, appends or creates."""
    args = call.args + [k.value for k in call.keywords]
    return any(isinstance(a, ast.Constant) and isinstance(a.value, str)
               and set(a.value) <= set("rwaxbt+") and set(a.value) & set("wax+")
               for a in args)


def test_only_the_cli_writes_files():
    # the output format lives behind one module: no other module of the
    # package opens a file for writing or writes one through a helper. The
    # one exception is the series cache, which writes no outputs, only its
    # own files outside --out.
    found = []
    for path in sorted(Path(shiftrc.__file__).parent.glob("*.py")):
        if path.name in ("cli.py", "series_cache.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in WRITE_CALLS or (name in ("open", "fdopen")
                                       and _opens_for_writing(node)):
                found.append(f"{path.name}:{node.lineno} {name}")
    assert not found


def _talks_to_terminal(node) -> bool:
    """Whether an AST node imports logging or warnings, calls print, or
    names sys.stdout or sys.stderr."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] in ("logging", "warnings") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.split(".")[0] in ("logging", "warnings") or (
            module == "sys" and any(alias.name in ("stdout", "stderr") for alias in node.names))
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "print"
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "sys" and node.attr in ("stdout", "stderr"))


def test_only_the_cli_talks_to_the_terminal():
    # messages reach the user through the CLI alone: no other module of the
    # package logs, warns, prints or names the standard streams
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(shiftrc.__file__).parent.glob("*.py"))
             if path.name != "cli.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if _talks_to_terminal(node)]
    assert not found
    assert _talks_to_terminal(ast.parse("import logging.handlers").body[0])
    assert _talks_to_terminal(ast.parse("sys.stderr.write('x')").body[0].value.func.value)


def subcommand_parsers() -> dict:
    return next(action for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def test_parser_runs_the_command_table():
    # a run command is named once, in COMMANDS; replay is the one other
    assert list(subcommand_parsers()) == [*COMMANDS, "replay"]


def test_every_command_takes_the_one_threads_flag():
    helps = {name: [action.help for action in p._actions if "--threads" in action.option_strings]
             for name, p in subcommand_parsers().items()}
    assert list(helps) == [*COMMANDS, "replay"]
    assert len({tuple(h) for h in helps.values()}) == 1
    assert "SHIFTRC_THREADS" in helps["replay"][0]


@pytest.mark.parametrize("command", COMMANDS)
def test_replay_reproduces_each_command(tmp_path, command):
    payload = TINY_ANALYZE if command == "analyze" else TINY_SWEEP
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, payload),
                 "--out", str(out)]) == 0
    replay_out = tmp_path / "replayed"
    assert main(["replay", "--manifest", str(out / "manifest.json"),
                 "--out", str(replay_out)]) == 0
    assert file_hashes(out) == file_hashes(replay_out)


def test_field_error_prefix_spelt_once():
    # every field error is worded by config.invalid_field, so its prefix
    # is written in config.py alone
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(shiftrc.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and "invalid config field" in node.value]
    assert found and all(where.startswith("config.py:") for where in found)


def test_cli_writes_files_in_one_place():
    # every file of a run is written by one loop in _dispatch, after all of
    # its outputs are formatted
    tree = ast.parse((Path(shiftrc.__file__).parent / "cli.py").read_text())
    dispatch = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "_dispatch")

    def write_calls(root):
        return sorted(node.func.attr for node in ast.walk(root)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr in ("mkdir", "write_text"))

    assert write_calls(tree) == write_calls(dispatch) == ["mkdir", "write_text"]


TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_no_definition_exists_only_for_tests():
    # every top-level function and class of the package is used by the
    # package, exported from it or timed by the benchmark; code that only
    # the tests call belongs in the tests
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    package = Path(shiftrc.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    used = {(node.id if isinstance(node, ast.Name) else node.attr)
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    used |= {alias.name for node in ast.walk(trees["__init__"])
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    unused = [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in used and (module, node.name) not in tracing.LAYERS]
    assert not unused
