"""Command-line interface: files, manifests, replay, exit codes."""

import ast
import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import shiftrc
from shiftrc.cli import main
from shiftrc.config import derive_seed, experiment_from_dict, resolve_config
from shiftrc.linalg import qr_column_pivot
from shiftrc.pipeline import build_series

from conftest import mask_context

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


def file_hashes(directory, skip=("manifest.json",)):
    out = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file() and path.name not in skip:
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

    def test_selection_diagnostics_record_the_pivot(self, tmp_path):
        # per mask: the full pivot order of the training matrix, its |R_kk|,
        # and the same |R_kk| again as a CSV
        out = tmp_path / "out"
        assert main(["sweep", "--config", write_config(tmp_path, TINY_SWEEP),
                     "--out", str(out), "--subset", "rrqr"]) == 0
        cfg = experiment_from_dict(resolve_config(TINY_SWEEP))
        n_columns, diag = cfg.n_shift_columns, out / "diagnostics"
        for mask_id in range(cfg.n_masks):
            sel = json.loads((diag / f"mask_{mask_id:04d}_selection.json").read_text())
            ctx = mask_context(cfg, derive_seed(cfg.master_seed, "trial", mask_id))
            tall = qr_column_pivot(ctx.shifted_train.values)
            assert sel["retained"] == [list(ctx.shifted_train.columns[j]) for j in tall.perm]
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

    def test_manifest_root_not_an_object(self, tmp_path, capsys):
        # a string holding every required key passes an ``in`` check
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps("command config_echo config_hash tool_version"))
        out = tmp_path / "o"
        assert main(["replay", "--manifest", str(path), "--out", str(out)]) == 2
        assert "object" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        payload = json.loads(json.dumps(TINY_SWEEP))
        payload["typo_key"] = 1
        cfg = write_config(tmp_path, payload)
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2

    def test_unwritable_out_dir(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_SWEEP)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code = main(["generate", "--config", cfg, "--out", str(blocker / "sub")])
        assert code == 3


WRITE_CALLS = {"write_text", "write_bytes", "dump", "save", "savez", "savetxt", "tofile"}


def _opens_for_writing(call):
    """An ``open`` call given a mode that writes, appends or creates."""
    args = call.args + [k.value for k in call.keywords]
    return any(isinstance(a, ast.Constant) and isinstance(a.value, str)
               and set(a.value) <= set("rwaxbt+") and set(a.value) & set("wax+")
               for a in args)


def test_only_the_cli_writes_files():
    # the output format lives behind one module: no other module of the
    # package opens a file for writing or writes one through a helper
    found = []
    for path in sorted(Path(shiftrc.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in WRITE_CALLS or (name == "open" and _opens_for_writing(node)):
                found.append(f"{path.name}:{node.lineno} {name}")
    assert not found


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
