"""End-to-end value oracle: sampled cells of two tiny CLI sweeps, recomputed
from scratch.

The recomputation uses none of the sweep's own code. It draws each mask's
reservoir through the public factories and ``derive_seed``, drives it over
the task split, builds every selected column by an explicit loop over
``[node, shift]`` labels, solves the tall ridge system ``[X_S; sqrt(lambda)
I]`` with LAPACK gelsd and computes the NRMSE from its definition. It thus
checks, as one chain, what the layer tests check apart: seed derivation,
split alignment, the washout, the ``tau_max`` trim of the targets, the
compressed fits and the row-block scoring.
"""

import json

import numpy as np
import pytest

from shiftrc import (
    TaskKind,
    derive_seed,
    integrate_chaotic,
    lorenz_params,
    make_oeo_config,
    make_tanh_config,
    make_task,
    rossler_params,
    run_oeo_reservoir,
    run_tanh_reservoir,
)
from shiftrc.cli import main

# An oscillator with both arms and the test split continuing the training
# run, and a tanh network with a bias readout and a fresh test run.
OEO_SWEEP = {
    "task": {"system": "lorenz", "kind": "prediction"},
    "data": {"train_steps": 400, "test_steps": 200, "transient_samples": 100},
    "reservoir": {"kind": "oeo", "nodes": 4, "theta": 4, "f_w": 0.5},
    "shifts": {"tau_max": 3},
    "selection": {"m_red_grid": [4, 9, 16], "n_masks": 2, "n_random_subsets": 3},
    "continuation": True,
    "washout": 20,
    "master_seed": 31,
}

TANH_SWEEP = {
    "task": {"system": "rossler", "kind": "observer"},
    "data": {"train_steps": 300, "test_steps": 150, "transient_samples": 100},
    "reservoir": {"kind": "tanh", "nodes": 10, "f_w": 0.6},
    "shifts": {"tau_max": 1},
    "selection": {"m_red_grid": [3, 12, 20], "n_masks": 2, "n_random_subsets": 3},
    "readout": {"include_bias": True},
    "continuation": False,
    "washout": 20,
    "master_seed": 8,
}


def task_of(echo):
    data = echo["data"]
    params = (lorenz_params if echo["task"]["system"] == "lorenz" else rossler_params)(
        dt_internal=data["dt_internal"], sample_interval=data["sample_interval"],
        transient_samples=data["transient_samples"])
    series = integrate_chaotic(params, tuple(data["initial_state"]),
                               data["train_steps"] + data["test_steps"] + 1)
    return make_task(series, TaskKind(echo["task"]["kind"]),
                     split=(data["train_steps"], data["test_steps"]),
                     standardize_drive=data["standardize_drive"])


def mask_states(echo, mask_id, task):
    """``(x_train, x_test, g_train, g_test)`` of one mask, each target
    aligned row by row with its states."""
    res, washout = echo["reservoir"], echo["washout"]
    trial = derive_seed(echo["master_seed"], "trial", mask_id)
    if res["kind"] == "oeo":
        cfg = make_oeo_config(m=res["nodes"], theta=res["theta"], beta=res["beta"],
                              phi=res["phi"], rho=res["rho"], f_w=res["f_w"],
                              sample_offset=res["sample_offset"],
                              mask_seed=derive_seed(trial, "mask"))
        run = run_oeo_reservoir
    else:
        cfg = make_tanh_config(m=res["nodes"], alpha=res["alpha"], f_a=res["f_a"],
                               f_w=res["f_w"], spectral_radius=res["spectral_radius"],
                               adjacency_seed=derive_seed(trial, "adjacency"),
                               input_seed=derive_seed(trial, "input-weights"))
        run = run_tanh_reservoir
    if echo["continuation"]:
        x = run(cfg, np.concatenate([task.drive_train, task.drive_test]), washout).values
        n_train = len(task.drive_train) - washout
        return x[:n_train], x[n_train:], task.target_train[washout:], task.target_test
    return (run(cfg, task.drive_train, washout).values,
            run(cfg, task.drive_test, washout).values,
            task.target_train[washout:], task.target_test[washout:])


def shifted_columns(x, labels, tau_max):
    """Column j is node ``labels[j][0]`` delayed by ``labels[j][1]`` steps,
    on the rows from ``tau_max`` on."""
    rows = x.shape[0] - tau_max
    out = np.empty((rows, len(labels)))
    for j, (node, shift) in enumerate(labels):
        for t in range(rows):
            out[t, j] = x[tau_max + t - shift, node]
    return out


def oracle_nrmse(states, labels, echo):
    """``(train, test)`` NRMSE of the ridge readout on the labelled columns."""
    x_train, x_test, g_train, g_test = states
    tau_max = echo["shifts"]["tau_max"]
    lam = echo["readout"]["ridge_lambda"]

    def design(x):
        cols = shifted_columns(x, labels, tau_max)
        if echo["readout"]["include_bias"]:
            cols = np.column_stack([np.ones(cols.shape[0]), cols])
        return cols

    a = design(x_train)
    k = a.shape[1]
    g = g_train[tau_max:]
    w = np.linalg.lstsq(np.vstack([a, np.sqrt(lam) * np.eye(k)]),
                        np.concatenate([g, np.zeros(k)]), rcond=None)[0]
    return tuple(float(np.sqrt(np.sum((y - d @ w) ** 2) / np.sum(y * y)))
                 for d, y in ((a, g), (design(x_test), g_test[tau_max:])))


@pytest.mark.parametrize("payload", [OEO_SWEEP, TANH_SWEEP],
                         ids=["oeo-both-continued", "tanh-bias-fresh"])
def test_sampled_cells_match_the_oracle(tmp_path, payload):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config), "--out", str(out),
                 "--subset", "both"]) == 0
    echo = json.loads((out / "manifest.json").read_text())["config_echo"]
    cells = json.loads((out / "cells.json").read_text())["cells"]
    assert echo["nrmse_mode"] == "global"
    n_nodes, tau_max = echo["reservoir"]["nodes"], echo["shifts"]["tau_max"]
    n_columns = n_nodes * (tau_max + 1)
    selection = echo["selection"]

    # every ranked and baseline cell, and one random cell per m_red of mask 0
    sample = [c for c in cells if c["method"] in ("rrqr", "baseline")]
    assert len(sample) == selection["n_masks"] * (len(selection["m_red_grid"]) + 1)
    pick = np.random.default_rng(0)
    for m_red in selection["m_red_grid"]:
        drawn = [c for c in cells
                 if c["method"] == "random" and c["mask_id"] == 0 and c["m_red"] == m_red]
        assert [c["subset_seed"] for c in drawn] == [
            derive_seed(echo["master_seed"], "subset", 0, i, m_red)
            for i in range(selection["n_random_subsets"])]
        sample.append(drawn[pick.integers(len(drawn))])

    task = task_of(echo)
    states = {}
    for cell in sample:
        mask_id, m_red = cell["mask_id"], cell["m_red"]
        if cell["method"] == "rrqr":
            diag = out / "diagnostics" / f"mask_{mask_id:04d}_selection.json"
            labels = json.loads(diag.read_text())["retained"][:m_red]
        elif cell["method"] == "random":
            drawn = np.random.default_rng(cell["subset_seed"]).choice(
                n_columns, size=m_red, replace=False)
            labels = [[j % n_nodes, j // n_nodes] for j in drawn]
        else:
            assert m_red == n_nodes
            labels = [[node, 0] for node in range(n_nodes)]
        if mask_id not in states:
            states[mask_id] = mask_states(echo, mask_id, task)
        want = oracle_nrmse(states[mask_id], labels, echo)
        got = (cell["nrmse_train"], cell["nrmse_test"])
        assert got == pytest.approx(want, rel=1e-10, abs=0.0), cell
