"""The package surface that the benchmark harness in ``perfbench/`` uses.

The traced benchmark wraps the functions listed in ``perfbench/tracing.py``,
its output checks read fields of the reservoir configs, and ``perfbench/run.py``
runs the CLI with fixed flags. Removing any of them breaks benchmark runs, so
it must fail here first.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from shiftrc.cli import build_parser
from shiftrc.reservoir import (
    StateMatrix,
    make_oeo_config,
    make_tanh_config,
    run_oeo_reservoir,
    run_tanh_reservoir,
)

from conftest import PERFBENCH

TRACING = PERFBENCH / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_are_callable(tracing):
    assert tracing.LAYERS
    wrapped = list(tracing.LAYERS)
    for (_, fn_name), aliases in tracing.ALIASES.items():
        wrapped += [(alias, fn_name) for alias in aliases]
    for module_name, fn_name in wrapped:
        module = importlib.import_module(f"shiftrc.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"{module_name}.{fn_name}"


def test_reservoir_configs_expose_checked_fields():
    oeo = make_oeo_config(m=4, theta=4, f_w=0.5, mask_seed=1)
    for name in ("mask", "theta", "beta", "phi", "rho", "sample_offset"):
        assert hasattr(oeo, name), name
    tanh = make_tanh_config(m=4, adjacency_seed=1, input_seed=2)
    for name in ("a", "w_in", "alpha"):
        assert hasattr(tanh, name), name


def test_single_config_runs_return_a_state_matrix():
    # the output checks run one config and read ``.values``
    drive = np.linspace(-1.0, 1.0, 12)
    oeo = run_oeo_reservoir(make_oeo_config(m=4, theta=4, f_w=0.5, mask_seed=1), drive, 2)
    tanh = run_tanh_reservoir(make_tanh_config(m=4, adjacency_seed=1, input_seed=2), drive, 0)
    assert isinstance(oeo, StateMatrix) and oeo.values.shape == (10, 4)
    assert isinstance(tanh, StateMatrix) and tanh.values.shape == (12, 4)


def test_workload_command_lines_parse(perfbench_run):
    # the benchmark runs each workload with --seed, --threads 1 and, for a
    # sweep, --subset; a CLI that dropped one would fail only the benchmark
    assert perfbench_run.WORKLOADS
    for workload in perfbench_run.WORKLOADS.values():
        args = build_parser().parse_args(workload.argv(Path("c.json"), Path("out"), 7))
        assert (args.command, args.seed, args.threads) == (workload.command, 7, 1)
        assert getattr(args, "subset", "both") == workload.subset
