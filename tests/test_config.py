"""Config resolution: field checks against the defaults, and pinned hashes."""

import copy
import dataclasses
import inspect
import json
import sys
from pathlib import Path

import pytest

from shiftrc import analysis, pipeline, reservoir
from shiftrc.config import (
    BOUNDS,
    CHOICES,
    DEFAULT_CONFIG,
    RESERVOIR_DEFAULTS,
    ExperimentConfig,
    analysis_from_dict,
    config_hash,
    experiment_from_dict,
    resolve_config,
)
from shiftrc.dynamics import ChaoticParams, make_task
from shiftrc.errors import ConfigError
from shiftrc.reservoir import OEOConfig, make_oeo_config, make_tanh_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

OEO = {"task": {"system": "lorenz", "kind": "prediction"}}
TANH = {"task": {"system": "lorenz", "kind": "observer"}, "reservoir": {"kind": "tanh"}}
MISSING = ...  # no JSON value: with_field removes the field instead


def with_field(base: dict, path: str, value) -> dict:
    """A copy of ``base`` with the field at dotted ``path`` set to ``value``,
    or removed when ``value`` is MISSING."""
    raw = copy.deepcopy(base)
    *sections, name = path.split(".")
    node = raw
    for section in sections:
        node = node.setdefault(section, {})
    if value is MISSING:
        node.pop(name, None)
    else:
        node[name] = value
    return raw


# (base config, dotted field, value, dotted path the error names)
REJECTED = [
    # unknown keys, at the root, in a section and in each reservoir kind
    (OEO, "typo_key", 1, "typo_key"),
    (OEO, "task.typo_key", 1, "task.typo_key"),
    (OEO, "data.typo_key", 1, "data.typo_key"),
    (OEO, "reservoir.alpha", 0.35, "reservoir.alpha"),
    (TANH, "reservoir.theta", 40, "reservoir.theta"),
    (TANH, "reservoir.sample_offset", None, "reservoir.sample_offset"),
    # a section that is not an object
    (OEO, "task", "lorenz", "task"),
    (OEO, "data", [], "data"),
    (OEO, "reservoir", "oeo", "reservoir"),
    (OEO, "analysis", None, "analysis"),
    # missing task fields
    (OEO, "task", MISSING, "task"),
    (OEO, "task.system", MISSING, "task.system"),
    (OEO, "task.kind", MISSING, "task.kind"),
    # bad choices
    (OEO, "task.system", "henon", "task.system"),
    (OEO, "task.kind", "forecast", "task.kind"),
    (OEO, "reservoir.kind", "esn", "reservoir.kind"),
    (OEO, "reservoir.kind", 0, "reservoir.kind"),
    # a misspelt kind is reported as the kind, not as a field of the other kind
    (OEO, "reservoir", {"kind": "tnah", "alpha": 0.35}, "reservoir.kind"),
    (OEO, "nrmse_mode", "local", "nrmse_mode"),
    # wrong JSON types: a bool for an integer or a number, null outside
    # sample_offset, text for a number, a number for a bool or a list
    (OEO, "reservoir.nodes", True, "reservoir.nodes"),
    (OEO, "master_seed", False, "master_seed"),
    (OEO, "readout.ridge_lambda", False, "readout.ridge_lambda"),
    (OEO, "data.initial_state", [1.0, True, 1.0], "data.initial_state.1"),
    (OEO, "reservoir.theta", None, "reservoir.theta"),
    (OEO, "data.dt_internal", None, "data.dt_internal"),
    (OEO, "selection.m_red_grid", [10, None], "selection.m_red_grid.1"),
    (OEO, "reservoir.beta", "0.8", "reservoir.beta"),
    (OEO, "readout.include_bias", 1, "readout.include_bias"),
    (OEO, "selection.m_red_grid", 10, "selection.m_red_grid"),
    (OEO, "analysis.window", 4.0, "analysis.window"),
    (OEO, "selection.m_red_grid", [10, 20.0], "selection.m_red_grid.1"),
    (OEO, "reservoir.beta", 10**400, "reservoir.beta"),  # no float holds it
    # inclusive bounds, one step outside
    (OEO, "data.train_steps", 1, "data.train_steps"),
    (OEO, "data.test_steps", 0, "data.test_steps"),
    (OEO, "data.transient_samples", -1, "data.transient_samples"),
    (OEO, "reservoir.nodes", 0, "reservoir.nodes"),
    (OEO, "reservoir.theta", 0, "reservoir.theta"),
    (OEO, "reservoir.f_w", 1.01, "reservoir.f_w"),
    (OEO, "reservoir.sample_offset", 0, "reservoir.sample_offset"),
    (TANH, "reservoir.nodes", 1, "reservoir.nodes"),
    (TANH, "reservoir.alpha", 1.01, "reservoir.alpha"),
    (TANH, "reservoir.f_a", 1.01, "reservoir.f_a"),
    (TANH, "reservoir.f_w", 1.01, "reservoir.f_w"),
    (OEO, "shifts.tau_max", -1, "shifts.tau_max"),
    (OEO, "selection.m_red_grid", [10, 0], "selection.m_red_grid.1"),
    (OEO, "selection.n_masks", 0, "selection.n_masks"),
    (OEO, "selection.n_random_subsets", 0, "selection.n_random_subsets"),
    (OEO, "readout.ridge_lambda", -1e-300, "readout.ridge_lambda"),
    (OEO, "washout", -1, "washout"),
    (OEO, "master_seed", -1, "master_seed"),
    (OEO, "analysis.f_w_values", [0.5, 1.01], "analysis.f_w_values.1"),
    (OEO, "analysis.f_a_values", [1.01], "analysis.f_a_values.0"),
    (OEO, "analysis.n_trials", 0, "analysis.n_trials"),
    (OEO, "analysis.window", 1, "analysis.window"),
    # exclusive bounds, at the edge
    (OEO, "data.dt_internal", 0.0, "data.dt_internal"),
    (OEO, "data.sample_interval", 0, "data.sample_interval"),
    (OEO, "reservoir.f_w", 0.0, "reservoir.f_w"),
    (TANH, "reservoir.alpha", 0.0, "reservoir.alpha"),
    (TANH, "reservoir.spectral_radius", 0, "reservoir.spectral_radius"),
    (TANH, "reservoir.f_a", 0.0, "reservoir.f_a"),
    (TANH, "reservoir.f_w", 0.0, "reservoir.f_w"),
    (OEO, "analysis.f_w_values", [0.0], "analysis.f_w_values.0"),
    (OEO, "analysis.f_a_values", [0.5, 0], "analysis.f_a_values.1"),
    # a repeated grid value: the grid point would be run, and written, twice
    (OEO, "selection.m_red_grid", [10, 20, 10], "selection.m_red_grid"),
    (TANH, "analysis.f_w_values", [0.5, 0.5], "analysis.f_w_values"),
    (TANH, "analysis.f_a_values", [0.3, 0.9, 0.3], "analysis.f_a_values"),
    # list lengths
    (OEO, "data.initial_state", [1.0, 1.0], "data.initial_state"),
    (OEO, "data.initial_state", [1.0, 1.0, 1.0, 1.0], "data.initial_state"),
    (OEO, "selection.m_red_grid", [], "selection.m_red_grid"),
    (OEO, "analysis.f_w_values", [], "analysis.f_w_values"),
    (OEO, "analysis.f_a_values", [], "analysis.f_a_values"),
]


@pytest.mark.parametrize("base,path,value,where", REJECTED,
                         ids=[f"{'tanh' if b is TANH else 'oeo'}-{p}-{v!r:.24}"
                              for b, p, v, _ in REJECTED])
def test_invalid_field_rejected(base, path, value, where):
    with pytest.raises(ConfigError, match=f"invalid config field '{where}':"):
        resolve_config(with_field(base, path, value))


@pytest.mark.parametrize("base,path,value", [
    (OEO, "readout.ridge_lambda", 0),
    (OEO, "analysis.window", 2),
    (OEO, "reservoir.f_w", 1),
    (TANH, "reservoir.f_w", 1),
    (TANH, "reservoir.alpha", 1.0),
    (OEO, "data.transient_samples", 0),
    (OEO, "reservoir.sample_offset", None),
    (OEO, "reservoir.beta", 1),  # a number field takes a JSON integer
    (OEO, "readout.ridge_lambda", sys.float_info.max),  # the largest finite number
])
def test_inclusive_edges_accepted(base, path, value):
    resolved = resolve_config(with_field(base, path, value))
    section, _, name = path.rpartition(".")
    assert resolved[section][name] == value and type(resolved[section][name]) is type(value)


@pytest.mark.parametrize("name,digest", [
    ("lorenz_observer_fig_sweep.json", "9e27146aa993ccbf499d2ba5dbc3c60ba446e068"),
    ("lorenz_prediction_fig_sweep.json", "d6b7247482f641df96116234707a564627c64f91"),
    ("rossler_prediction_fig_sweep.json", "ca9fd49eef637dd4a336ff169e735604233f2198"),
    ("tanh_sparseness_grid.json", "993575ecf7f368fbfe6dc0b5b1abf17bcec9e81c"),
])
def test_shipped_config_hash_is_pinned(name, digest):
    # the hashes that manifests written from these configs hold: a change
    # to resolution that moved one would stop them replaying
    assert config_hash(resolve_config(json.loads((CONFIGS / name).read_text()))) == digest


def defaults(obj) -> dict:
    """The defaults of a dataclass's fields or of a function's parameters."""
    if dataclasses.is_dataclass(obj):
        return {f.name: f.default for f in dataclasses.fields(obj)
                if f.default is not dataclasses.MISSING}
    return {name: p.default for name, p in inspect.signature(obj).parameters.items()
            if p.default is not inspect.Parameter.empty}


@pytest.mark.parametrize("kind", reservoir.SEED_ROLES)
def test_seed_roles_name_the_factory_seeds(kind):
    # a seed parameter without a role would leave the factory call short,
    # and a role without a parameter would draw a seed no reservoir uses
    params = inspect.signature(getattr(reservoir, f"make_{kind}_config")).parameters
    assert {name for name, p in params.items()
            if p.kind is p.KEYWORD_ONLY} == set(reservoir.SEED_ROLES[kind])


def test_library_defaults_are_the_config_defaults():
    # modules that config imports, or that stand alone, write the operating
    # point out again; each copy must agree with DEFAULT_CONFIG and BOUNDS
    oeo, tanh = ({("m" if k == "nodes" else k): v for k, v in table.items() if k != "kind"}
                 for table in (DEFAULT_CONFIG["reservoir"], RESERVOIR_DEFAULTS["tanh"]))
    assert defaults(make_oeo_config) == oeo
    assert defaults(OEOConfig) == {"sample_offset": None}  # the factory holds the rest
    assert defaults(make_tanh_config) == tanh
    data = DEFAULT_CONFIG["data"]
    assert defaults(ChaoticParams) == {
        k: data[k] for k in ("dt_internal", "sample_interval", "transient_samples")}
    assert defaults(make_task) == {"split": (data["train_steps"], data["test_steps"]),
                                   "standardize_drive": data["standardize_drive"]}
    assert analysis.DEFAULT_WINDOW == DEFAULT_CONFIG["analysis"]["window"]
    assert analysis.MAX_WINDOW == BOUNDS["analysis.window"]["<="]
    # a library ExperimentConfig runs the paper's grid, as a resolved one does
    resolved = experiment_from_dict(resolve_config(OEO))
    assert defaults(ExperimentConfig) == {
        name: getattr(resolved, name) for name in defaults(ExperimentConfig)}


class _Built(Exception):
    """Raised by the recording reservoir factories once they hold a call."""


def other_value(path: str, value):
    """A valid value for the field at ``path`` other than its default
    ``value``: the other text choice, a flipped bool, an integer one larger,
    a number halved, 1 for a null sample_offset, and a list of numbers
    halved or of integers one item shorter (m_red + 1 would pass the
    nodes*(tau_max+1) columns)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return next(choice for choice in CHOICES[path] if choice != value)
    if value is None:
        return 1
    if isinstance(value, list):
        return value[:-1] if isinstance(value[0], int) else [v / 2 for v in value]
    return value + 1 if isinstance(value, int) else value / 2


def leaves(table: dict, prefix: str = ""):
    for key, value in table.items():
        if isinstance(value, dict):
            yield from leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


# every field but the task's (renamed: no default) and the reservoir's kind
FIELDS = [(OEO, path, value) for path, value in leaves(DEFAULT_CONFIG)
          if path != "reservoir.kind"]
FIELDS += [(TANH, f"reservoir.{key}", value) for key, value in RESERVOIR_DEFAULTS["tanh"].items()
           if key != "kind"]


@pytest.mark.parametrize("base,path,default", FIELDS,
                         ids=[f"{'tanh' if b is TANH else 'oeo'}-{p}" for b, p, _ in FIELDS])
def test_every_field_reaches_its_consumer(monkeypatch, base, path, default):
    # config names are the config objects' field names and the reservoir
    # factories' parameter names (nodes is m); a field that lost its way
    # would be dropped or left at its default without a word
    value = other_value(path, default)
    assert value != default
    resolved = resolve_config(with_field(TANH if path.startswith("analysis.") else base,
                                         path, value))
    want = tuple(value) if isinstance(value, list) else value
    section, _, name = path.rpartition(".")
    calls = []

    def record(**kwargs):
        calls.append(kwargs)
        raise _Built

    monkeypatch.setattr(reservoir, "make_oeo_config", record)
    monkeypatch.setattr(reservoir, "make_tanh_config", record)
    monkeypatch.setattr(pipeline, "build_dataset", lambda data, task=None: None)
    if section == "reservoir":
        with pytest.raises(_Built):
            pipeline.sweep(experiment_from_dict(resolved))
        assert calls[0]["m" if name == "nodes" else name] == want
    elif section == "analysis":
        acfg = analysis_from_dict(resolved)
        assert getattr(acfg, name) == want
        if name in ("f_w_values", "f_a_values"):
            with pytest.raises(_Built):
                pipeline.analysis_sweep(acfg)
            assert calls[0][name[:3]] == want[0]
    else:
        cfg = experiment_from_dict(resolved)
        assert getattr(cfg.data if section == "data" else cfg, name) == want
