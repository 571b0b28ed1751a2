"""Run configuration: defaults, their validation, and deterministic seed derivation.

Every experiment is a pure function of its resolved configuration. The
defaults encode the standard operating point of both reservoirs and both
chaotic sources; a user file only needs to name the task. Sub-seeds are
derived from the master seed through a fixed, documented mixing function
(SHA-256 over a role-tagged key string) so that they are portable across
platforms and sessions.
"""

from __future__ import annotations

import copy
import hashlib
import json
import operator
import sys
from dataclasses import dataclass, field

from .analysis import MAX_WINDOW
from .dynamics import sampling_problem
from .errors import ConfigError

# The task itself is the user's choice and deliberately has no default.
DEFAULT_CONFIG = {
    "data": {
        "train_steps": 8000,
        "test_steps": 7500,
        "dt_internal": 0.01,
        "sample_interval": 1.0,
        "transient_samples": 1000,
        "initial_state": [1.0, 1.0, 1.0],
        "standardize_drive": True,
    },
    "reservoir": {
        "kind": "oeo",
        "nodes": 10,
        "theta": 40,
        "beta": 0.8,
        "phi": 0.2,
        "rho": 0.4,
        "f_w": 0.4,
        "sample_offset": None,
    },
    "shifts": {"tau_max": 10},
    "selection": {
        "m_red_grid": [10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110],
        "n_masks": 20,
        "n_random_subsets": 20,
    },
    "readout": {"ridge_lambda": 1e-6, "include_bias": False},
    "nrmse_mode": "global",
    "washout": 100,
    "continuation": True,
    "master_seed": 1,
    "analysis": {
        "f_w_values": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
        "f_a_values": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
        "n_trials": 20,
        "window": 4,
    },
}

TANH_RESERVOIR_DEFAULTS = {
    "kind": "tanh",
    "nodes": 50,
    "alpha": 0.35,
    "spectral_radius": 0.5,
    "f_a": 0.5,
    "f_w": 1.0,
}

# Text fields and their allowed values. The task has no default, so this
# table alone names its two fields.
CHOICES = {
    "task.system": ("lorenz", "rossler"),
    "task.kind": ("prediction", "observer"),
    "reservoir.kind": ("oeo", "tanh"),
    "nrmse_mode": ("global", "paper-literal"),
}

# Bounds of the numeric fields as {comparison: limit}. A list's bounds hold
# for each of its items and its "len" bounds for its length. The reservoir's
# fields are keyed by its kind: a tanh network needs two nodes.
BOUNDS = {
    "data.train_steps": {">=": 2},
    "data.test_steps": {">=": 1},
    "data.dt_internal": {">": 0},
    "data.sample_interval": {">": 0},
    "data.transient_samples": {">=": 0},
    "data.initial_state": {"len": {"==": 3}},
    "oeo.nodes": {">=": 1},
    "oeo.theta": {">=": 1},
    "oeo.f_w": {">": 0, "<=": 1},
    "oeo.sample_offset": {">=": 1},
    "tanh.nodes": {">=": 2},
    "tanh.alpha": {">": 0, "<=": 1},
    "tanh.spectral_radius": {">": 0},
    "tanh.f_a": {">": 0, "<=": 1},
    "tanh.f_w": {">": 0, "<=": 1},
    "shifts.tau_max": {">=": 0},
    "selection.m_red_grid": {"len": {">=": 1}, ">=": 1},
    "selection.n_masks": {">=": 1},
    "selection.n_random_subsets": {">=": 1},
    "readout.ridge_lambda": {">=": 0},
    "washout": {">=": 0},
    "master_seed": {">=": 0},
    "analysis.f_w_values": {"len": {">=": 1}, ">": 0, "<=": 1},
    "analysis.f_a_values": {"len": {">=": 1}, ">": 0, "<=": 1},
    "analysis.n_trials": {">=": 1},
    "analysis.window": {">=": 2, "<=": MAX_WINDOW},
}

_COMPARE = {">": operator.gt, ">=": operator.ge, "<=": operator.le, "==": operator.eq}


def derive_seed(master_seed: int, role: str, *indices: int) -> int:
    """Mix a master seed, a role label, and indices into a 64-bit sub-seed.

    Defined as the little-endian first 8 bytes of
    ``sha256("{master}:{role}:{i0}:{i1}...")``; fixed so that derived seeds
    are reproducible across platforms and implementations.
    """
    key = ":".join([str(int(master_seed)), role, *(str(int(i)) for i in indices)])
    digest = hashlib.sha256(key.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little")


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _invalid(path: str, problem: str) -> ConfigError:
    return ConfigError(f"invalid config field '{path}': {problem}")


def _type_problem(value, default) -> str | None:
    """Why ``value`` cannot stand where ``default`` does, or None. JSON
    integers and numbers stay apart: ``4.0`` is no integer."""
    if isinstance(default, bool):
        return None if isinstance(value, bool) else "must be true or false"
    if isinstance(default, str):
        return None if isinstance(value, str) else "must be a string"
    if default is None or isinstance(default, int):  # None: sample_offset
        if type(value) is int or (default is None and value is None):
            return None
        return "must be an integer" + (" or null" if default is None else "")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return "must be a number"
    if not abs(value) <= sys.float_info.max:  # NaN, an infinity, or an int no float holds
        return "must be a finite number"
    return None


def _check_limits(subject, limits: dict, path: str, what: str = "") -> None:
    for op, limit in limits.items():
        if op != "len" and not _COMPARE[op](subject, limit):
            raise _invalid(path, f"{what}must be {op} {limit}, got {subject!r}")


def _check(value, default, path: str, kind: str) -> None:
    """Raise ConfigError unless ``value`` may stand where ``default`` does:
    the same fields, each of its default's JSON type (a list's items of its
    first item's), keeping its CHOICES and BOUNDS entries. ``kind`` is the
    reservoir's, whose BOUNDS apply."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise _invalid(path, "must be an object")
        for key in value:
            if key not in default:
                raise _invalid(f"{path}.{key}" if path else key, "is not a known field")
        for key, sub in default.items():
            where = f"{path}.{key}" if path else key
            if key not in value:
                raise _invalid(where, "is required")
            _check(value[key], sub, where, kind)
        return
    section, _, name = path.partition(".")
    limits = BOUNDS.get(f"{kind}.{name}" if section == "reservoir" else path, {})
    items = [(path, value)]
    if isinstance(default, list):
        if not isinstance(value, list):
            raise _invalid(path, "must be a list")
        _check_limits(len(value), limits.get("len", {}), path, "its length ")
        items, default = [(f"{path}.{i}", item) for i, item in enumerate(value)], default[0]
    for where, item in items:
        problem = _type_problem(item, default)
        if problem is not None:
            raise _invalid(where, problem)
        if path in CHOICES and item not in CHOICES[path]:
            raise _invalid(where, f"must be one of {', '.join(CHOICES[path])}, got {item!r}")
        if item is not None:
            _check_limits(item, limits, where)


def check_m_red_grid(grid, nodes: int, tau_max: int) -> None:
    """Raise ConfigError unless the m_red of ``grid`` are distinct widths of
    the shifted matrix, 1..nodes*(tau_max+1)."""
    n_columns = nodes * (tau_max + 1)
    for i, m_red in enumerate(grid):
        if not 1 <= m_red <= n_columns:
            raise _invalid("selection.m_red_grid", f"{m_red} is outside "
                           f"1..nodes*(tau_max+1) = 1..{n_columns}")
        if m_red in grid[:i]:
            raise _invalid("selection.m_red_grid", f"{m_red} is repeated")


def resolve_config(raw: dict) -> dict:
    """Merge a user config over the defaults and validate the result.

    Reservoir defaults are chosen by the user's reservoir kind before
    merging, so a tanh request is not polluted by oscillator fields; the
    merged config is then checked field by field against those defaults.

    Raises:
        ConfigError: unknown, missing or mistyped field, NaN or infinite
            number, value outside CHOICES or BOUNDS (message names the
            offending field) or cross-field inconsistency such as an
            oversized m_red entry, a ``dt_internal`` that does not divide
            ``sample_interval``, or an input fraction that rounds to no
            input node.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be an object, got {type(raw).__name__}")
    defaults = DEFAULT_CONFIG
    reservoir = raw.get("reservoir")
    if isinstance(reservoir, dict) and reservoir.get("kind") == "tanh":
        defaults = {**DEFAULT_CONFIG, "reservoir": TANH_RESERVOIR_DEFAULTS}
    resolved = _deep_merge(defaults, raw)
    _check(resolved, {"task": {"system": "", "kind": ""}, **defaults}, "",
           defaults["reservoir"]["kind"])

    problem = sampling_problem(resolved["data"]["dt_internal"],
                               resolved["data"]["sample_interval"])
    if problem is not None:
        raise ConfigError(f"invalid config field 'data.dt_internal': {problem}")

    nodes = resolved["reservoir"]["nodes"]
    tau_max = resolved["shifts"]["tau_max"]
    check_m_red_grid(resolved["selection"]["m_red_grid"], nodes, tau_max)
    # Only a tanh reservoir runs the analysis grid, so only its fields count.
    fractions = [("reservoir.f_w", resolved["reservoir"]["f_w"])]
    if resolved["reservoir"]["kind"] == "tanh":
        fractions += [("analysis.f_w_values", f) for f in resolved["analysis"]["f_w_values"]]
        rows = resolved["data"]["train_steps"] - resolved["washout"]
        if resolved["analysis"]["window"] > rows:
            raise ConfigError("invalid config field 'analysis.window': exceeds the "
                              f"{rows} training rows (train_steps - washout)")
    for name, f_w in fractions:
        if round(f_w * nodes) == 0:
            raise ConfigError(
                f"invalid config field '{name}': round({f_w} * nodes) = 0, so the "
                "reservoir would receive no input"
            )
    if resolved["data"]["train_steps"] <= resolved["washout"] + tau_max:
        raise ConfigError(
            "invalid config field 'data.train_steps': must exceed "
            f"washout + tau_max = {resolved['washout'] + tau_max}"
        )
    test_floor = tau_max if resolved["continuation"] else resolved["washout"] + tau_max
    if resolved["data"]["test_steps"] <= test_floor:
        raise ConfigError(
            f"invalid config field 'data.test_steps': must exceed {test_floor} "
            "(tau_max, plus washout when continuation is off)"
        )
    oeo = resolved["reservoir"]
    if oeo["kind"] == "oeo" and oeo.get("sample_offset") is not None:
        if oeo["sample_offset"] > oeo["theta"]:
            raise ConfigError(
                "invalid config field 'reservoir.sample_offset': must be "
                f"<= theta = {oeo['theta']}"
            )
    return resolved


def canonical_json(config: dict) -> str:
    """Key-sorted compact JSON used for hashing and manifest echoes."""
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def git_blob_sha1(data: bytes) -> str:
    """Content hash in git blob format: sha1 over 'blob {len}\\0{data}'."""
    h = hashlib.sha1()
    h.update(b"blob %d\x00" % len(data))
    h.update(data)
    return h.hexdigest()


def config_hash(config: dict) -> str:
    return git_blob_sha1(canonical_json(config).encode("ascii"))


@dataclass(frozen=True)
class DataConfig:
    system: str
    task: str
    train_steps: int
    test_steps: int
    dt_internal: float
    sample_interval: float
    transient_samples: int
    initial_state: tuple[float, float, float]
    standardize_drive: bool


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved sweep configuration; pipeline behavior is a pure function of it."""

    data: DataConfig
    reservoir: dict = field(hash=False)
    tau_max: int = DEFAULT_CONFIG["shifts"]["tau_max"]
    m_red_grid: tuple[int, ...] = tuple(DEFAULT_CONFIG["selection"]["m_red_grid"])
    ridge_lambda: float = DEFAULT_CONFIG["readout"]["ridge_lambda"]
    include_bias: bool = DEFAULT_CONFIG["readout"]["include_bias"]
    n_masks: int = DEFAULT_CONFIG["selection"]["n_masks"]
    n_random_subsets: int = DEFAULT_CONFIG["selection"]["n_random_subsets"]
    master_seed: int = DEFAULT_CONFIG["master_seed"]
    nrmse_mode: str = DEFAULT_CONFIG["nrmse_mode"]
    washout: int = DEFAULT_CONFIG["washout"]
    continuation: bool = DEFAULT_CONFIG["continuation"]

    @property
    def n_nodes(self) -> int:
        return self.reservoir["nodes"]


def _fields(section: dict) -> dict:
    """A section's fields as keyword arguments; lists become tuples."""
    return {key: tuple(value) if isinstance(value, list) else value
            for key, value in section.items()}


def experiment_from_dict(resolved: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a resolved (validated) config dict.
    Each field is passed under its own name; only the task's are renamed."""
    task, rest = resolved["task"], {}
    for key, value in resolved.items():
        if key not in ("task", "data", "reservoir", "analysis"):
            rest.update(value if isinstance(value, dict) else {key: value})
    data = DataConfig(system=task["system"], task=task["kind"], **_fields(resolved["data"]))
    return ExperimentConfig(data=data, reservoir=dict(resolved["reservoir"]), **_fields(rest))


@dataclass(frozen=True)
class AnalysisConfig:
    """Entropy/correlation grid over input and adjacency sparseness."""

    base: ExperimentConfig
    f_w_values: tuple[float, ...]
    f_a_values: tuple[float, ...]
    n_trials: int
    window: int


def analysis_from_dict(resolved: dict) -> AnalysisConfig:
    return AnalysisConfig(base=experiment_from_dict(resolved), **_fields(resolved["analysis"]))
