"""Run configuration: JSON schema, defaults, and deterministic seed derivation.

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
from dataclasses import dataclass, field

import jsonschema

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

_OEO_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"const": "oeo"},
        "nodes": {"type": "integer", "minimum": 1},
        "theta": {"type": "integer", "minimum": 1},
        "beta": {"type": "number"},
        "phi": {"type": "number"},
        "rho": {"type": "number"},
        "f_w": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "sample_offset": {"type": ["integer", "null"], "minimum": 1},
    },
}

_TANH_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"const": "tanh"},
        "nodes": {"type": "integer", "minimum": 2},
        "alpha": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "spectral_radius": {"type": "number", "exclusiveMinimum": 0},
        "f_a": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "f_w": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
    },
}

CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "additionalProperties": False,
    "required": ["task"],
    "properties": {
        "task": {
            "type": "object",
            "additionalProperties": False,
            "required": ["system", "kind"],
            "properties": {
                "system": {"enum": ["lorenz", "rossler"]},
                "kind": {"enum": ["prediction", "observer"]},
            },
        },
        "data": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "train_steps": {"type": "integer", "minimum": 2},
                "test_steps": {"type": "integer", "minimum": 1},
                "dt_internal": {"type": "number", "exclusiveMinimum": 0},
                "sample_interval": {"type": "number", "exclusiveMinimum": 0},
                "transient_samples": {"type": "integer", "minimum": 0},
                "initial_state": {
                    "type": "array",
                    "items": {"type": "number"},
                    "minItems": 3,
                    "maxItems": 3,
                },
                "standardize_drive": {"type": "boolean"},
            },
        },
        "reservoir": {"oneOf": [_OEO_SCHEMA, _TANH_SCHEMA]},
        "shifts": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"tau_max": {"type": "integer", "minimum": 0}},
        },
        "selection": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "m_red_grid": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 1},
                    "minItems": 1,
                },
                "n_masks": {"type": "integer", "minimum": 1},
                "n_random_subsets": {"type": "integer", "minimum": 1},
            },
        },
        "readout": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "ridge_lambda": {"type": "number", "minimum": 0},
                "include_bias": {"type": "boolean"},
            },
        },
        "nrmse_mode": {"enum": ["global", "paper-literal"]},
        "washout": {"type": "integer", "minimum": 0},
        "continuation": {"type": "boolean"},
        "master_seed": {"type": "integer", "minimum": 0},
        "analysis": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "f_w_values": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                    "minItems": 1,
                },
                "f_a_values": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                    "minItems": 1,
                },
                "n_trials": {"type": "integer", "minimum": 1},
                "window": {"type": "integer", "minimum": 2, "maximum": 20},
            },
        },
    },
}


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


def resolve_config(raw: dict) -> dict:
    """Merge a user config over the defaults and validate the result.

    Reservoir defaults are chosen by the user's reservoir kind before
    merging, so a tanh request is not polluted by oscillator fields.

    Raises:
        ConfigError: schema violation (message names the offending field) or
            cross-field inconsistency such as an oversized m_red entry or an
            input fraction that rounds to no input node.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be an object, got {type(raw).__name__}")
    defaults = copy.deepcopy(DEFAULT_CONFIG)
    reservoir = raw.get("reservoir")
    if isinstance(reservoir, dict) and reservoir.get("kind") == "tanh":
        defaults["reservoir"] = copy.deepcopy(TANH_RESERVOIR_DEFAULTS)
    resolved = _deep_merge(defaults, raw)
    try:
        jsonschema.validate(resolved, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        path = ".".join(str(p) for p in exc.absolute_path) or "(root)"
        raise ConfigError(f"invalid config field '{path}': {exc.message}") from None

    nodes = resolved["reservoir"]["nodes"]
    tau_max = resolved["shifts"]["tau_max"]
    max_cols = nodes * (tau_max + 1)
    for m_red in resolved["selection"]["m_red_grid"]:
        if m_red > max_cols:
            raise ConfigError(
                f"invalid config field 'selection.m_red_grid': {m_red} exceeds "
                f"nodes*(tau_max+1) = {max_cols}"
            )
    # Only a tanh reservoir runs the analysis grid, so only its f_w_values count.
    fractions = [("reservoir.f_w", resolved["reservoir"]["f_w"])]
    if resolved["reservoir"]["kind"] == "tanh":
        fractions += [("analysis.f_w_values", f) for f in resolved["analysis"]["f_w_values"]]
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
    tau_max: int = 10
    m_red_grid: tuple[int, ...] = ()
    ridge_lambda: float = 1e-6
    include_bias: bool = False
    n_masks: int = 20
    n_random_subsets: int = 20
    master_seed: int = 1
    nrmse_mode: str = "global"
    washout: int = 100
    continuation: bool = True

    @property
    def n_nodes(self) -> int:
        return self.reservoir["nodes"]

    @property
    def n_shift_columns(self) -> int:
        return self.n_nodes * (self.tau_max + 1)


def experiment_from_dict(resolved: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a resolved (validated) config dict."""
    data = DataConfig(
        system=resolved["task"]["system"],
        task=resolved["task"]["kind"],
        train_steps=resolved["data"]["train_steps"],
        test_steps=resolved["data"]["test_steps"],
        dt_internal=resolved["data"]["dt_internal"],
        sample_interval=resolved["data"]["sample_interval"],
        transient_samples=resolved["data"]["transient_samples"],
        initial_state=tuple(resolved["data"]["initial_state"]),
        standardize_drive=resolved["data"]["standardize_drive"],
    )
    return ExperimentConfig(
        data=data,
        reservoir=dict(resolved["reservoir"]),
        tau_max=resolved["shifts"]["tau_max"],
        m_red_grid=tuple(resolved["selection"]["m_red_grid"]),
        ridge_lambda=resolved["readout"]["ridge_lambda"],
        include_bias=resolved["readout"]["include_bias"],
        n_masks=resolved["selection"]["n_masks"],
        n_random_subsets=resolved["selection"]["n_random_subsets"],
        master_seed=resolved["master_seed"],
        nrmse_mode=resolved["nrmse_mode"],
        washout=resolved["washout"],
        continuation=resolved["continuation"],
    )


@dataclass(frozen=True)
class AnalysisConfig:
    """Entropy/correlation grid over input and adjacency sparseness."""

    base: ExperimentConfig
    f_w_values: tuple[float, ...]
    f_a_values: tuple[float, ...]
    n_trials: int
    window: int


def analysis_from_dict(resolved: dict) -> AnalysisConfig:
    if resolved["reservoir"]["kind"] != "tanh":
        raise ConfigError(
            "invalid config field 'reservoir.kind': the sparseness analysis "
            "grid runs on the tanh reservoir"
        )
    section = resolved["analysis"]
    return AnalysisConfig(
        base=experiment_from_dict(resolved),
        f_w_values=tuple(section["f_w_values"]),
        f_a_values=tuple(section["f_a_values"]),
        n_trials=section["n_trials"],
        window=section["window"],
    )
