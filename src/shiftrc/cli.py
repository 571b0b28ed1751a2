"""Command-line front end.

Subcommands: ``generate`` (task data CSVs), ``sweep`` (selection-method
comparison over an m_red grid), ``analyze`` (sparseness grid diagnostics)
and ``replay`` (re-run a manifest bitwise). Every run writes a manifest that
fully determines its outputs. Every output is formatted here, by one CSV
formatter and one JSON formatter, and written in one loop once all of a
run's outputs exist, so a run that fails writes nothing.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, astuple, fields
from pathlib import Path

from . import __version__, pipeline, shifts
from .config import (
    CHOICES,
    AnalysisConfig,
    ExperimentConfig,
    analysis_from_dict,
    canonical_json,
    config_hash,
    experiment_from_dict,
    resolve_config,
)
from .errors import ConfigError, ShiftRcError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _read_json(path, what: str):
    """The JSON value in the file ``path``; ``what`` names the file in the
    ConfigError of a file that is missing, cannot be read or is not JSON,
    or of an object that repeats a key (json would keep its last value)."""
    def unique(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"{what} repeats the key {key!r} in one object ({path})")
            obj[key] = value
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique)
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON ({path}, line {exc.lineno}, "
                          f"column {exc.colno}): {exc.msg}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{what} cannot be read ({path}): {exc}") from None


def _validate_threads(args) -> None:
    """Reject a thread count below 1 from ``--threads``, else ``SHIFTRC_THREADS``.

    The count is still accepted, but bounds nothing: shiftrc starts no
    threads of its own (see the README on ``--threads``).
    """
    threads, source = args.threads, "--threads"
    if threads is None:
        env = os.environ.get("SHIFTRC_THREADS")
        if not env:
            return
        try:
            threads, source = int(env), "SHIFTRC_THREADS"
        except ValueError:
            raise ConfigError(f"SHIFTRC_THREADS is not an integer: {env!r}") from None
    if threads < 1:
        raise ConfigError(f"{source} must be >= 1, got {threads}")


def _csv(header, rows) -> str:
    """One line per row under the column names ``header``: numbers with 17
    significant digits, so doubles round-trip exactly; None is an empty
    field."""
    lines = [",".join(header)]
    lines += [",".join("" if v is None else f"{float(v):.17g}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _json(obj, sort_keys: bool = False) -> str:
    return json.dumps(obj, indent=2, sort_keys=sort_keys) + "\n"


def _selection_json(order, r_diag, n_nodes: int) -> str:
    """A ranked selection: its pivot order as [node, shift] labels, its
    width and |R_kk|."""
    return _json({
        "method": "rrqr",  # the sweep records only its ranked selections
        "m_red": len(order),
        "retained": shifts.column_labels(order, n_nodes),
        "r_diag": [float(v) for v in r_diag],
    })


def _r_diag_csv(r_diag) -> str:
    return _csv(("k", "r_kk_abs"), enumerate(r_diag))


def _run_generate(cfg: ExperimentConfig, _subset_mode: str) -> dict[str, str]:
    dt = cfg.data.sample_interval
    outputs = {"series.csv": _csv(("t", "x", "y", "z"), (
        (k * dt, *row) for k, row in enumerate(pipeline.build_series(cfg.data))))}
    dataset = pipeline.build_dataset(cfg.data)
    for name in ("drive_train", "target_train", "drive_test", "target_test"):
        outputs[f"{name}.csv"] = _csv(("n", "value"), enumerate(getattr(dataset, name)))
    return outputs


def _run_sweep(cfg: ExperimentConfig, subset_mode: str) -> dict[str, str]:
    result = pipeline.sweep(cfg, subset_mode=subset_mode)
    outputs = {
        "sweep.csv": _csv([f.name for f in fields(pipeline.SweepRow)],
                          map(astuple, result.rows)),
        "cells.json": _json({"cells": [asdict(c) for c in result.cells]}),
    }
    for mask_id, (order, r_diag) in enumerate(result.pivots):
        prefix = f"diagnostics/mask_{mask_id:04d}"
        outputs[f"{prefix}_selection.json"] = _selection_json(order, r_diag, cfg.n_nodes)
        outputs[f"{prefix}_rdiag.csv"] = _r_diag_csv(r_diag)
    return outputs


def _run_analyze(cfg: AnalysisConfig, _subset_mode: str) -> dict[str, str]:
    rows = pipeline.analysis_sweep(cfg)
    return {"analysis.csv": _csv([f.name for f in fields(pipeline.AnalysisRow)],
                                 map(astuple, rows))}


# Each run command's config builder, its runner (config and subset mode to
# outputs) and its help line; replay re-runs any of them.
COMMANDS = {
    "generate": (experiment_from_dict, _run_generate, "write drive/target CSVs for a task"),
    "sweep": (experiment_from_dict, _run_sweep, "compare selections over the m_red grid"),
    "analyze": (analysis_from_dict, _run_analyze, "entropy/correlation sparseness grid"),
}


def _record(command: str, resolved: dict, subset_mode: str) -> dict:
    """Every manifest field but ``output_paths``, in the order replay checks
    them: the tool first, and config_hash before the fields it determines."""
    return {
        "tool_version": __version__, "tool": "shiftrc",
        "config_hash": config_hash(resolved),
        "master_seed": resolved["master_seed"], "config_echo": resolved,
        "command": command, "subset_mode": subset_mode,
    }


def _replayed(manifest) -> tuple[str, dict, str]:
    """The command, resolved config and subset mode of a manifest that holds
    exactly the record of a run of its resolved ``config_echo``, each field
    equal as canonical JSON (so ``31.0``, ``true`` and ``"31"`` differ from
    ``31``), and ``output_paths``, which ``_dispatch`` checks."""
    if not isinstance(manifest, dict):
        raise ConfigError(f"manifest root must be an object, got {type(manifest).__name__}")
    try:
        resolved = resolve_config(manifest.get("config_echo"))
    except ConfigError as exc:
        raise ConfigError(f"manifest field 'config_echo' does not resolve in shiftrc "
                          f"{__version__}: {exc}") from None
    # the records of every run of this config: the manifest must be one of them
    records = [_record(command, resolved, mode)
               for command in COMMANDS for mode in pipeline.SUBSET_MODES]
    for key in records[0]:
        allowed = sorted({canonical_json(record[key]) for record in records})
        got = canonical_json(manifest[key]) if key in manifest else "missing"
        if got not in allowed:
            raise ConfigError(f"manifest field {key!r} is {got}, expected {' or '.join(allowed)}")
    unknown = sorted(manifest.keys() - records[0].keys() - {"output_paths"})
    if unknown:
        raise ConfigError(f"manifest has unknown field {unknown[0]!r}")
    return manifest["command"], resolved, manifest["subset_mode"]


def _requested(args) -> tuple[str, dict, str, dict | None]:
    """The command, resolved config and subset mode that ``args`` ask to run,
    and a replay's manifest. ``--seed`` and ``--nrmse-mode`` apply before the
    config is validated. An input nested too deeply is a ConfigError."""
    path, what = ((args.manifest, "manifest") if args.command == "replay"
                  else (args.config, "config file"))
    try:
        raw = _read_json(path, what)
        if args.command == "replay":
            return (*_replayed(raw), raw)
        overrides = {key: value for key, value in
                     (("master_seed", args.seed), ("nrmse_mode", args.nrmse_mode))
                     if value is not None}
        resolved = resolve_config({**raw, **overrides} if isinstance(raw, dict) else raw)
        return args.command, resolved, getattr(args, "subset", "both"), None
    except RecursionError:
        raise ConfigError(f"{what} nests too deeply ({path})") from None


def _dispatch(command: str, resolved: dict, subset_mode: str, out_dir: Path,
              replayed: dict | None) -> None:
    # Every output is formatted before the first file is written, so a run
    # that fails, with a config error or at run time, writes nothing. An
    # earlier run's files would stay beside outputs whose manifest does not
    # list them, so --out must be new or an empty directory.
    if out_dir.exists():
        if not out_dir.is_dir():
            raise ConfigError(f"--out {out_dir} is not a directory")
        if any(out_dir.iterdir()):
            raise ConfigError(f"--out {out_dir} is not empty")
    build, run, _ = COMMANDS[command]
    outputs = run(build(resolved), subset_mode)
    paths = list(outputs)  # taken before the manifest is added
    if replayed is not None and replayed.get("output_paths") != paths:
        raise ShiftRcError(f"manifest field 'output_paths' differs from this run's: {paths}")
    outputs["manifest.json"] = _json({**_record(command, resolved, subset_mode),
                                      "output_paths": paths}, sort_keys=True)
    for name, text in outputs.items():
        path = out_dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="ascii")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftrc",
        description="Time-shift selection experiments for small reservoir computers.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the master seed")
        p.add_argument("--nrmse-mode", choices=CHOICES["nrmse_mode"],
                       dest="nrmse_mode", default=None,
                       help="error normalization convention")

    for command, (_, _, help_line) in COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        common(p)
        if command == "sweep":
            p.add_argument("--subset", choices=pipeline.SUBSET_MODES,
                           default="both", help="which selection arms to run")

    p_rep = sub.add_parser("replay", help="re-run a manifest bitwise")
    p_rep.add_argument("--manifest", required=True, help="manifest.json path")
    p_rep.add_argument("--out", required=True, help="output directory")
    for p in sub.choices.values():
        p.add_argument("--threads", type=int, default=None,
                       help="thread count, validated but unused (fallback: SHIFTRC_THREADS)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        command, resolved, subset_mode, replayed = _requested(args)
        _validate_threads(args)
        _dispatch(command, resolved, subset_mode, Path(args.out), replayed)
    except ConfigError as exc:
        print(f"shiftrc: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ShiftRcError, OSError, ValueError) as exc:
        print(f"shiftrc: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
