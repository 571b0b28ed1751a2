"""Command-line front end.

Subcommands: ``generate`` (task data CSVs), ``sweep`` (selection-method
comparison over an m_red grid), ``analyze`` (sparseness grid diagnostics)
and ``replay`` (re-run a manifest bitwise). Every run writes a manifest that
fully determines its outputs. Every output file is written here, through
one CSV writer and one JSON writer.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, astuple, fields
from pathlib import Path

from . import __version__, pipeline
from .config import (
    AnalysisConfig,
    ExperimentConfig,
    analysis_from_dict,
    config_hash,
    experiment_from_dict,
    resolve_config,
)
from .errors import ConfigError, ShiftRcError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _load_config(args) -> dict:
    """Read ``--config``, apply ``--seed`` and ``--nrmse-mode``, then
    validate, so that a bad override fails before anything runs."""
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {args.config}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config is not valid JSON ({args.config}, line {exc.lineno}, "
            f"column {exc.colno}): {exc.msg}"
        ) from None
    overrides = {key: value for key, value in
                 (("master_seed", args.seed), ("nrmse_mode", args.nrmse_mode))
                 if value is not None}
    return resolve_config({**raw, **overrides} if isinstance(raw, dict) else raw)


def _validate_threads(args) -> None:
    """Reject a thread count below 1 from ``--threads``, else ``SHIFTRC_THREADS``.

    The count is still accepted, but bounds nothing: shiftrc starts no
    threads of its own (see the README on ``--threads``).
    """
    threads, source = getattr(args, "threads", None), "--threads"
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


def _write_csv(path: Path, header, rows) -> None:
    """One line per row under the column names ``header``: numbers with 17
    significant digits, so doubles round-trip exactly; None is an empty
    field."""
    lines = [",".join(header)]
    lines += [",".join("" if v is None else f"{float(v):.17g}" for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _write_json(path: Path, obj, sort_keys: bool = False) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=sort_keys) + "\n",
                    encoding="ascii")


def _write_selection(path: Path, sel) -> None:
    """A ranked selection: its pivot order, width and |R_kk|."""
    _write_json(path, {
        "method": "rrqr",  # the sweep records only its ranked selections
        "m_red": len(sel.retained),
        "retained": [[n, s] for n, s in sel.retained],
        "r_diag": [float(v) for v in sel.r_diag],
    })


def _write_r_diag(path: Path, r_diag) -> None:
    _write_csv(path, ("k", "r_kk_abs"), enumerate(r_diag))


def _write_manifest(out_dir: Path, command: str, resolved: dict,
                    output_paths: list[str], wall_time: float,
                    subset_mode: str) -> None:
    _write_json(out_dir / "manifest.json", {
        "tool": "shiftrc",
        "tool_version": __version__,
        "command": command,
        "subset_mode": subset_mode,
        "master_seed": resolved["master_seed"],
        "config_hash": config_hash(resolved),
        "config_echo": resolved,
        "output_paths": output_paths,
        "wall_time_seconds": wall_time,
    }, sort_keys=True)


def _run_generate(cfg: ExperimentConfig, out_dir: Path) -> list[str]:
    dt = cfg.data.sample_interval
    _write_csv(out_dir / "series.csv", ("t", "x", "y", "z"),
               ((k * dt, *row) for k, row in enumerate(pipeline.build_series(cfg.data))))
    dataset = pipeline.build_dataset(cfg.data)
    names = ("drive_train", "target_train", "drive_test", "target_test")
    for name in names:
        _write_csv(out_dir / f"{name}.csv", ("n", "value"), enumerate(getattr(dataset, name)))
    return ["series.csv"] + [f"{name}.csv" for name in names]


def _run_sweep(cfg: ExperimentConfig, out_dir: Path, subset_mode: str) -> list[str]:
    result = pipeline.sweep(cfg, subset_mode=subset_mode)
    _write_csv(out_dir / "sweep.csv", [f.name for f in fields(pipeline.SweepRow)],
               map(astuple, result.rows))
    _write_json(out_dir / "cells.json", {"cells": [asdict(c) for c in result.cells]})
    paths = ["sweep.csv", "cells.json"]
    if result.pivots:
        (out_dir / "diagnostics").mkdir(exist_ok=True)
    for mask_id, pivot in enumerate(result.pivots):
        sel_path = f"diagnostics/mask_{mask_id:04d}_selection.json"
        _write_selection(out_dir / sel_path, pivot)
        rdiag_path = f"diagnostics/mask_{mask_id:04d}_rdiag.csv"
        _write_r_diag(out_dir / rdiag_path, pivot.r_diag)
        paths += [sel_path, rdiag_path]
    return paths


def _run_analyze(cfg: AnalysisConfig, out_dir: Path) -> list[str]:
    rows = pipeline.analysis_sweep(cfg)
    _write_csv(out_dir / "analysis.csv", [f.name for f in fields(pipeline.AnalysisRow)],
               map(astuple, rows))
    return ["analysis.csv"]


def _dispatch(command: str, resolved: dict, out_dir: Path, subset_mode: str) -> None:
    # The config objects are built first, so a config error leaves no
    # output directory behind.
    cfg = (analysis_from_dict if command == "analyze" else experiment_from_dict)(resolved)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    if command == "generate":
        paths = _run_generate(cfg, out_dir)
    elif command == "sweep":
        paths = _run_sweep(cfg, out_dir, subset_mode)
    else:
        paths = _run_analyze(cfg, out_dir)
    _write_manifest(out_dir, command, resolved, paths,
                    time.monotonic() - start, subset_mode)


def _cmd_run(args, command: str) -> int:
    resolved = _load_config(args)
    _validate_threads(args)
    _dispatch(command, resolved, Path(args.out), getattr(args, "subset", "both"))
    return EXIT_OK


def _cmd_replay(args) -> int:
    try:
        with open(args.manifest, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"manifest not found: {args.manifest}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"manifest is not valid JSON (line {exc.lineno}): {exc.msg}"
        ) from None
    if not isinstance(manifest, dict):
        raise ConfigError(f"manifest root must be an object, got {type(manifest).__name__}")
    for key in ("command", "config_echo", "config_hash", "tool_version"):
        if key not in manifest:
            raise ConfigError(f"manifest is missing required field '{key}'")
    if manifest["tool_version"] != __version__:
        raise ConfigError(
            f"manifest tool_version {manifest['tool_version']!r} differs from "
            f"this shiftrc {__version__!r}; its outputs need not replay bitwise"
        )
    resolved = resolve_config(manifest["config_echo"])
    if config_hash(resolved) != manifest["config_hash"]:
        raise ConfigError(
            "manifest config_echo does not match its config_hash "
            f"{manifest['config_hash']!r}; the echo or the hash was edited"
        )
    if manifest["command"] not in ("generate", "sweep", "analyze"):
        raise ConfigError(f"manifest names unknown command {manifest['command']!r}")
    subset_mode = manifest.get("subset_mode", "both")
    if subset_mode not in ("both", "rrqr", "random"):
        raise ConfigError(
            f"manifest field 'subset_mode' must be both|rrqr|random, got {subset_mode!r}"
        )
    _validate_threads(args)
    _dispatch(manifest["command"], resolved, Path(args.out), subset_mode)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftrc",
        description="Time-shift selection experiments for small reservoir computers.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the master seed")
        p.add_argument("--threads", type=int, default=None,
                       help="thread count, validated but unused (fallback: SHIFTRC_THREADS)")
        p.add_argument("--nrmse-mode", choices=["global", "paper-literal"],
                       dest="nrmse_mode", default=None,
                       help="error normalization convention")

    p_gen = sub.add_parser("generate", help="write drive/target CSVs for a task")
    common(p_gen)

    p_sweep = sub.add_parser("sweep", help="compare selections over the m_red grid")
    common(p_sweep)
    p_sweep.add_argument("--subset", choices=["rrqr", "random", "both"],
                         default="both", help="which selection arms to run")

    p_ana = sub.add_parser("analyze", help="entropy/correlation sparseness grid")
    common(p_ana)

    p_rep = sub.add_parser("replay", help="re-run a manifest bitwise")
    p_rep.add_argument("--manifest", required=True, help="manifest.json path")
    p_rep.add_argument("--out", required=True, help="output directory")
    p_rep.add_argument("--threads", type=int, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "replay":
            return _cmd_replay(args)
        return _cmd_run(args, args.command)
    except ConfigError as exc:
        print(f"shiftrc: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ShiftRcError, OSError, ValueError) as exc:
        print(f"shiftrc: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
