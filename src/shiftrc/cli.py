"""Command-line front end.

Subcommands: ``generate`` (task data CSVs), ``sweep`` (selection-method
comparison over an m_red grid), ``analyze`` (sparseness grid diagnostics)
and ``replay`` (re-run a manifest bitwise). Every run writes a manifest that
fully determines its outputs.

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

from . import __version__, dynamics, pipeline
from .config import (
    analysis_from_dict,
    config_hash,
    experiment_from_dict,
    resolve_config,
)
from .errors import ConfigError, ShiftRcError
from .linalg import save_r_diag_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _f17(x: float) -> str:
    return f"{float(x):.17g}"


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config is not valid JSON ({path}, line {exc.lineno}, "
            f"column {exc.colno}): {exc.msg}"
        ) from None
    return resolve_config(raw)


def _apply_overrides(resolved: dict, args) -> dict:
    if getattr(args, "seed", None) is not None:
        resolved["master_seed"] = args.seed
    if getattr(args, "nrmse_mode", None) is not None:
        resolved["nrmse_mode"] = args.nrmse_mode
    return resolved


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


def _write_manifest(out_dir: Path, command: str, resolved: dict,
                    output_paths: list[str], wall_time: float,
                    subset_mode: str) -> None:
    manifest = {
        "tool": "shiftrc",
        "tool_version": __version__,
        "command": command,
        "subset_mode": subset_mode,
        "master_seed": resolved["master_seed"],
        "config_hash": config_hash(resolved),
        "config_echo": resolved,
        "output_paths": output_paths,
        "wall_time_seconds": wall_time,
    }
    with open(out_dir / "manifest.json", "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_column_csv(path: Path, values) -> None:
    lines = ["n,value"]
    lines += [f"{n},{_f17(v)}" for n, v in enumerate(values)]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _write_rows_csv(path: Path, row_type, rows) -> None:
    """One line per row, headed by the field names; None is an empty field."""
    lines = [",".join(f.name for f in fields(row_type))]
    lines += [",".join("" if v is None else _f17(v) for v in astuple(row)) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _run_generate(resolved: dict, out_dir: Path) -> list[str]:
    cfg = experiment_from_dict(resolved)
    series = pipeline.build_series(cfg.data)
    dataset = pipeline.build_dataset(cfg.data)
    dynamics.save_series_csv(out_dir / "series.csv", series,
                             cfg.data.sample_interval)
    names = ("drive_train", "target_train", "drive_test", "target_test")
    for name in names:
        _write_column_csv(out_dir / f"{name}.csv", getattr(dataset, name))
    return ["series.csv"] + [f"{name}.csv" for name in names]


def _run_sweep(resolved: dict, out_dir: Path, subset_mode: str) -> list[str]:
    cfg = experiment_from_dict(resolved)
    result = pipeline.sweep(cfg, subset_mode=subset_mode)
    _write_rows_csv(out_dir / "sweep.csv", pipeline.SweepRow, result.rows)
    with open(out_dir / "cells.json", "w", encoding="ascii") as fh:
        json.dump({"cells": [asdict(c) for c in result.cells]}, fh, indent=2)
        fh.write("\n")
    paths = ["sweep.csv", "cells.json"]
    if result.pivots:
        diag = out_dir / "diagnostics"
        diag.mkdir(exist_ok=True)
        for mask_id, pivot in enumerate(result.pivots):
            sel_path = diag / f"mask_{mask_id:04d}_selection.json"
            pivot.save_json(sel_path)
            rdiag_path = diag / f"mask_{mask_id:04d}_rdiag.csv"
            save_r_diag_csv(rdiag_path, pivot.r_diag)
            paths += [str(sel_path.relative_to(out_dir)),
                      str(rdiag_path.relative_to(out_dir))]
    return paths


def _run_analyze(resolved: dict, out_dir: Path) -> list[str]:
    rows = pipeline.analysis_sweep(analysis_from_dict(resolved))
    _write_rows_csv(out_dir / "analysis.csv", pipeline.AnalysisRow, rows)
    return ["analysis.csv"]


def _dispatch(command: str, resolved: dict, out_dir: Path, subset_mode: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    if command == "generate":
        paths = _run_generate(resolved, out_dir)
    elif command == "sweep":
        paths = _run_sweep(resolved, out_dir, subset_mode)
    elif command == "analyze":
        paths = _run_analyze(resolved, out_dir)
    else:
        raise ConfigError(f"manifest names unknown command {command!r}")
    _write_manifest(out_dir, command, resolved, paths,
                    time.monotonic() - start, subset_mode)


def _cmd_run(args, command: str) -> int:
    resolved = _apply_overrides(_load_config(args.config), args)
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
    _validate_threads(args)
    _dispatch(manifest["command"], resolved, Path(args.out),
              manifest.get("subset_mode", "both"))
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
