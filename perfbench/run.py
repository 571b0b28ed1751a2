#!/usr/bin/env python3
"""End-to-end benchmark of the shiftrc CLI.

    python3 perfbench/run.py --workload sweep-lorenz --seed 2301 --seconds 20 --trace 0

Run from the root of a source checkout (the package is taken from ``src``,
not installed). Each workload runs one CLI command at a time, closed loop,
each in a fresh Python process, until ``--seconds`` have passed and at least
two commands have run. The seed is passed to the program as ``--seed``.
After timing, the outputs are checked against computations made apart from
the program (``checks.py``). The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones, taken from one traced command that runs
after one untraced command of the same seed. See README.md.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = HERE / "out"
MIN_COMMANDS = 2
# Commands must end this long after the start, so that a hung or very slow
# program still leaves the run within its 180 s limit.
DEADLINE_S = 150
RK4_ROWS = 16
# Set-up-only processes per untraced run, on top of the set-up each command
# pays; setup_s is the median over all of them.
EXTRA_SETUPS = 1
# BLAS runs on one thread, like the program (--threads 1); on two shared
# cores BLAS threads made run_s slower and noisier.
BLAS_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    name: str
    config: str | dict  # shipped config (relative to the checkout) or inline
    cuts: dict  # per-section overrides: only repetition counts
    command: str  # "sweep" or "analyze"
    subset: str = "both"  # sweep --subset: "both" or "rrqr"

    def argv(self, config: Path, out: Path, seed: int) -> list[str]:
        argv = [self.command, "--config", str(config), "--out", str(out),
                "--seed", str(seed), "--threads", "1"]
        return argv + (["--subset", self.subset] if self.command == "sweep" else [])


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-lorenz", "configs/lorenz_prediction_fig_sweep.json",
                 {"selection": {"n_masks": 1}}, "sweep"),
        Workload("sweep-rossler-ranked", "configs/rossler_prediction_fig_sweep.json",
                 {"selection": {"n_masks": 8}}, "sweep", subset="rrqr"),
        Workload("analyze-tanh", "configs/tanh_sparseness_grid.json",
                 {"analysis": {"f_w_values": [0.5, 1.0], "f_a_values": [0.5]}},
                 "analyze"),
    )
}


def workload_config(w: Workload) -> dict:
    raw = w.config if isinstance(w.config, dict) else json.loads(
        (ROOT / w.config).read_text(encoding="utf-8"))
    raw = copy.deepcopy(raw)
    for section, values in w.cuts.items():
        raw.setdefault(section, {}).update(values)
    return raw


def fits_per_command(w: Workload, resolved: dict) -> int:
    """Readout fits one command scores: ranked, random and baseline cells in
    a sweep; one observer and one prediction fit per trial in analyze."""
    if w.command == "analyze":
        ana = resolved["analysis"]
        return 2 * ana["n_trials"] * len(ana["f_w_values"]) * len(ana["f_a_values"])
    sel = resolved["selection"]
    per_m_red = 1 + sel["n_random_subsets"] if w.subset == "both" else 1
    return sel["n_masks"] * (len(sel["m_red_grid"]) * per_m_red + 1)


def run_command(w: Workload, work: Path, index: int, seed: int, traced: bool,
                timeout: float, setup_only: bool = False) -> dict:
    """One CLI command, or its set-up alone, in a fresh process; returns the
    worker's result."""
    cmd_dir = work / (f"setup_{index}" if setup_only else f"cmd_{index}")
    cmd_dir.mkdir()
    job = {
        "config": str(work / "config.json"),
        "argv": None if setup_only else w.argv(work / "config.json", cmd_dir / "out", seed),
        "out": str(cmd_dir / "out"),
        "trace": traced,
        "result": str(cmd_dir / "result.json"),
        "series": str(cmd_dir / "series.npy"),
        "spans": str(cmd_dir / "spans.json"),
    }
    (cmd_dir / "job.json").write_text(json.dumps(job), encoding="ascii")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_ONE_THREAD)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(cmd_dir / "job.json")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired:  # the child has been killed and reaped
        sys.stderr.write(f"command {index} passed the {DEADLINE_S} s deadline\n")
        return {"exit_code": -1, "dir": cmd_dir}
    result_path = cmd_dir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        sys.stderr.write(proc.stdout)
        return {"exit_code": proc.returncode or 1, "dir": cmd_dir}
    result = json.loads(result_path.read_text())
    result["dir"] = cmd_dir
    return result


def failed_fits(w: Workload, result: dict, expected: int) -> int:
    """Fits of one command that failed: all of them on a non-zero exit or
    missing output, else those with a non-finite score."""
    if result["exit_code"] != 0:
        return expected
    out = result["dir"] / "out"
    try:
        if w.command == "sweep":
            cells = json.loads((out / "cells.json").read_text())["cells"]
            bad = sum(not (math.isfinite(c["nrmse_train"]) and math.isfinite(c["nrmse_test"]))
                      for c in cells)
            return min(expected, bad + max(0, expected - len(cells)))
        import checks

        rows = checks.load_outputs(out)["analysis.csv"]
        per_row = expected // max(1, len(rows))
        return sum(per_row for r in rows
                   if not all(math.isfinite(v) for v in r.values()))
    except (OSError, ValueError, KeyError):
        return expected


def output_checks(w: Workload, resolved: dict, results: list[dict], seed: int):
    """(name, ok, detail) for every check of this workload's outputs."""
    import numpy as np

    import checks

    dirs = [r["dir"] / "out" for r in results]
    out = checks.load_outputs(dirs[0])
    series = np.load(results[0]["dir"] / "series.npy")
    rng = np.random.default_rng(seed)
    rows = sorted(rng.choice(series.shape[0] - 1, size=RK4_ROWS, replace=False))
    system = resolved["task"]["system"]
    mask0 = functools.cache(lambda: checks.MaskProblem(out, series, 0))
    todo = [
        ("identical_outputs", lambda: checks.check_identical(dirs)),
        ("series_rk4", lambda: checks.check_series(series, system, rows)),
    ]
    if w.command == "sweep":
        sel = resolved["selection"]
        nodes, tau = resolved["reservoir"]["nodes"], resolved["shifts"]["tau_max"]
        todo += [
            ("oscillator_heun", lambda: checks.check_oscillator(out, series)),
            ("readout_lstsq", lambda: checks.check_readout(out, mask0(), rng)),
            ("cell_count", lambda: checks.check_cell_count(
                out, fits_per_command(w, resolved))),
            ("aggregates", lambda: checks.check_aggregates(out)),
            ("pivot_files", lambda: checks.check_pivot_files(
                out, sel["n_masks"], nodes, tau)),
            ("pivot_greedy", lambda: checks.check_pivot_greedy(out, mask0())),
        ]
        if w.subset == "both":
            todo.append(("full_width", lambda: checks.check_full_width(
                out, nodes * (tau + 1))))
    else:
        ana = resolved["analysis"]
        i_fw = int(rng.integers(len(ana["f_w_values"])))
        i_fa = int(rng.integers(len(ana["f_a_values"])))
        echo = out["manifest"]["config_echo"]
        todo += [
            ("analysis_grid", lambda: checks.check_analysis_grid(out)),
            ("tanh_map", lambda: checks.check_tanh_map(echo, series, i_fw, i_fa)),
            ("analysis_row", lambda: checks.check_analysis_row(
                out, checks.analysis_row(echo, series, i_fw, i_fa), i_fw, i_fa)),
        ]
    for name, fn in todo:
        try:
            ok, detail = fn()
        except Exception as exc:  # a check that cannot run is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        yield name, bool(ok), detail


def layer_metrics(result: dict) -> tuple[dict, dict]:
    """Per-layer values of one traced command, plus the full summary."""
    payload = json.loads((result["dir"] / "spans.json").read_text())
    summary = tracing.summarize(payload["spans"])
    values = {"import.self_s": summary["import"]["self_s"],
              "cli.output_mib": result["output_mib"]}
    for module_name, fn_name in tracing.LAYERS:
        name = f"{module_name}.{fn_name}"
        row = summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key in ("calls", "total_s", "self_s"):
            values[f"{name}.{key}"] = row[key]
    for prefix, name, parent in tracing.NESTED:
        row = summary.get(f"{name}<{parent}", {"calls": 0, "total_s": 0.0})
        values[f"{prefix}.calls"] = row["calls"]
        values[f"{prefix}.total_s"] = row["total_s"]
    for (layer, key), _ in tracing.COUNTERS.items():
        values[f"{layer}.{key}"] = payload["counters"].get(f"{layer}.{key}", 0.0)
    return values, summary


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, spec: dict,
                 log=print) -> dict:
    """Run, check and measure one workload; returns the result object."""
    from shiftrc.config import resolve_config

    work = WORK / w.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    raw = workload_config(w)
    (work / "config.json").write_text(json.dumps(raw, indent=2), encoding="ascii")
    resolved = resolve_config(raw)
    resolved["master_seed"] = seed
    fits = fits_per_command(w, resolved)

    results, setups = [], []
    start = time.perf_counter()
    left = lambda: DEADLINE_S - (time.perf_counter() - start)
    if trace:
        results = [run_command(w, work, 0, seed, False, left()),
                   run_command(w, work, 1, seed, True, left())]
    else:
        setups = [run_command(w, work, i, seed, False, left(), setup_only=True)
                  for i in range(EXTRA_SETUPS)]
        while len(results) < MIN_COMMANDS or time.perf_counter() - start < seconds:
            results.append(run_command(w, work, len(results), seed, False, left()))
            if results[-1]["exit_code"] != 0:
                break

    attempted = fits * len(results)
    failed = sum(failed_fits(w, r, fits) for r in results)
    ran = all(r["exit_code"] == 0 for r in results + setups)
    if ran:
        for name, ok, detail in output_checks(w, resolved, results, seed):
            attempted += 1
            failed += not ok
            log(f"check {name:18s} {'ok' if ok else 'FAILED'}  {detail}")
    else:
        log("a command exited non-zero; outputs were not checked")

    metrics = {}
    if ran and trace:
        values, summary = layer_metrics(results[1])
        overhead = results[1]["run_s"] - results[0]["run_s"]
        main = summary["cli.main"]
        report = {
            "workload": w.name, "seed": seed,
            "untraced_run_s": results[0]["run_s"], "traced_run_s": results[1]["run_s"],
            "overhead_s": overhead,
            "cli_main_covered": main["covered_s"] / main["total_s"],
            "layers": summary, "values": values,
        }
        (work / "trace_report.json").write_text(json.dumps(report, indent=2))
        log(f"{'layer':48s} {'calls':>7s} {'total_s':>9s} {'self_s':>9s}")
        rows = sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])
        for name, row in [(n, r) for n, r in rows if "<" not in n]:
            log(f"{name:48s} {row['calls']:7d} {row['total_s']:9.4f} {row['self_s']:9.4f}")
        for prefix, _, _ in tracing.NESTED:
            log(f"{prefix:48s} {values[prefix + '.calls']:7d} "
                f"{values[prefix + '.total_s']:9.4f}")
        log(f"tracing overhead {overhead:+.4f} s on run_s {results[0]['run_s']:.4f} s; "
            f"layers cover {100 * report['cli_main_covered']:.2f}% of cli.main")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    elif ran:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in results + setups),
            "run_s": statistics.median(r["run_s"] for r in results),
            "fits_per_s": statistics.median(fits / r["run_s"] for r in results),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in results),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        log(f"{len(results)} commands of {fits} fits each, {len(setups)} extra set-ups")
        for m in spec["end_to_end"]:
            log(f"{m['name']:14s} {values[m['name']]:12.4f} {m['unit']}")
    return {"correct": ran and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2301)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "shiftrc" / "cli.py",
              ROOT / WORKLOADS[args.workload].config]
    missing = [str(p) for p in needed if not p.exists()]
    if missing:
        print(f"run.py: not a shiftrc checkout, missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    log = lambda line: print(line, flush=True)
    result = run_workload(WORKLOADS[args.workload], args.seed, seconds,
                          bool(args.trace), spec, log)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
