"""Checks of shiftrc outputs against computations made apart from the program.

Each check returns ``(ok, detail)``. None of them reuses the program's
integrator, shifted-matrix build, pivoted QR, ridge solver, scoring or
entropy code. Where a check needs reservoir states it calls the public
reservoir functions, whose output is itself checked against a plain
per-step integration: Heun for the delay oscillator, the leaky-tanh update
for the tanh map. Sub-seeds are re-derived from the
documented rule (first 8 little-endian bytes of
``sha256("{master}:{role}:{i0}:...")``); constants are the documented
Lorenz and Rossler coefficients and time scales.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import lstsq

# Coefficients and time scale of each source, from the package README.
SYSTEMS = {
    "lorenz": ((10.0, 28.0, 8.0 / 3.0), 10.0),
    "rossler": ((0.2, 0.2, 5.7), 0.65),
}
# RK4 at dt = 0.01 against DOP853 over one sample interval. Measured
# agreement: 5e-10 (Lorenz) and 2e-6 (Rossler) relative.
RK4_RTOL = {"lorenz": 1e-8, "rossler": 2e-5}
# Ridge re-solve with gelsd against the program's pivoted-QR solve.
# Measured agreement: 1.1e-12 relative; a change in the 8th digit is 1e-7.
NRMSE_RTOL = 1e-9
# Summation-order differences only (means, entropies, correlations).
SUM_RTOL = 1e-12
# Per-step Heun against the regrouped IIR update (measured: 1.9e-15).
OSCILLATOR_RTOL = 1e-12
OSCILLATOR_PREFIX = 300
# Scalar leaky-tanh loop against the program's matrix-vector update: the
# map contracts, so the sums' rounding differences do not grow.
TANH_RTOL = 1e-12
TANH_PREFIX = 300
# Largest eigenvalue modulus of the adjacency against the configured radius.
RADIUS_RTOL = 1e-9
# Pivot spectrum against an unpivoted QR of the reordered matrix, relative
# to |R_00|. The program picks pivots from downdated norms, which it
# recomputes once they fall below 1e-6 of a fresh norm, so a downdated norm
# is off by at most about eps / 1e-6 = 2e-10 of |R_00|.
PIVOT_RTOL = 1e-9


def derive_seed(master: int, role: str, *indices: int) -> int:
    key = ":".join([str(int(master)), role, *(str(int(i)) for i in indices)])
    return int.from_bytes(hashlib.sha256(key.encode("ascii")).digest()[:8], "little")


def _rel(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


# ---------------------------------------------------------------- inputs

def load_outputs(out_dir) -> dict:
    """Parse the files a sweep or analyze command wrote."""
    out_dir = Path(out_dir)
    out = {"manifest": json.loads((out_dir / "manifest.json").read_text())}
    for name in ("sweep.csv", "analysis.csv"):
        path = out_dir / name
        if path.exists():
            with open(path, newline="") as fh:
                out[name] = [
                    {k: (float(v) if v != "" else None) for k, v in row.items()}
                    for row in csv.DictReader(fh)
                ]
    if (out_dir / "cells.json").exists():
        out["cells"] = json.loads((out_dir / "cells.json").read_text())["cells"]
    diag = out_dir / "diagnostics"
    out["selections"] = [json.loads(p.read_text())
                         for p in sorted(diag.glob("mask_*_selection.json"))]
    out["rdiags"] = [np.loadtxt(p, delimiter=",", skiprows=1)[:, 1].reshape(-1)
                     for p in sorted(diag.glob("mask_*_rdiag.csv"))]
    return out


def task_arrays(series: np.ndarray, echo: dict, kind: str):
    """Drive over both splits and the train/test targets of one task."""
    data = echo["data"]
    t_train, t_test = data["train_steps"], data["test_steps"]
    x, z = series[:, 0], series[:, 2]
    drive = x[: t_train + t_test].copy()
    if data["standardize_drive"]:
        drive = (drive - np.mean(x[:t_train])) / np.std(x[:t_train])
    target = x[1 : t_train + t_test + 1] if kind == "prediction" else z[: t_train + t_test]
    return drive, target[:t_train], target[t_train:]


def shifted(states: np.ndarray, tau: int) -> np.ndarray:
    """Columns (node j, shift s) at index s*m + j; row t holds row t+tau-s."""
    t_out = states.shape[0] - tau
    return np.hstack([states[tau - s : tau - s + t_out] for s in range(tau + 1)])


def ridge_lstsq(x: np.ndarray, g: np.ndarray, lam: float) -> np.ndarray:
    """Ridge weights from gelsd on the stacked system [X; sqrt(lam) I]."""
    k = x.shape[1]
    a = np.vstack([x, math.sqrt(lam) * np.eye(k)])
    b = np.concatenate([g, np.zeros(k)])
    return lstsq(a, b, lapack_driver="gelsd")[0]


def nrmse(g: np.ndarray, h: np.ndarray) -> float:
    return math.sqrt(float(np.sum((g - h) ** 2)) / float(np.sum(g * g)))


def oeo_states(echo: dict, mask_id: int, drive: np.ndarray, washout: int):
    """States of one sweep mask from the public delay-oscillator functions."""
    from shiftrc.reservoir import make_oeo_config, run_oeo_reservoir

    res = echo["reservoir"]
    trial_seed = derive_seed(echo["master_seed"], "trial", mask_id)
    cfg = make_oeo_config(
        m=res["nodes"], theta=res["theta"], beta=res["beta"], phi=res["phi"],
        rho=res["rho"], f_w=res["f_w"], sample_offset=res.get("sample_offset"),
        mask_seed=derive_seed(trial_seed, "mask"),
    )
    return cfg, run_oeo_reservoir(cfg, drive, washout).values


# ---------------------------------------------------------------- source

def check_series(series: np.ndarray, system: str, rows) -> tuple[bool, str]:
    """Sampled rows re-integrated over one unit sample interval land on the
    next row within RK4 truncation error."""
    (p1, p2, p3), scale = SYSTEMS[system]
    if system == "lorenz":
        def rhs(_t, s):
            x, y, z = s
            return [p1 * (y - x) / scale, (x * (p2 - z) - y) / scale,
                    (x * y - p3 * z) / scale]
    else:
        def rhs(_t, s):
            x, y, z = s
            return [(-y - z) / scale, (x + p1 * y) / scale,
                    (p2 + z * (x - p3)) / scale]
    worst = 0.0
    for r in rows:
        sol = solve_ivp(rhs, (0.0, 1.0), series[r], method="DOP853",
                        rtol=1e-13, atol=1e-12)
        err = np.linalg.norm(sol.y[:, -1] - series[r + 1]) / np.linalg.norm(series[r + 1])
        worst = max(worst, float(err))
    return worst <= RK4_RTOL[system], f"{len(rows)} rows, max rel err {worst:.2e}"


# ------------------------------------------------------------ oscillator

def heun_oscillator(mask, theta, beta, phi, rho, drive, sample_offset=None):
    """Per-step Heun integration of
    tau_L v' = -v + beta sin^2(v(t - tau_d) + phi + rho M(t) s(t)),
    tau_L = 4 theta, tau_d = m theta, zero history, unit step, one mask
    period per input sample; node j of input n is read at
    n tau_d + j theta + offset."""
    m = len(mask)
    tau_d, tau_l = m * theta, 4.0 * theta
    n_in = len(drive)
    total = n_in * tau_d
    v = [0.0] * (tau_d + total + 1)  # v[tau_d + t] = v(t)

    def forcing(t):
        n, k = divmod(t, tau_d)
        s = drive[min(n, n_in - 1)]
        return beta * math.sin(v[t] + phi + rho * mask[k // theta] * s) ** 2

    f_now = forcing(0)
    for t in range(total):
        f_next = forcing(t + 1)
        vt = v[tau_d + t]
        k1 = (-vt + f_now) / tau_l
        k2 = (-(vt + k1) + f_next) / tau_l
        v[tau_d + t + 1] = vt + 0.5 * (k1 + k2)
        f_now = f_next
    offset = theta if sample_offset is None else sample_offset
    idx = (np.arange(n_in)[:, None] * tau_d + np.arange(m)[None, :] * theta + offset)
    return np.asarray(v)[tau_d + idx]


def compare_states(program: np.ndarray, reference: np.ndarray,
                   rtol: float) -> tuple[bool, str]:
    """Largest state difference relative to the largest reference state."""
    err = float(np.max(np.abs(program - reference)) / np.max(np.abs(reference)))
    return (program.shape == reference.shape and err <= rtol,
            f"{reference.shape[0]} input steps, max rel err {err:.2e}")


def check_oscillator(out: dict, series: np.ndarray) -> tuple[bool, str]:
    """Mask 0 on a drive prefix: run_oeo_reservoir against per-step Heun."""
    echo = out["manifest"]["config_echo"]
    drive, _, _ = task_arrays(series, echo, echo["task"]["kind"])
    prefix = drive[:OSCILLATOR_PREFIX]
    cfg, states = oeo_states(echo, 0, prefix, 0)
    ref = heun_oscillator(cfg.mask.tolist(), cfg.theta, cfg.beta, cfg.phi,
                          cfg.rho, prefix.tolist(), cfg.sample_offset)
    return compare_states(states, ref, OSCILLATOR_RTOL)


# --------------------------------------------------------------- readout

class MaskProblem:
    """Shifted train/test matrices and targets of one sweep mask, built here."""

    def __init__(self, out: dict, series: np.ndarray, mask_id: int):
        echo = out["manifest"]["config_echo"]
        if echo["nrmse_mode"] != "global":
            raise ValueError("checks implement the global NRMSE only")
        washout, tau = echo["washout"], echo["shifts"]["tau_max"]
        drive, g_train, g_test = task_arrays(series, echo, echo["task"]["kind"])
        _, states = oeo_states(echo, mask_id, drive, washout)
        n_train = echo["data"]["train_steps"] - washout
        self.x_train = shifted(states[:n_train], tau)
        self.x_test = shifted(states[n_train:], tau)
        self.g_train = g_train[washout + tau :]
        self.g_test = g_test[tau:]
        self.m = echo["reservoir"]["nodes"]
        self.lam = echo["readout"]["ridge_lambda"]
        self.bias = echo["readout"]["include_bias"]

    def column(self, pair) -> int:
        node, shift = pair
        return shift * self.m + node

    def score(self, cols) -> tuple[float, float]:
        xtr, xte = self.x_train[:, cols], self.x_test[:, cols]
        if self.bias:
            xtr = np.column_stack([xtr, np.ones(len(xtr))])
            xte = np.column_stack([xte, np.ones(len(xte))])
        w = ridge_lstsq(xtr, self.g_train, self.lam)
        return nrmse(self.g_train, xtr @ w), nrmse(self.g_test, xte @ w)


def check_readout(out: dict, problem: MaskProblem, rng: np.random.Generator,
                  mask_id: int = 0) -> tuple[bool, str]:
    """Ranked, baseline and one random cell per m_red of one mask, re-solved
    with gelsd; train and test NRMSE must match cells.json."""
    echo = out["manifest"]["config_echo"]
    n_cols = problem.x_train.shape[1]
    cells = [c for c in out["cells"] if c["mask_id"] == mask_id]
    order = [problem.column(p) for p in out["selections"][mask_id]["retained"]]
    picked = [c for c in cells if c["method"] in ("rrqr", "baseline")]
    random_cells = [c for c in cells if c["method"] == "random"]
    for m_red in sorted({c["m_red"] for c in random_cells}):
        group = [c for c in random_cells if c["m_red"] == m_red]
        picked.append(group[int(rng.integers(len(group)))])
    worst = 0.0
    for cell in picked:
        if cell["method"] == "baseline":
            cols = list(range(problem.m))
        elif cell["method"] == "rrqr":
            cols = order[: cell["m_red"]]
        else:
            n_sub = echo["selection"]["n_random_subsets"]
            seeds = [derive_seed(echo["master_seed"], "subset", mask_id, i, cell["m_red"])
                     for i in range(n_sub)]
            if cell["subset_seed"] not in seeds:
                return False, f"subset seed {cell['subset_seed']} not derived from the master"
            cols = list(np.random.default_rng(cell["subset_seed"]).choice(
                n_cols, size=cell["m_red"], replace=False))
        train, test = problem.score(cols)
        worst = max(worst, _rel(cell["nrmse_train"], train), _rel(cell["nrmse_test"], test))
    return worst <= NRMSE_RTOL, f"{len(picked)} cells, max rel err {worst:.2e}"


def check_pivot_greedy(out: dict, problem: MaskProblem, mask_id: int = 0) -> tuple[bool, str]:
    """The saved pivot order is greedy on the training matrix: an unpivoted
    QR of the reordered columns reproduces |R_kk|, and no later column has a
    larger residual norm at step k."""
    order = [problem.column(p) for p in out["selections"][mask_id]["retained"]]
    r = np.linalg.qr(problem.x_train[:, order], mode="r")
    r_diag = np.asarray(out["selections"][mask_id]["r_diag"])
    scale = abs(r[0, 0])
    spectrum = float(np.max(np.abs(np.abs(np.diag(r)) - r_diag))) / scale
    excess = max(
        (float(np.max(np.linalg.norm(r[k:, k + 1 :], axis=0))) - abs(r[k, k]))
        for k in range(r.shape[1] - 1)
    ) / scale
    ok = spectrum <= PIVOT_RTOL and excess <= PIVOT_RTOL
    return ok, f"|R_kk| rel err {spectrum:.2e}, greedy excess {excess:.2e}"


# ------------------------------------------------------ method properties

def check_pivot_files(out: dict, n_masks: int, nodes: int, tau: int) -> tuple[bool, str]:
    """Every mask's pivot order is a permutation of all (node, shift) pairs
    and its |R_kk| spectrum is non-increasing and matches the CSV copy."""
    pairs = sorted([n, s] for s in range(tau + 1) for n in range(nodes))
    if len(out["selections"]) != n_masks or len(out["rdiags"]) != n_masks:
        return False, f"{len(out['selections'])} selections for {n_masks} masks"
    for i, (sel, rdiag) in enumerate(zip(out["selections"], out["rdiags"])):
        if sorted(sel["retained"]) != pairs:
            return False, f"mask {i}: pivot order is not a permutation"
        if np.any(np.diff(rdiag) > 0.0):
            return False, f"mask {i}: r_kk increases"
        if not np.array_equal(rdiag, np.asarray(sel["r_diag"])):
            return False, f"mask {i}: rdiag CSV differs from the selection"
    return True, f"{n_masks} masks x {len(pairs)} pairs"


def check_cell_count(out: dict, expected: int) -> tuple[bool, str]:
    n = len(out["cells"])
    return n == expected, f"{n} cells, expected {expected}"


def check_aggregates(out: dict) -> tuple[bool, str]:
    """Each sweep.csv row equals the means and stds recomputed from
    cells.json, and percent_improvement equals 100 (rand - rrqr) / rand of
    the row's own means."""
    cells = out["cells"]
    base = [c["nrmse_test"] for c in cells if c["method"] == "baseline"]
    worst = 0.0
    for row in out["sweep.csv"]:
        m_red = int(row["m_red"])
        for method, tag in (("rrqr", "rrqr"), ("random", "rand")):
            vals = [c["nrmse_test"] for c in cells
                    if c["method"] == method and c["m_red"] == m_red]
            if not vals:
                if row[f"nrmse_{tag}_mean"] is not None:
                    return False, f"m_red {m_red}: {tag} mean without cells"
                continue
            worst = max(worst, _rel(row[f"nrmse_{tag}_mean"], np.mean(vals)),
                        _rel(row[f"nrmse_{tag}_std"], np.std(vals)))
        worst = max(worst, _rel(row["nrmse_baseline_mean"], np.mean(base)))
        if row["percent_improvement"] is not None:
            rand, rrqr = row["nrmse_rand_mean"], row["nrmse_rrqr_mean"]
            expected = 100.0 * (rand - rrqr) / rand
            worst = max(worst, abs(row["percent_improvement"] - expected) / max(1.0, abs(expected)))
    return worst <= SUM_RTOL, f"{len(out['sweep.csv'])} rows, max rel err {worst:.2e}"


def check_full_width(out: dict, n_cols: int) -> tuple[bool, str]:
    """At full width both arms keep every column, so their means agree."""
    row = next(r for r in out["sweep.csv"] if int(r["m_red"]) == n_cols)
    err = _rel(row["nrmse_rrqr_mean"], row["nrmse_rand_mean"])
    return err <= 1e-8, f"m_red {n_cols}: rel diff {err:.2e}"


# --------------------------------------------------------------- analyze

def joint_ordinal_entropy(values: np.ndarray, window: int) -> float:
    """Entropy (bits) of the joint pattern of all nodes' window orderings,
    counted with a Counter over the stable argsort of every window."""
    win = np.lib.stride_tricks.sliding_window_view(values, window, axis=0)
    patterns = np.argsort(win, axis=2, kind="stable").astype(np.uint8)
    keys = patterns.reshape(patterns.shape[0], -1)
    counts = np.array(list(Counter(row.tobytes() for row in keys).values()), dtype=float)
    p = counts / counts.sum()
    return float(-np.sum(p * np.log2(p)))


def tanh_config(echo: dict, i_fw: int, i_fa: int, trial: int):
    """Reservoir of one analysis trial, from the seed rule and the public
    ``make_tanh_config``."""
    from shiftrc.reservoir import make_tanh_config

    res, ana, master = echo["reservoir"], echo["analysis"], echo["master_seed"]
    return make_tanh_config(
        m=res["nodes"], alpha=res["alpha"], f_a=ana["f_a_values"][i_fa],
        f_w=ana["f_w_values"][i_fw], spectral_radius=res["spectral_radius"],
        adjacency_seed=derive_seed(master, "adjacency", i_fw, i_fa, trial),
        input_seed=derive_seed(master, "input-weights", i_fw, i_fa, trial),
    )


def tanh_reference(a, w_in, alpha: float, drive) -> np.ndarray:
    """Per-step scalar loop of chi <- (1 - alpha) chi + alpha tanh(A chi +
    w_in s + 1) from chi = 0, one row per input step."""
    a, w_in = np.asarray(a).tolist(), np.asarray(w_in).tolist()
    m = len(w_in)
    chi = [0.0] * m
    rows = []
    for s in drive:
        chi = [(1.0 - alpha) * chi[i] + alpha * math.tanh(
                   math.fsum(a[i][j] * chi[j] for j in range(m)) + w_in[i] * s + 1.0)
               for i in range(m)]
        rows.append(chi)
    return np.array(rows)


def spectral_radius_error(a: np.ndarray, radius: float) -> float:
    return abs(float(np.max(np.abs(np.linalg.eigvals(a)))) - radius) / radius


def check_tanh_map(echo: dict, series: np.ndarray, i_fw: int, i_fa: int) -> tuple[bool, str]:
    """Trial 0 of one grid cell on a drive prefix: run_tanh_reservoir against
    the scalar loop, and the adjacency's spectral radius against the
    configured one."""
    from shiftrc.reservoir import run_tanh_reservoir

    cfg = tanh_config(echo, i_fw, i_fa, 0)
    drive, _, _ = task_arrays(series, echo, "observer")
    prefix = drive[:TANH_PREFIX]
    ok, detail = compare_states(run_tanh_reservoir(cfg, prefix, 0).values,
                                tanh_reference(cfg.a, cfg.w_in, cfg.alpha, prefix), TANH_RTOL)
    radius_err = spectral_radius_error(cfg.a, echo["reservoir"]["spectral_radius"])
    return (ok and radius_err <= RADIUS_RTOL,
            f"cell ({i_fw}, {i_fa}): {detail}; spectral radius rel err {radius_err:.1e}")


def analysis_row(echo: dict, series: np.ndarray, i_fw: int, i_fa: int) -> dict:
    """One grid cell recomputed from the seed rule and the public tanh
    reservoir functions."""
    from shiftrc.reservoir import run_tanh_reservoir

    ana = echo["analysis"]
    washout = echo["washout"]
    lam = echo["readout"]["ridge_lambda"]
    n_train = echo["data"]["train_steps"] - washout
    drive, obs_train, obs_test = task_arrays(series, echo, "observer")
    _, pred_train, pred_test = task_arrays(series, echo, "prediction")
    f_w, f_a = ana["f_w_values"][i_fw], ana["f_a_values"][i_fa]
    ent, corr, err_obs, err_pred = [], [], [], []
    for trial in range(ana["n_trials"]):
        states = run_tanh_reservoir(tanh_config(echo, i_fw, i_fa, trial), drive,
                                    washout).values
        train, test = states[:n_train], states[n_train:]
        g_obs = obs_train[washout:]
        ent.append(joint_ordinal_entropy(train, ana["window"]))
        corr.append(np.mean([abs(np.corrcoef(train[:, j], g_obs)[0, 1])
                             for j in range(train.shape[1])]))
        for g_tr, g_te, errs in ((g_obs, obs_test, err_obs),
                                 (pred_train[washout:], pred_test, err_pred)):
            w = ridge_lstsq(train, g_tr, lam)
            errs.append(nrmse(g_te, test @ w))
    return {"f_w": f_w, "f_a": f_a, "entropy_bits": np.mean(ent),
            "mean_correlation": np.mean(corr), "nrmse_observer": np.mean(err_obs),
            "nrmse_prediction": np.mean(err_pred)}


def check_analysis_grid(out: dict) -> tuple[bool, str]:
    """One row per (f_w, f_a) cell, f_w-major, with the configured values."""
    ana = out["manifest"]["config_echo"]["analysis"]
    expected = [(fw, fa) for fw in ana["f_w_values"] for fa in ana["f_a_values"]]
    got = [(r["f_w"], r["f_a"]) for r in out["analysis.csv"]]
    return got == expected, f"{len(got)} rows, expected {len(expected)}"


def check_analysis_row(out: dict, expected: dict, i_fw: int, i_fa: int) -> tuple[bool, str]:
    n_fa = len(out["manifest"]["config_echo"]["analysis"]["f_a_values"])
    row = out["analysis.csv"][i_fw * n_fa + i_fa]
    errs = {k: _rel(row[k], expected[k]) for k in expected}
    tol = {"nrmse_observer": NRMSE_RTOL, "nrmse_prediction": NRMSE_RTOL}
    ok = all(errs[k] <= tol.get(k, SUM_RTOL) for k in errs)
    detail = ", ".join(f"{k} {v:.1e}" for k, v in errs.items() if k not in ("f_w", "f_a"))
    return ok, f"cell ({i_fw}, {i_fa}): {detail}"


# ------------------------------------------------------------- identity

def output_digest(out_dir) -> dict[str, bytes]:
    """Every output file's bytes; the manifest without its wall time, which
    is the one field that differs between identical runs."""
    out_dir = Path(out_dir)
    files = {}
    for path in sorted(out_dir.rglob("*")):
        if not path.is_file():
            continue
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("wall_time_seconds", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        files[str(path.relative_to(out_dir))] = data
    return files


def check_identical(out_dirs) -> tuple[bool, str]:
    """Outputs of the same command and seed are byte-identical."""
    first = output_digest(out_dirs[0])
    for other in out_dirs[1:]:
        digest = output_digest(other)
        if digest != first:
            differ = sorted(k for k in set(first) | set(digest) if first.get(k) != digest.get(k))
            return False, f"{Path(other).name} differs in {differ[:3]}"
    return True, f"{len(out_dirs)} runs x {len(first)} files identical"
