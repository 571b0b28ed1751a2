"""Spans around calls into shiftrc's public functions, recorded from outside.

The traced worker replaces module attributes with wrappers, so the program
itself is unchanged: every call that the package makes through a module
attribute (``linalg.ridge_fit``, ``reservoir.run_oeo_reservoir``, ...)
opens a span. Spans hold a name, a start, an end and the id of the span
that caused them. They are kept in memory and written out when the run
ends. Every workload runs the program on one thread, so a span's children
never overlap and its self time is its duration minus theirs.

This module imports only the standard library: it is loaded before
``shiftrc`` so that the import itself can be timed.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# (module, function) pairs wrapped in a traced run, named in the per-layer
# metrics as "<module>.<function>".
LAYERS = (
    ("dynamics", "integrate_chaotic"),
    ("dynamics", "make_task"),
    ("reservoir", "make_oeo_config"),
    ("reservoir", "make_tanh_config"),
    ("reservoir", "run_oeo_reservoir"),
    ("reservoir", "run_tanh_reservoir"),
    ("shifts", "build_shifted_matrix"),
    ("shifts", "rrqr_select"),
    ("shifts", "random_select"),
    ("shifts", "reduce_columns"),
    ("linalg", "qr_column_pivot"),
    ("linalg", "ridge_fit"),
    ("linalg", "predict"),
    ("linalg", "nrmse"),
    ("analysis", "reservoir_entropy"),
    ("analysis", "node_target_correlation"),
    ("pipeline", "build_dataset"),
    ("pipeline", "sweep"),
    ("pipeline", "analysis_sweep"),
    ("cli", "main"),
)

# Modules that bind a wrapped function under their own name at import time;
# their copy must be replaced too, or its calls would go untraced.
ALIASES = {("linalg", "qr_column_pivot"): ("shifts",)}

# Spans of a function split by their parent, as (metric prefix, span name,
# parent span name): the full-width pivot that ranks the columns apart from
# the factorizations of the readout fits.
NESTED = (
    ("linalg.qr_column_pivot.under_rrqr_select", "linalg.qr_column_pivot",
     "shifts.rrqr_select"),
    ("linalg.qr_column_pivot.under_ridge_fit", "linalg.qr_column_pivot",
     "linalg.ridge_fit"),
)


def qr_gflop(args, _result) -> float:
    """Householder QR of a t x m matrix: 2 m^2 (t - m/3) flops, in GFLOP."""
    t, m = args[0].shape
    return 2.0 * m * m * (t - m / 3.0) / 1e9


def reduce_mib(_args, result) -> float:
    """Bytes copied into the reduced matrix, in MiB."""
    return result.values.nbytes / 2**20


# Work computed from the shapes of each call: (layer, counter) -> function.
COUNTERS = {
    ("linalg.qr_column_pivot", "gflop"): qr_gflop,
    ("shifts.reduce_columns", "mib"): reduce_mib,
}


class Tracer:
    """Collects the spans of one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent id]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished root span (used for the import, timed by hand)."""
        self.spans.append([name, start, end, None])

    def wrap(self, fn, name: str):
        counters = [(f"{layer}.{key}", measure)
                    for (layer, key), measure in COUNTERS.items() if layer == name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            for counter, measure in counters:
                self.counters[counter] += measure(args, result)
            return result

        return traced

    def install(self, package) -> None:
        """Replace every function of LAYERS in the imported ``package``."""
        for module_name, fn_name in LAYERS:
            module = getattr(package, module_name)
            traced = self.wrap(getattr(module, fn_name), f"{module_name}.{fn_name}")
            setattr(module, fn_name, traced)
            for alias in ALIASES.get((module_name, fn_name), ()):
                setattr(getattr(package, alias), fn_name, traced)

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total time, self time, and children's time.

    Spans come from one thread, so children never overlap: self time is the
    duration minus the children's durations. ``covered_s`` is the children's
    time; for ``cli.main`` it shows how much of the command the layers
    account for. Rows named ``"<name><<parent name>"`` split the spans of a
    name by the name of their parent span.
    """
    covered = defaultdict(float)
    for _name, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "covered_s": 0.0}
    )
    for sid, (name, start, end, parent) in enumerate(spans):
        keys = [name]
        if parent is not None:
            keys.append(f"{name}<{spans[parent][0]}")
        for key in keys:
            row = out[key]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered[sid]
            row["covered_s"] += covered[sid]
    return dict(out)
