"""One timed shiftrc CLI command in a fresh process.

Usage: ``python3 perfbench/worker.py JOB.json`` with ``src`` on PYTHONPATH.
The job names the config, the CLI arguments (none for a set-up-only job),
whether to trace, and where to write the result. Set-up is ``import
shiftrc`` plus ``pipeline.build_dataset`` for the config, which every CLI
invocation pays; the run is ``shiftrc.cli.main`` afterwards, with the series
cache warm. Everything after the run (result, series, spans) is written
outside the timed regions.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()

    t0 = time.perf_counter()
    import shiftrc
    from shiftrc import cli, pipeline
    from shiftrc.config import experiment_from_dict, resolve_config

    t_import = time.perf_counter()
    if tracer is not None:
        tracer.record("import", t0, t_import)
        tracer.install(shiftrc)
    raw = json.loads(Path(job["config"]).read_text(encoding="utf-8"))
    data = experiment_from_dict(resolve_config(raw)).data
    pipeline.build_dataset(data)
    t_setup = time.perf_counter()
    if job["argv"] is None:
        result = {"exit_code": 0, "import_s": t_import - t0, "setup_s": t_setup - t0}
        Path(job["result"]).write_text(json.dumps(result), encoding="ascii")
        return 0
    exit_code = cli.main(job["argv"])
    t_run = time.perf_counter()

    out_dir = Path(job["out"])
    output_bytes = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
    result = {
        "exit_code": exit_code,
        "import_s": t_import - t0,
        "setup_s": t_setup - t0,
        "run_s": t_run - t_setup,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "output_mib": output_bytes / 2**20,
    }
    import numpy as np

    np.save(job["series"], pipeline.build_series(data))
    if tracer is not None:
        tracer.dump(job["spans"])
    Path(job["result"]).write_text(json.dumps(result), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
