"""The CI workflow against the repository: it cannot run here, so these
checks are all that keep it from drifting."""

import importlib.metadata
import re
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
PINNED = ("numpy", "scipy", "pytest", "hypothesis")


def workflow_lines() -> list[str]:
    return WORKFLOW.read_text().splitlines()


def job_indent(lines) -> str:
    """The indentation of the job's own keys, read from its ``runs-on``."""
    return next(line[: -len(line.lstrip())] for line in lines
                if line.lstrip().startswith("runs-on:"))


def top_level_block(lines, key: str) -> list[str]:
    """The stripped lines of the workflow's top-level ``key``."""
    block = []
    for line in lines[lines.index(f"{key}:") + 1 :]:
        if not line.startswith(" "):
            break
        block.append(line.strip())
    return block


def test_runs_the_roadmap_verify_command_on_one_blas_thread():
    verify = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text())
    assert verify is not None
    lines = workflow_lines()
    assert [line.split("run:", 1)[1].strip() for line in lines
            if line.lstrip().startswith("run:")][-1] == verify.group(1)
    # the variable is set for the whole job, so every step runs under it
    job = job_indent(lines)
    env = lines.index(f"{job}env:")
    block = []
    for line in lines[env + 1 :]:
        if not line.startswith(job + " "):
            break
        block.append(line.strip())
    assert 'OPENBLAS_NUM_THREADS: "1"' in block


def test_job_times_out_long_before_the_platform_default():
    # without the key a hung run holds the runner for GitHub's 360 minutes
    lines = workflow_lines()
    (minutes,) = [line.split(":", 1)[1].strip() for line in lines
                  if line.startswith(f"{job_indent(lines)}timeout-minutes:")]
    assert 0 < int(minutes) <= 60


def test_new_push_cancels_the_superseded_run():
    # one group per workflow and ref, so a push to one branch cancels only
    # that branch's run still in progress
    assert sorted(top_level_block(workflow_lines(), "concurrency")) == [
        "cancel-in-progress: true", "group: ${{ github.workflow }}-${{ github.ref }}"]


def test_token_may_only_read_the_repository():
    # without the key the job's GITHUB_TOKEN gets the repository's default scopes
    lines = workflow_lines()
    assert top_level_block(lines, "permissions") == ["contents: read"]
    assert sum(line.lstrip().startswith("permissions:") for line in lines) == 1


def test_runs_the_declared_python_floor():
    # the pinned numpy and SciPy, and tomllib in the tests, need 3.11; CI
    # runs the floor the package declares
    with (ROOT / "pyproject.toml").open("rb") as f:
        floor = tomllib.load(f)["project"]["requires-python"]
    (version,) = [line.split(":", 1)[1].strip().strip('"') for line in workflow_lines()
                  if line.lstrip().startswith("python-version:")]
    assert floor == f">={version}"


def test_pins_the_installed_toolchain():
    installs = [line for line in workflow_lines() if "pip install" in line]
    assert len(installs) == 1
    pins = dict(re.findall(r"([A-Za-z0-9_.-]+)==(\S+)", installs[0]))
    assert pins == {name: importlib.metadata.version(name) for name in PINNED}


def test_checks_every_benchmark_workload_before_the_verify_step(perfbench_run):
    lines = [line.strip() for line in workflow_lines()]
    verify = lines.index("- name: Tier-1 verify")
    assert perfbench_run.WORKLOADS
    for name in perfbench_run.WORKLOADS:
        step = (f"python3 perfbench/run.py --workload {name} --seconds 1 --trace 0"
                ' | tail -n 1 | python3 -c "$CORRECT"')
        assert lines.count(step) == 1 and lines.index(step) < verify
    # the check passes only a correct run in which no operation failed
    (correct,) = [line.split(":", 1)[1].strip() for line in lines
                  if line.startswith("CORRECT:")]
    assert correct[0] == correct[-1] == "'" and "'" not in correct[1:-1]
    for last_line, code in [('{"correct": true, "failed": 0}', 0),
                            ('{"correct": true, "failed": 1}', 1),
                            ('{"correct": false, "failed": 0}', 1)]:
        done = subprocess.run([sys.executable, "-c", correct[1:-1]], input=last_line,
                              text=True)
        assert done.returncode == code, last_line
