"""The CI workflow against the repository: it cannot run here, so these
checks are all that keep it from drifting."""

import importlib.metadata
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
PINNED = ("numpy", "scipy", "pytest", "hypothesis")


def workflow_lines() -> list[str]:
    return WORKFLOW.read_text().splitlines()


def test_runs_the_roadmap_verify_command_on_one_blas_thread():
    verify = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text())
    assert verify is not None
    lines = workflow_lines()
    assert [line.split("run:", 1)[1].strip() for line in lines
            if line.lstrip().startswith("run:")][-1] == verify.group(1)
    # the variable is set for the whole job, so every step runs under it
    job = next(line[: -len(line.lstrip())] for line in lines
               if line.lstrip().startswith("runs-on:"))
    env = lines.index(f"{job}env:")
    block = []
    for line in lines[env + 1 :]:
        if not line.startswith(job + " "):
            break
        block.append(line.strip())
    assert 'OPENBLAS_NUM_THREADS: "1"' in block


def test_pins_the_installed_toolchain():
    installs = [line for line in workflow_lines() if "pip install" in line]
    assert len(installs) == 1
    pins = dict(re.findall(r"([A-Za-z0-9_.-]+)==(\S+)", installs[0]))
    assert pins == {name: importlib.metadata.version(name) for name in PINNED}
