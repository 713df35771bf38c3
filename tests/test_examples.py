"""Run every example so the demos cannot silently rot.

The reuse demo broke once before by drifting behind the library's API; running
each script (the reuse demo in its --quick configuration) as part of the
tier-1 suite turns any future drift into a test failure instead of a bad
first impression.  Examples run in a subprocess — exactly how a user runs
them — so import-time breakage, argument parsing, and output paths are all
covered.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = REPO_ROOT / "examples"
SRC = REPO_ROOT / "src"


def run_example(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
        env={"PYTHONPATH": str(SRC)},
        cwd=str(REPO_ROOT),
    )


def test_online_sampling_with_reuse_example_runs():
    result = run_example("online_sampling_with_reuse.py", "--quick")
    assert result.returncode == 0, result.stderr
    # Both generations of reuse must actually report: the Algorithm 2 pool
    # and the cross-query SampleBlock cache tier.
    assert "online union sampling with reuse" in result.stdout
    assert "cross-query reuse through the SampleBlock cache tier" in result.stdout
    assert "cache after the run" in result.stdout


@pytest.mark.parametrize(
    "name",
    sorted(path.name for path in EXAMPLES.glob("*.py")
           if path.name != "online_sampling_with_reuse.py"),
)
def test_example_runs(name):
    result = run_example(name)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
