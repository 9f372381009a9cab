"""The demo scripts run to completion against the source tree, warning-free."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(demo):
    # with warnings as errors, and nothing on stderr: a numpy warning fails it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "-W", "error", str(demo)]
    result = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stderr) == (0, "")
