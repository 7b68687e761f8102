"""The demo scripts are part of the shipped surface; keep them running."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMO_DIR = ROOT / "demos"
DEMOS = sorted(DEMO_DIR.glob("0*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_clean(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(script)], capture_output=True,
                            text=True, timeout=300, env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "demo produced no output"


def test_all_demos_discovered():
    assert len(DEMOS) == 7
