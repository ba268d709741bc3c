"""Each demo script runs to completion with every warning turned into an error."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONWARNINGS="error",  # also for the CLI runs a demo starts
        TMPDIR=str(tmp_path),
    )
    result = subprocess.run(
        [sys.executable, "-W", "error", str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
