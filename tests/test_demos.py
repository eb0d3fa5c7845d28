"""The walkthroughs in demos/ run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_synthetic_keywords.py",
                                  "02_attribution_walkthrough.py",
                                  "03_cli_workflow.sh"])
def test_demo_exits_zero(demo, tmp_path):
    # The shell demo sets PYTHONPATH itself and writes under TMPDIR.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHON=sys.executable, TMPDIR=str(tmp_path))
    command = (["bash"] if demo.endswith(".sh") else [sys.executable])
    done = subprocess.run(command + [str(ROOT / "demos" / demo)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
