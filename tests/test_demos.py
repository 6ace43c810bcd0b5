"""Every narrative script in demos/ runs to completion.

The demos exercise the scalar view classify and the batch kernels
disk_counts and curl behind it, so a change to those kernels shows up
here as a failing script.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert [p.name for p in DEMOS] == ["01_build_and_classify.py",
                                       "02_knotting_probability.py",
                                       "03_volumes_and_bound.py"]


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(script)], env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
