"""The demo scripts run to completion and print no warning or error."""

import glob
import os
import subprocess
import sys

import pytest

from conftest import child_env

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "demos", "*.py")))


def test_all_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs_cleanly(path):
    proc = subprocess.run([sys.executable, path], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
