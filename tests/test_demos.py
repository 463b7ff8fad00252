"""The demo scripts and README's quick start run to completion and print no
warning or error, and the package's public names resolve."""

import glob
import os
import re
import subprocess
import sys

import pytest

import spinweb
from conftest import SRC_ROOT, child_env

REPO_ROOT = os.path.dirname(SRC_ROOT)
DEMOS = sorted(glob.glob(os.path.join(REPO_ROOT, "demos", "*.py")))


def _run_cleanly(*argv) -> str:
    """Stdout of a Python child that exits 0 with an empty stderr."""
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return proc.stdout


def test_all_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs_cleanly(path):
    assert _run_cleanly(path)


def test_public_names_resolve_once():
    assert len(set(spinweb.__all__)) == len(spinweb.__all__)
    assert [name for name in spinweb.__all__ if not hasattr(spinweb, name)] == []
    assert _run_cleanly("-c", "from spinweb import *; print(SpinSystem(2).dimension)") == "8\n"


def test_readme_quick_start_runs():
    with open(os.path.join(REPO_ROOT, "README.md")) as fh:
        block = re.search(r"## Library quick start\n\n```python\n(.*?)```", fh.read(), re.S)
    assert block, "README.md has no Library quick start block"
    assert _run_cleanly("-c", block.group(1))
