"""The benchmark's reference check, run in process: every perfbench workload's
commands at J = 1.3 must reproduce the stored reference outputs."""

import os
import sys

import pytest

from spinweb.cli import main

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import run  # perfbench/run.py, read only


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_workload_matches_perfbench_reference(workload, tmp_path):
    J = 1.3
    cmds = run.commands(workload, J, str(tmp_path))
    results = [{"code": main(argv), "error": None} for _, argv in cmds]
    _, failed, problems = run.check_outputs(workload, cmds, {"results": results}, J)
    assert (failed, problems) == (0, [])
