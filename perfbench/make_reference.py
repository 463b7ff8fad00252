"""Regenerate the stored reference outputs (run on the seed code only).

Usage (from the repository root): python3 perfbench/make_reference.py

Runs every workload once at J = 1 in one child process and keeps the CLI's
output files under perfbench/reference/<workload>/.  Manifest sidecars are
dropped: they carry timestamps and are not compared.
"""

import os
import shutil
import tempfile
import time

import run


def main():
    os.makedirs(run.WORK, exist_ok=True)
    for workload in run.WORKLOADS:
        dest = os.path.join(run.REFERENCE, workload)
        shutil.rmtree(dest, ignore_errors=True)
        os.makedirs(dest)
        with tempfile.TemporaryDirectory(dir=run.WORK) as d:
            cmds = run.commands(workload, 1.0, d)
            child = run.run_child([argv for _, argv in cmds], False, d,
                                  time.monotonic() + 600)
            results = child["report"]["results"] if child["report"] else []
            if len(results) != len(cmds) or any(r["code"] != 0 for r in results):
                raise SystemExit(f"{workload}: a command failed: {results}")
            for path, _ in cmds:
                for p in (path, path + ".crossings.csv"):
                    if os.path.exists(p):
                        shutil.copyfile(p, os.path.join(dest, os.path.basename(p)))
        print(f"{workload}: {sorted(os.listdir(dest))}")


if __name__ == "__main__":
    main()
