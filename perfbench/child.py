"""One benchmark child: import the CLI, run a workload's commands, report.

Usage: python3 child.py SPEC.json

SPEC holds {"commands": [argv, ...], "trace": bool, "report": path}.  The
parent sets the BLAS thread variables and PYTHONPATH before this process
starts, so numpy loads its BLAS already pinned.  The report records the
CLOCK_MONOTONIC time at which ``spinweb.cli`` was imported and ready (the end
of set-up), each command's exit code or exception, the environment and, when
traced, the spans collected in memory during the run.
"""

import json
import os
import sys
import time


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError) as exc:  # layout differs by numpy version
        blas = f"unknown ({type(exc).__name__})"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)

    import spinweb.cli

    ready = time.monotonic()
    tracer, untraced = None, []
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        untraced = tracer.install()

    results = []
    for argv in spec["commands"]:
        error = None
        try:
            code = spinweb.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a failing command is counted, not fatal
            code, error = None, f"{type(exc).__name__}: {exc}"
        results.append({"code": code, "error": error})

    report = {
        "ready": ready,
        "spinweb_file": spinweb.cli.__file__,
        "results": results,
        "env": environment(),
        "trace": dict(tracer.export(), untraced=untraced) if tracer else None,
    }
    with open(spec["report"], "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
