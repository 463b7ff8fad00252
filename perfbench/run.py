"""spinweb benchmark: run a workload through the CLI in child processes.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep-n8 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each child process runs every command of the workload through
``spinweb.cli.main``, one child at a time, with the BLAS thread variables set
to 1 before numpy loads.  Children are started until ``--seconds`` have
passed; the reported timings are medians over the children.  The seed draws J
from [0.5, 2]; every output is checked against the stored J = 1 references
(energies rescaled by J).  With ``--trace 1`` traced and untraced children
alternate and the per-layer metrics of ``BENCHMARK.json`` are reported
instead of the end-to-end ones.  The last line of standard output is the
result as one JSON object.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import check
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
REFERENCE = os.path.join(HERE, "reference")
CHILD = os.path.join(HERE, "child.py")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Import-only children per run, for the set-up time median.
SETUP_PROBES = 5
# A child is not started when it is expected to end later than this many
# times --seconds, so that a run takes about --seconds.
OVERRUN = 1.3
# Hard limits that keep one invocation of a workload within 180 s.
STOP_STARTING_S = 120.0
KILL_CHILD_S = 170.0

# Workload -> [(output file, CLI argv without --j and --out)].  Why each was
# chosen is in README.md.
_PAPER_GRID = ["--c-steps", "50"]
WORKLOADS = {
    "sweep-n8": [
        ("sweep-n8.csv", ["sweep", "--n", "8", "--c-max", "0.5", "--c-steps", "2",
                          "--refs", "ring,star"]),
    ],
    "paper-small": [
        ("sweep-n4.csv", ["sweep", "--n", "4", *_PAPER_GRID, "--refs", "ring,star"]),
        ("sweep-n5.csv", ["sweep", "--n", "5", *_PAPER_GRID, "--refs", "ring,star"]),
        ("sweep-n6.csv", ["sweep", "--n", "6", *_PAPER_GRID, "--refs", "ring,star"]),
        ("spectrum-n4.json", ["spectrum", "--n", "4", *_PAPER_GRID]),
        ("ghz-intermediate.json", ["ghz", "--region", "intermediate"]),
        ("ghz-star.json", ["ghz", "--region", "star"]),
        ("verify-n4.txt", ["verify-n4"]),
    ],
    "ansatz-n5": [
        ("ansatz-n5.csv", ["sweep", "--n", "5", "--c-min", "0.6", "--c-max", "0.72",
                           "--c-steps", "12", "--refs", "ansatz"]),
    ],
}


def coupling(seed: int) -> float:
    """J for a seed: energies scale with J, every other output is unchanged."""
    return random.Random(seed).uniform(0.5, 2.0)


def commands(workload: str, J: float, outdir: str):
    """[(output path, full argv)] for one child of the workload."""
    cmds = []
    for name, argv in WORKLOADS[workload]:
        j = [] if argv[0] == "verify-n4" else ["--j", repr(J)]
        path = os.path.join(outdir, name)
        cmds.append((path, [*argv, *j, "--out", path]))
    return cmds


def child_env():
    env = dict(os.environ)
    env.pop("SPINWEB_THREADS", None)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = SRC
    return env


def run_child(argvs, trace, childdir, kill_at):
    """Run one child; return its timings, rusage and report (None if it died)."""
    spec_path = os.path.join(childdir, "spec.json")
    report_path = os.path.join(childdir, "report.json")
    with open(spec_path, "w") as fh:
        json.dump({"commands": argvs, "trace": trace, "report": report_path}, fh)
    with open(os.path.join(childdir, "child.log"), "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, CHILD, spec_path], cwd=ROOT,
                                env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(kill_at - t0, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = None
    if proc.returncode == 0:
        with open(report_path) as fh:
            report = json.load(fh)
    return {
        "traced": trace,
        "wall": t1 - t0,
        "setup": report["ready"] - t0 if report else None,
        "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "report": report,
        "log": os.path.join(childdir, "child.log"),
    }


def check_outputs(workload, cmds, report, J):
    """(grid points delivered, failed command count, problem lines)."""
    points, failed, lines = 0, 0, []
    results = report["results"] if report else [None] * len(cmds)
    for (path, argv), res, (name, _) in zip(cmds, results, WORKLOADS[workload]):
        if res is None or res["code"] != 0 or res["error"]:
            failed += 1
            lines.append(f"{' '.join(argv[:3])}: exit {res and res['code']} {res and res['error']}")
            continue
        try:
            n, problems = check.CHECKS[argv[0]](path, os.path.join(REFERENCE, workload, name), J)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            n, problems = 0, [f"unreadable output: {type(exc).__name__}: {exc}"]
        points += n
        if problems:
            failed += 1
            lines += [f"{name}: {p}" for p in problems]
    return points, failed, lines


def output_bytes(cmds):
    total = 0
    for path, _ in cmds:
        for p in (path, path + ".crossings.csv", path + ".manifest.json"):
            if os.path.exists(p):
                total += os.path.getsize(p)
    return total


def layer_metrics(child):
    """All per-layer numbers of one traced child, keyed by metric name."""
    spans = child["report"]["trace"]["spans"]
    totals = tracer.layer_totals(spans)
    out = {}
    for _, _, layer in tracer.TARGETS:
        t = totals.get(layer, {"s": 0.0, "incl_s": 0.0, "calls": 0})
        if layer == "cli.main":
            out["cli.self_s"] = t["s"]
        else:
            out[f"{layer}.s"] = t["s"]
            out[f"{layer}.incl_s"] = t["incl_s"]
            out[f"{layer}.calls"] = t["calls"]
    solves = out["spectral.eigendecompose.calls"]
    out["spectral.solves_per_point"] = solves / child["points"] if child["points"] else 0.0
    out["spectral.bisection_solves"] = tracer.count_nested(
        spans, "spectral.eigendecompose", "spectral.refine_crossing")
    out["sweep.nm_iters"] = child["report"]["trace"]["nm_iters"]
    out["cli.bytes_out"] = child["bytes_out"]
    out["trace.spans"] = len(spans)
    out["trace.traced_s"] = sum(end - start for name, start, end, parent in spans
                                if parent < 0)
    return out


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_workload(workload, seed, seconds, trace, bench):
    J = coupling(seed)
    start = time.monotonic()
    os.makedirs(WORK, exist_ok=True)

    # Untimed warm-up: compiles bytecode, fills the page cache, and shows that
    # the program under test is importable from this checkout.
    with tempfile.TemporaryDirectory(dir=WORK) as d:
        warm = run_child([], False, d, start + KILL_CHILD_S)
        if warm["report"] is None:
            with open(warm["log"]) as fh:
                sys.stderr.write(fh.read())
            raise SystemExit(f"perfbench: spinweb.cli does not import from {SRC}")
    if not os.path.abspath(warm["report"]["spinweb_file"]).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: spinweb imported from "
                         f"{warm['report']['spinweb_file']}, not from {SRC}")

    setups = []
    for _ in range(SETUP_PROBES):
        with tempfile.TemporaryDirectory(dir=WORK) as d:
            probe = run_child([], False, d, start + KILL_CHILD_S)
        if probe["report"]:
            setups.append(probe["setup"])

    children = []
    kinds = (False, True) if trace else (False,)
    measure_start = time.monotonic()
    while True:
        traced = kinds[len(children) % len(kinds)]
        with tempfile.TemporaryDirectory(dir=WORK) as d:
            cmds = commands(workload, J, d)
            child = run_child([argv for _, argv in cmds], traced, d, start + KILL_CHILD_S)
            child["points"], child["failed"], child["problems"] = check_outputs(
                workload, cmds, child["report"], J)
            child["attempted"] = len(cmds)
            child["bytes_out"] = output_bytes(cmds)
            if child["report"] is None:
                with open(child["log"]) as fh:
                    child["problems"].append("child died: " + fh.read()[-2000:])
        children.append(child)
        now = time.monotonic()
        elapsed = now - measure_start
        expected = statistics.median(c["wall"] for c in children)
        have_all = all(any(c["traced"] == k for c in children) for k in kinds)
        if now - start >= STOP_STARTING_S or have_all and (
                elapsed >= seconds or elapsed + expected > OVERRUN * seconds):
            break

    plain = [c for c in children if not c["traced"] and c["report"]]
    traced = [c for c in children if c["traced"] and c["report"]]
    if not plain or (trace and not traced):
        for c in children:
            sys.stderr.write("\n".join(c["problems"]) + "\n")
        raise SystemExit(f"perfbench: no child of {workload} completed")
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    walls = [c["wall"] for c in plain]
    e2e = {
        "wall_s": walls,
        "setup_s": setups + [c["setup"] for c in plain],
        "points_per_s": [c["points"] / (c["wall"] - c["setup"]) for c in plain],
        "peak_rss_mb": [c["rss_mb"] for c in plain],
    }

    print(f"== perfbench workload={workload} seed={seed} J={J!r} seconds={seconds} "
          f"trace={int(trace)}")
    env = dict(warm["report"]["env"], nproc=os.cpu_count(),
               affinity=len(os.sched_getaffinity(0)), commit=git_commit(),
               seed=seed, J=J, concurrent_children=1, children_run=len(children))
    print("env " + json.dumps(env, sort_keys=True))
    for _, argv in commands(workload, J, "<out>"):
        print("  spinweb " + " ".join(argv))
    for c in children:
        for line in c["problems"]:
            print(f"  FAILED {line}")
    print(f"  commands attempted={attempted} failed={failed} "
          f"failed_frac={failed / attempted:.4f}")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for name, values in e2e.items():
        print(f"  {name:<14} {statistics.median(values):12.6f} {units[name]:<6} "
              f"(median of {len(values)} children; min {min(values):.4f} max {max(values):.4f})")

    if not trace:
        metrics = {m["name"]: {"value": statistics.median(e2e[m["name"]]), "unit": m["unit"]}
                   for m in bench["end_to_end"]}
        return attempted, failed, metrics

    with open(os.path.join(WORK, f"{workload}.spans.json"), "w") as fh:
        json.dump(traced[-1]["report"]["trace"], fh)
    per_child = [layer_metrics(c) for c in traced]
    layers = {k: statistics.median([m[k] for m in per_child]) for k in per_child[0]}
    layers["trace.overhead_s"] = statistics.median([c["wall"] for c in traced]) - statistics.median(walls)
    counts = [{k: v for k, v in m.items() if k.endswith(".calls")} for m in per_child]
    if any(c != counts[0] for c in counts):
        print("  WARNING call counts differ between traced children")
    if traced[0]["report"]["trace"]["untraced"]:
        print("  not traced (absent from spinweb): "
              + ", ".join(traced[0]["report"]["trace"]["untraced"]))
    traced_total = layers["trace.traced_s"]
    print(f"  per layer (median of {len(per_child)} traced children; "
          f"times in s with their share of traced time):")
    for key in sorted(layers):
        share = f"{100 * layers[key] / traced_total:5.1f}%" \
            if key.endswith(("_s", ".s")) and not key.startswith("trace.") else ""
        print(f"    {key:<40} {layers[key]:14.6f} {share}")
    metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
               for m in bench["per_layer"]}
    return attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "spinweb", "cli.py")):
        raise SystemExit(f"perfbench: no spinweb sources under {SRC}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        a, f, m = run_workload(name, args.seed, args.seconds, bool(args.trace), bench)
        attempted += a
        failed += f
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
