"""Self-tests of the benchmark's tracer and reference check.

Usage (from the repository root): python3 perfbench/selftest.py

The last test runs the ansatz-n5 workload twice under the tracer (about 10 s).
"""

import csv
import os
import shutil
import sys
import tempfile
import time
import types
import unittest

import check
import run
import tracer


class FakeClock:
    """Advances by one second per reading, so span times are exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class TracerTest(unittest.TestCase):
    def test_self_time_of_nested_calls(self):
        t = tracer.Tracer(clock=FakeClock())
        inner = t.wrap("inner", lambda: None)

        def outer_body():
            inner()
            inner()

        outer = t.wrap("outer", outer_body)
        outer()
        totals = tracer.layer_totals(t.spans)
        # outer: readings 1 and 6 -> 5 s; each inner span covers 1 s.
        self.assertEqual(totals["inner"], {"s": 2.0, "incl_s": 2.0, "calls": 2})
        self.assertEqual(totals["outer"], {"s": 3.0, "incl_s": 5.0, "calls": 1})
        self.assertEqual(tracer.count_nested(t.spans, "inner", "outer"), 2)

    def test_rebinds_copies_made_by_from_imports(self):
        pkg, lib, user = (types.ModuleType(n) for n in ("fakepkg", "fakepkg.lib", "fakepkg.user"))

        def solve():
            return 42

        lib.solve = solve
        user.solve = solve  # what "from .lib import solve" leaves behind
        user.run = lambda: user.solve()
        sys.modules.update({"fakepkg": pkg, "fakepkg.lib": lib, "fakepkg.user": user})
        try:
            t = tracer.Tracer()
            missing = t.install("fakepkg", [("lib", "solve", "lib.solve"),
                                            ("lib", "gone", "lib.gone")])
            self.assertEqual(user.run(), 42)
            self.assertEqual([s[0] for s in t.spans], ["lib.solve"])
            self.assertEqual(missing, ["lib.gone"])
        finally:
            for name in ("fakepkg", "fakepkg.lib", "fakepkg.user"):
                del sys.modules[name]


def _rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


class ReferenceCheckTest(unittest.TestCase):
    """Scaled copies of the stored sweep-n8 reference, perturbed one way each."""

    J = 1.5

    def setUp(self):
        self.dir = tempfile.mkdtemp()
        self.ref = os.path.join(run.REFERENCE, "sweep-n8", "sweep-n8.csv")
        self.out = os.path.join(self.dir, "sweep-n8.csv")
        shutil.copyfile(self.ref, self.out)
        shutil.copyfile(self.ref + ".crossings.csv", self.out + ".crossings.csv")
        e0 = 1

        def scale(rows):
            for row in rows[1:]:
                row[e0] = repr(self.J * float(row[e0]))

        _rewrite_csv(self.out, scale)

    def tearDown(self):
        shutil.rmtree(self.dir)

    def problems(self):
        return check.check_sweep(self.out, self.ref, self.J)[1]

    def test_scaled_copy_passes(self):
        self.assertEqual(self.problems(), [])

    def test_rejects_perturbed_ground_energy(self):
        def bump(rows):
            rows[1][1] = repr(float(rows[1][1]) + 1e-9)

        _rewrite_csv(self.out, bump)
        self.assertTrue(any("E0" in p for p in self.problems()))

    def test_rejects_changed_degeneracy(self):
        def bump(rows):
            rows[1][2] = str(int(rows[1][2]) + 1)

        _rewrite_csv(self.out, bump)
        self.assertTrue(any("deg" in p for p in self.problems()))

    def test_rejects_dropped_crossing(self):
        _rewrite_csv(self.out + ".crossings.csv", lambda rows: rows.pop())
        self.assertTrue(any("crossings" in p for p in self.problems()))


class TracedCountsTest(unittest.TestCase):
    def test_call_counts_repeat_between_traced_runs(self):
        os.makedirs(run.WORK, exist_ok=True)
        counts = []
        for _ in range(2):
            with tempfile.TemporaryDirectory(dir=run.WORK) as d:
                cmds = run.commands("ansatz-n5", 1.0, d)
                child = run.run_child([a for _, a in cmds], True, d, time.monotonic() + 120)
                child["points"], failed, problems = run.check_outputs(
                    "ansatz-n5", cmds, child["report"], 1.0)
                self.assertEqual((failed, problems), (0, []))
                child["bytes_out"] = run.output_bytes(cmds)
            metrics = run.layer_metrics(child)
            counts.append({k: v for k, v in metrics.items()
                           if k.endswith(".calls") or k in (
                               "spectral.bisection_solves", "sweep.nm_iters", "trace.spans")})
        self.assertGreater(counts[0]["spectral.eigendecompose.calls"], 0)
        self.assertEqual(counts[0], counts[1])


if __name__ == "__main__":
    unittest.main()
