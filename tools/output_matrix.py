"""Write what a fixed list of ``spinweb`` commands output, and compare two such runs.

    python tools/output_matrix.py OUTDIR
    python tools/output_matrix.py --compare A B

Each case runs ``python -m spinweb.cli`` from this checkout's ``src`` in a child
process, with ``SPINWEB_THREADS=1``, ``COLUMNS=80``, no bytecode written and
umask 022 unless the case sets another, in its own directory ``OUTDIR/<case>``.
There the case leaves ``stdout``, ``stderr``, ``status`` (the exit code, then
each file the command wrote with its mode) and those files themselves: ``--out``
files and their sidecars.  Every line holding a manifest ``timestamp`` is
removed from each file, so two runs of one tree give the same bytes.  To compare two trees, run this
script in each (copy it into a checkout that lacks it) and ``diff -r`` the two
output directories.

``--compare A B`` compares two output directories within the tolerances of
``perfbench/check.py`` (read from it): ``status``, ``stderr`` and every file
that is neither CSV nor JSON (help text, the ``verify-n4`` report) byte for
byte; in CSV and JSON files, labels, degeneracies, counts and strings exactly
and every other number within its column's tolerance.  ``spectrum`` levels
are compared point by point in energy order, so a level that changes its label
is named.  It prints the largest deviation of each column and every
difference, and exits 0 when there is none, else 1.
"""

import csv
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CHECK = Path(__file__).resolve().parent.parent / "perfbench" / "check.py"
TIMESTAMP = re.compile(rb'^\s*"timestamp": .*\n', re.MULTILINE)
CAPTURED = ("stdout", "stderr", "status")


def _cases():
    """(name, argv, extra) for every case; ``extra`` holds a case's own umask
    or environment variables."""
    cases = []
    for n in range(2, 9):
        grid = ["--n", str(n), "--c-steps", "40"]
        cases += [(f"sweep-n{n}-csv", ["sweep", *grid], {}),
                  (f"sweep-n{n}-json", ["sweep", *grid, "--format", "json"], {}),
                  (f"spectrum-n{n}-json", ["spectrum", *grid], {}),
                  (f"spectrum-n{n}-csv", ["spectrum", *grid, "--format", "csv"], {})]
    sweep4 = ["sweep", "--n", "4", "--c-steps", "20"]
    spectrum4 = ["spectrum", "--n", "4", "--c-steps", "20"]
    cases += [(name, argv, {}) for name, argv in (
        ("sweep-n4-default-grid", ["sweep", "--n", "4"]),
        ("sweep-n10", ["sweep", "--n", "10", "--c-steps", "8"]),
        ("spectrum-n10", ["spectrum", "--n", "10", "--c-steps", "8"]),
        # --levels 1 reads the lowest eigenvalue of nine one-point chunks
        ("spectrum-n10-levels-1", ["spectrum", "--n", "10", "--c-steps", "8", "--levels", "1"]),
        ("sweep-out-csv", [*sweep4, "--out", "out.csv"]),
        ("sweep-out-json", [*sweep4, "--format", "json", "--out", "out.json"]),
        ("spectrum-out-csv", [*spectrum4, "--format", "csv", "--out", "out.csv"]),
        ("spectrum-out-json", [*spectrum4, "--out", "out.json"]),
        ("sweep-ansatz-n4", [*sweep4, "--refs", "ring,star,ansatz"]),
        ("sweep-ansatz-n5", ["sweep", "--n", "5", "--c-min", "0.6", "--c-max", "0.72",
                             "--c-steps", "12", "--refs", "ansatz"]),
        ("sweep-ansatz-json", [*sweep4, "--refs", "ansatz", "--format", "json"]),
        ("sweep-ring-eps", [*sweep4, "--refs", "ring-eps=0.05,star"]),
        ("sweep-ring-eps-default", [*sweep4, "--refs", "ring-eps"]),
        # both references at c = 1: one reference pass with two equal c values
        ("sweep-ring-eps-1", [*sweep4, "--refs", "ring-eps=1,star"]),
        ("sweep-no-refs", [*sweep4, "--refs", ""]),
        ("sweep-pairs", [*sweep4, "--pairs", "1:3,2:4"]),
        ("sweep-pairs-nn", [*sweep4, "--pairs", "nn,1:3", "--format", "json"]),
        ("sweep-levels-1", [*sweep4, "--levels", "1"]),
        ("sweep-levels-2-json", [*sweep4, "--levels", "2", "--format", "json"]),
        ("spectrum-levels-1", [*spectrum4, "--levels", "1"]),
        ("spectrum-levels-1-csv", [*spectrum4, "--levels", "1", "--format", "csv"]),
        ("spectrum-levels-16", [*spectrum4, "--levels", "16", "--format", "csv"]),
        ("sweep-c-steps-0", ["sweep", "--n", "4", "--c-steps", "0", "--c-min", "0.6"]),
        ("spectrum-c-steps-0", ["spectrum", "--n", "4", "--c-steps", "0"]),
        ("sweep-j-minus-1", [*sweep4, "--j", "-1"]),
        ("spectrum-j-minus-1", [*spectrum4, "--j", "-1"]),
        ("sweep-j-scaled", [*sweep4, "--j", "2.5", "--format", "json"]),
        ("sweep-window", ["sweep", "--n", "6", "--c-min", "0.3", "--c-max", "0.8",
                          "--c-steps", "25"]),
        # crossing-heavy: one wide bracket; three ground changes and the odd-N
        # bracket at c = 0; an odd N at J < 0
        ("sweep-n8-wide-bracket", ["sweep", "--n", "8", "--c-max", "0.5", "--c-steps", "2",
                                   "--j", "0.7"]),
        ("spectrum-n7-fine", ["spectrum", "--n", "7", "--c-steps", "400"]),
        ("spectrum-n5-fine-j-minus-1", ["spectrum", "--n", "5", "--c-steps", "400",
                                        "--j", "-1"]),
        ("ghz-intermediate", ["ghz"]),
        ("ghz-star", ["ghz", "--region", "star"]),
        ("ghz-c", ["ghz", "--c", "0.6", "--field-h", "0.002"]),
        ("ghz-j", ["ghz", "--j", "3", "--region", "star", "--c", "0.9"]),
        ("ghz-out", ["ghz", "--out", "ghz.json"]),
        ("ghz-star-c-1", ["ghz", "--region", "star", "--c", "1"]),
        ("verify-n4", ["verify-n4"]),
        ("verify-n4-out", ["verify-n4", "--out", "report.txt"]),
        # error exits
        ("err-no-command", []),
        ("err-n-not-int", ["sweep", "--n", "x"]),
        ("err-n-1", ["sweep", "--n", "1"]),
        ("err-n-too-large", ["sweep", "--n", "20"]),
        ("err-c-order", ["sweep", "--n", "4", "--c-min", "0.6", "--c-max", "0.4"]),
        ("err-c-max-inf", ["spectrum", "--n", "3", "--c-max", "inf"]),
        ("err-c-min-nan", ["sweep", "--n", "3", "--c-min", "nan"]),
        ("err-c-steps", ["sweep", "--n", "3", "--c-steps", "-1"]),
        ("err-refs", [*sweep4, "--refs", "bogus"]),
        ("err-ring-eps", [*sweep4, "--refs", "ring-eps=2"]),
        ("err-pairs-syntax", [*sweep4, "--pairs", "1-2"]),
        ("err-pairs-order", [*sweep4, "--pairs", "nnn,nn"]),
        ("err-pairs-site", [*sweep4, "--pairs", "1:99"]),
        ("err-j-nan", [*sweep4, "--j", "nan"]),
        ("err-j-subnormal", [*sweep4, "--j", "5e-324"]),
        ("err-sweep-levels-0", [*sweep4, "--levels", "0"]),
        ("err-sweep-levels-neg", [*sweep4, "--levels", "-3"]),
        ("err-spectrum-levels-0", [*spectrum4, "--levels", "0"]),
        ("err-grid-guard", ["spectrum", "--n", "7", "--levels", "256", "--c-steps", "8192"]),
        ("err-out-missing-dir", [*sweep4, "--out", "missing/x.csv"]),
        ("err-ghz-region", ["ghz", "--c", "0.1"]),
        ("err-ghz-field", ["ghz", "--field-h", "0"]),
        ("err-ghz-j", ["ghz", "--j", "-1"]),
        ("err-ghz-field-resolution", ["ghz", "--field-h", "1e-300"]),
        ("err-ghz-field-pushed-out", ["ghz", "--region", "star", "--c", "0.9", "--field-h", "10"]),
        # negative values written with an exponent, inf or nan
        ("neg-j-exponent", ["sweep", "--n", "3", "--c-steps", "1", "--j", "-1e-3"]),
        ("neg-j-exponent-equals", ["sweep", "--n", "3", "--c-steps", "1", "--j=-1e-3"]),
        ("neg-j-exponent-spectrum", [*spectrum4, "--j", "-2e0"]),
        ("neg-c-min-exponent", ["sweep", "--n", "3", "--c-min", "-1e-3"]),
        ("neg-j-inf", ["sweep", "--n", "3", "--c-steps", "1", "--j", "-inf"]),
        ("neg-ghz-c-exponent", ["ghz", "--c", "-1e-3"]),
        ("neg-ghz-field-exponent", ["ghz", "--field-h", "-1e-3"]),
    )]
    cases += [(f"help-{name or 'main'}", [*filter(None, [name]), "--help"], {})
              for name in ("", "sweep", "spectrum", "ghz", "verify-n4")]
    cases += [("umask-077", [*sweep4, "--out", "out.csv"], {"umask": 0o077}),
              ("threads-bad", ["verify-n4"], {"env": {"SPINWEB_THREADS": "0"}})]
    return cases


def run_case(outdir: Path, name: str, argv: list, extra: dict) -> None:
    """Run one case in ``outdir/name`` and leave its captured output there."""
    where = outdir / name
    where.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1",
           "SPINWEB_THREADS": "1", "COLUMNS": "80", **extra.get("env", {})}
    proc = subprocess.run([sys.executable, "-m", "spinweb.cli", *argv], cwd=where,
                          env=env, capture_output=True, umask=extra.get("umask", 0o022))
    written = sorted(p for p in where.rglob("*") if p.is_file())
    (where / "stdout").write_bytes(proc.stdout)
    (where / "stderr").write_bytes(proc.stderr)
    (where / "status").write_text(f"exit {proc.returncode}\n" + "".join(
        f"{p.relative_to(where)} {p.stat().st_mode & 0o777:o}\n" for p in written))
    for path in written + [where / f for f in CAPTURED]:
        path.write_bytes(TIMESTAMP.sub(b"", path.read_bytes()))


#: Columns compared exactly: labels and degeneracies.
EXACT = ("label", "label_from", "label_to", "deg")
CSV_HEADER = re.compile(r"[A-Za-z_]\w*(,[A-Za-z_]\w*)+")


def _tolerances() -> dict:
    """Column -> absolute tolerance, from ``perfbench/check.py``; a column not
    named is an observable."""
    spec = importlib.util.spec_from_file_location("perfbench_check", CHECK)
    check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check)
    tolerances = {"": check.OBSERVABLE_TOL}
    for tol, columns in ((check.GRID_TOL, ("c", "flagged_intervals")),
                         (check.ENERGY_TOL, ("E0", "energy", "low_energies", "min_gap")),
                         (check.CROSSING_TOL, ("c_lo", "c_hi", "region_bounds",
                                               "intermediate_region"))):
        tolerances.update(dict.fromkeys(columns, tol))
    return tolerances


class Comparison:
    """The differences between two output directories and the largest
    deviation of each column."""

    def __init__(self):
        self.tolerances = _tolerances()
        self.largest: dict[str, tuple[float, str]] = {}
        self.differences: list[str] = []

    def value(self, where: str, column: str, a, b) -> None:
        """Compare two leaves: numbers within the column's tolerance (labels and
        degeneracies exactly), anything else exactly."""
        if column in EXACT or isinstance(a, (str, bool)) or a is None \
                or isinstance(b, (str, bool)) or b is None:
            if a != b:
                self.differences.append(f"{where}: {a!r} != {b!r}")
            return
        a, b = float(a), float(b)
        deviation = 0.0 if a == b or (math.isnan(a) and math.isnan(b)) else abs(a - b)
        if deviation >= self.largest.get(column, (-1.0, ""))[0]:
            self.largest[column] = (deviation, where)
        tol = self.tolerances.get(column, self.tolerances[""])
        if not deviation <= tol:
            self.differences.append(f"{where}: {a!r} != {b!r} (tolerance {tol:g})")

    def tree(self, where: str, column: str, a, b) -> None:
        """Compare two JSON values: keys and lengths exactly, leaves by ``value``;
        a leaf's column is the nearest key above it."""
        if isinstance(a, dict) and isinstance(b, dict):
            if a.keys() != b.keys():
                self.differences.append(f"{where}: keys {sorted(a.keys() - b.keys())} only in "
                                        f"the first, {sorted(b.keys() - a.keys())} only in the second")
            for key in a.keys() & b.keys():
                self.tree(f"{where}.{key}", key, a[key], b[key])
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self.differences.append(f"{where}: {len(a)} items != {len(b)}")
            for i, (x, y) in enumerate(zip(a, b)):
                self.tree(f"{where}[{i}]", column, x, y)
        elif isinstance(a, (dict, list)) or isinstance(b, (dict, list)):
            self.differences.append(f"{where}: {type(a).__name__} != {type(b).__name__}")
        else:
            self.value(where, column, a, b)

    def levels(self, where: str, a: list, b: list) -> None:
        """Compare two ``spectrum`` level lists of (label, c, energy) point by
        point, each point's levels in energy order, so a moved label is named."""
        def by_point(rows):
            points = {}
            for label, c, energy in rows:
                points.setdefault(float(c), []).append((float(energy), str(label)))
            return [(c, sorted(levels)) for c, levels in points.items()]

        a, b = by_point(a), by_point(b)
        if len(a) != len(b):
            self.differences.append(f"{where}: {len(a)} grid points != {len(b)}")
        for (c, x), (c_b, y) in zip(a, b):
            self.value(f"{where} c={c}", "c", c, c_b)
            if len(x) != len(y):
                self.differences.append(f"{where} c={c}: {len(x)} levels != {len(y)}")
            for (e, label), (e_b, label_b) in zip(x, y):
                self.value(f"{where} c={c} energy", "energy", e, e_b)
                if label != label_b:
                    self.differences.append(f"{where} c={c}: the level at E={e!r} has "
                                            f"label {label} != {label_b}")

    def file(self, where: str, a: bytes, b: bytes) -> None:
        """Compare two files by their kind: JSON, CSV, or bytes."""
        kind = _kind(a)
        if where.endswith(("/status", "/stderr")) or kind != _kind(b) or kind == "bytes":
            if a != b:
                self.differences.append(f"{where}: bytes differ")
        elif kind == "json":
            a, b = json.loads(a), json.loads(b)
            if all(isinstance(x, dict) and isinstance(x.get("records"), dict) for x in (a, b)):
                self.levels(f"{where} records", *([(label, p["c"], p["energy"])
                                                    for label, points in x.pop("records").items()
                                                    for p in points] for x in (a, b)))
            self.tree(where, "", a, b)
        else:
            (head, *rows), (head_b, *rows_b) = (list(csv.reader(io.StringIO(x.decode())))
                                                for x in (a, b))
            if head != head_b:
                self.differences.append(f"{where}: columns {head} != {head_b}")
            elif head == ["label", "c", "energy"]:
                self.levels(where, rows, rows_b)
            else:
                if len(rows) != len(rows_b):
                    self.differences.append(f"{where}: {len(rows)} rows != {len(rows_b)}")
                for i, (row, row_b) in enumerate(zip(rows, rows_b)):
                    for column, x, y in zip(head, row, row_b):
                        x, y = (_number(v) if column not in EXACT else v for v in (x, y))
                        self.value(f"{where} row {i + 1} {column}", column, x, y)

    def report(self) -> str:
        lines = ["largest deviation per column:"]
        lines += [f"  {column:<22} {deviation:.3g}  ({where})"
                  for column, (deviation, where) in sorted(self.largest.items())]
        lines.append(f"{len(self.differences)} differences" + (":" if self.differences else ""))
        return "\n".join(lines + [f"  {x}" for x in self.differences]) + "\n"


def _number(text: str):
    """A CSV cell as a float, None when empty, else the text itself."""
    try:
        return float(text) if text else None
    except ValueError:
        return text


def _kind(data: bytes) -> str:
    """'json', 'csv' (a header of comma-separated names) or 'bytes'."""
    if data.startswith(b"{"):
        try:
            json.loads(data)
            return "json"
        except ValueError:
            return "bytes"
    head = data.split(b"\n", 1)[0].decode(errors="replace")
    return "csv" if CSV_HEADER.fullmatch(head) else "bytes"


def compare(a: Path, b: Path) -> Comparison:
    """Compare every file of the output directories ``a`` and ``b``."""
    result = Comparison()
    names = ({p.relative_to(a) for p in a.rglob("*") if p.is_file()},
             {p.relative_to(b) for p in b.rglob("*") if p.is_file()})
    for name in sorted(names[0] ^ names[1]):
        result.differences.append(f"{name}: only in {a if name in names[0] else b}")
    for name in sorted(names[0] & names[1]):
        result.file(str(name), (a / name).read_bytes(), (b / name).read_bytes())
    return result


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 3 and args[0] == "--compare":
        result = compare(Path(args[1]), Path(args[2]))
        sys.stdout.write(result.report())
        return 1 if result.differences else 0
    if len(args) != 1:
        sys.stderr.write(__doc__)
        return 2
    outdir = Path(args[0])
    if outdir.exists() and any(outdir.iterdir()):
        sys.stderr.write(f"error: {outdir} is not empty\n")
        return 2
    for name, argv, extra in _cases():
        run_case(outdir, name, argv, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
