"""Write what a fixed list of ``spinweb`` commands output, for a byte comparison.

    python tools/output_matrix.py OUTDIR

Each case runs ``python -m spinweb.cli`` from this checkout's ``src`` in a child
process, with ``SPINWEB_THREADS=1``, ``COLUMNS=80``, no bytecode written and
umask 022 unless the case sets another, in its own directory ``OUTDIR/<case>``.
There the case leaves ``stdout``, ``stderr``, ``status`` (the exit code, then
each file the command wrote with its mode) and those files themselves: ``--out``
files and their sidecars.  Every line holding a manifest ``timestamp`` is
removed from each file, so two runs of one tree give the same bytes.  To compare two trees, run this
script in each (copy it into a checkout that lacks it) and ``diff -r`` the two
output directories.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
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


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
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
