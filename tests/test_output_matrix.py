"""``tools/output_matrix.py`` keeps what a command outputs, less its timestamps,
and compares two runs within the reference tolerances."""

import csv
import importlib.util
import json
import os
import shutil

from conftest import SRC_ROOT

SCRIPT = os.path.join(os.path.dirname(SRC_ROOT), "tools", "output_matrix.py")


def _matrix():
    spec = importlib.util.spec_from_file_location("output_matrix", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_case_keeps_its_output_files_and_modes_without_timestamps(tmp_path):
    matrix = _matrix()
    names = [name for name, _, _ in matrix._cases()]
    assert len(names) == len(set(names))
    matrix.run_case(tmp_path, "ghz-out", ["ghz", "--out", "ghz.json"], {})
    where = tmp_path / "ghz-out"
    assert (where / "status").read_text() == "exit 0\nghz.json 644\n"
    assert (where / "stdout").read_bytes() == (where / "stderr").read_bytes() == b""
    text = (where / "ghz.json").read_text()
    assert '"timestamp"' not in text
    assert json.loads(text)["manifest"]["command"] == "ghz"
    assert matrix.main([str(tmp_path)]) == 2  # refuses a directory that is not empty


def _edit_csv(path, row, column, change):
    """Rewrite one cell of a CSV file with ``change(text)``."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row][rows[0].index(column)] = change(rows[row][rows[0].index(column)])
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(",".join(r) for r in rows) + "\n")


def test_compare_applies_the_reference_tolerances_and_names_labels(tmp_path, capsys):
    matrix = _matrix()
    first, second = tmp_path / "first", tmp_path / "second"
    for name, argv in (("sweep", ["sweep", "--n", "4", "--c-steps", "10", "--out", "out.csv"]),
                       ("spectrum", ["spectrum", "--n", "4", "--c-steps", "10"])):
        matrix.run_case(first, name, argv, {})
    shutil.copytree(first, second)
    assert matrix.main(["--compare", str(first), str(second)]) == 0
    assert capsys.readouterr().out.endswith("0 differences\n")

    records = second / "sweep" / "out.csv"
    _edit_csv(records, 3, "C_nn", lambda x: repr(float(x) + 1e-10))  # within 1e-8
    assert matrix.main(["--compare", str(first), str(second)]) == 0
    assert "  C_nn " in capsys.readouterr().out
    _edit_csv(records, 3, "C_nn", lambda x: repr(float(x) + 1e-6))  # beyond it
    assert matrix.main(["--compare", str(first), str(second)]) == 1
    out = capsys.readouterr().out
    assert "1 differences:\n  sweep/out.csv row 3 C_nn: " in out and "(tolerance 1e-08)" in out

    shutil.copy(first / "sweep" / "out.csv", records)
    _edit_csv(str(records) + ".crossings.csv", 1, "label_to", lambda x: str(int(x) + 1))
    assert matrix.main(["--compare", str(first), str(second)]) == 1
    assert "sweep/out.csv.crossings.csv row 1 label_to: '2' != '3'" in capsys.readouterr().out

    # a spectrum level that changes its label is named by its grid point and energy
    shutil.copy(first / "sweep" / "out.csv.crossings.csv", str(records) + ".crossings.csv")
    levels = second / "spectrum" / "stdout"
    payload = json.loads(levels.read_text())
    payload["records"]["9"] = payload["records"].pop("0")
    levels.write_text(json.dumps(payload, indent=2) + "\n")
    assert matrix.main(["--compare", str(first), str(second)]) == 1
    out = capsys.readouterr().out
    assert "spectrum/stdout records c=0.0: the level at E=" in out and "label 0 != 9" in out
    # the help text and status are compared byte for byte
    (second / "spectrum" / "status").write_text("exit 1\n")
    assert matrix.main(["--compare", str(first), str(second)]) == 1
    assert "spectrum/status: bytes differ" in capsys.readouterr().out
