"""``tools/output_matrix.py`` keeps what a command outputs, less its timestamps."""

import importlib.util
import json
import os

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
