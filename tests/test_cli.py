"""Command-line interface: exit codes, file formats, determinism."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import spinweb
from spinweb.cli import main


def run_cli(*argv):
    return main(list(argv))


# source root of the spinweb under test; children get it on PYTHONPATH so they
# import it whether or not the package is installed
SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(spinweb.__file__)))


def child_env():
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": SRC_ROOT + (os.pathsep + path if path else "")}


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_usage_error_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "spinweb.cli", "sweep", "--n", "not-a-number"],
        capture_output=True, env=child_env())
    assert proc.returncode == 2


def test_missing_subcommand_exits_2():
    proc = subprocess.run([sys.executable, "-m", "spinweb.cli"],
                          capture_output=True, env=child_env())
    assert proc.returncode == 2


@pytest.mark.parametrize("extra, code", [
    (["--pairs", "1-2"], 2),
    (["--pairs", "1:x"], 2),
    (["--pairs", "1:2:3"], 2),
    (["--c-steps", "-1"], 2),
    (["--refs", "ring-eps=abc"], 3),
    (["--refs", "ring,ring-eps"], 3),
    (["--c-steps", "0"], 0),
])
def test_bad_sweep_input_exits_with_code_not_traceback(extra, code):
    proc = subprocess.run(
        [sys.executable, "-m", "spinweb.cli", "sweep", "--n", "3",
         "--c-steps", "2", *extra],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code == 3:
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1


def test_resource_guard_exits_4(capsys):
    assert run_cli("sweep", "--n", "99", "--c-steps", "2") == 4
    assert "resource guard" in capsys.readouterr().err


def test_domain_error_exits_3(capsys):
    # a descending grid is a domain error, not a usage error
    code = run_cli("sweep", "--n", "4", "--c-min", "0.8", "--c-max", "0.2",
                   "--c-steps", "4")
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_unknown_reference_exits_3():
    assert run_cli("sweep", "--n", "4", "--c-steps", "2",
                   "--refs", "bogus") == 3


def test_output_files_follow_umask(tmp_path):
    out = tmp_path / "report.txt"
    for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
        old = os.umask(umask)
        try:
            assert run_cli("verify-n4", "--out", str(out)) == 0
        finally:
            os.umask(old)
        assert out.stat().st_mode & 0o777 == mode


def test_success_exits_0(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--n", "3", "--c-steps", "4",
                   "--out", str(out)) == 0
    assert out.exists()


# ---------------------------------------------------------------------------
# Sweep output
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "sweep.csv"
    code = main(["sweep", "--n", "4", "--c-steps", "10", "--out", str(out)])
    assert code == 0
    return out


def test_sweep_csv_columns_and_values(sweep_csv):
    with open(sweep_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 11
    assert "O_p" not in rows[0]  # no ansatz reference requested
    # values survive the text round trip exactly
    from spinweb import SweepConfig, run_sweep
    records = run_sweep(SweepConfig(n_outer=4, c_grid=np.linspace(0, 1, 11)))
    for row, rec in zip(rows, records):
        assert float(row["c"]) == rec.c
        assert float(row["E0"]) == rec.ground_energy
        assert int(row["deg"]) == rec.ground_degeneracy
        assert float(row["C_nn"]) == rec.C_nn
        assert float(row["ZZ_nnn"]) == rec.ZZ_nnn
        assert float(row["O_r"]) == rec.O_r


def test_sweep_sidecar_files(sweep_csv):
    crossings = sweep_csv.with_name(sweep_csv.name + ".crossings.csv")
    manifest = sweep_csv.with_name(sweep_csv.name + ".manifest.json")
    assert crossings.exists() and manifest.exists()

    with open(crossings, newline="") as fh:
        xrows = list(csv.DictReader(fh))
    assert len(xrows) == 2  # two ground-level changes for four outer spins
    assert 0.5 < float(xrows[0]["c_lo"]) < float(xrows[1]["c_lo"]) < 0.8

    meta = json.loads(manifest.read_text())
    assert meta["command"] == "sweep"
    assert meta["config"]["n"] == 4
    assert len(meta["input_hash"]) == 64


def test_sweep_json_payload(tmp_path):
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--n", "3", "--c-steps", "4", "--format", "json",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"manifest", "records", "crossings", "reports"}
    assert len(payload["records"]) == 5
    assert payload["records"][0]["O_p"] is None
    assert payload["manifest"]["config"]["format"] == "json"


def test_sweep_deterministic_across_runs(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["sweep", "--n", "4", "--c-steps", "6",
                     "--out", str(out)]) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]


def test_sweep_custom_pairs(tmp_path):
    out = tmp_path / "pairs.csv"
    assert main(["sweep", "--n", "5", "--c-steps", "2", "--pairs", "2:3,2:4",
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    from spinweb import SweepConfig, run_sweep
    records = run_sweep(SweepConfig(n_outer=5, c_grid=np.linspace(0, 1, 3),
                                    nn_pair=(2, 3), nnn_pair=(2, 4)))
    for row, rec in zip(rows, records):
        assert float(row["C_nn"]) == rec.C_nn
        assert float(row["C_nnn"]) == rec.C_nnn


# ---------------------------------------------------------------------------
# Spectrum
# ---------------------------------------------------------------------------

def test_spectrum_json(tmp_path):
    out = tmp_path / "spec.json"
    assert main(["spectrum", "--n", "4", "--c-steps", "20",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["crossings"]) == 2
    x = payload["crossings"][0]
    assert x["c_hi"] - x["c_lo"] <= 1e-6
    assert x["min_gap"] < 1e-4
    # each tracked level is a list of (c, energy) points
    some_level = next(iter(payload["records"].values()))
    assert {"c", "energy"} <= set(some_level[0])


def test_spectrum_single_level_skips_crossing_analysis(tmp_path):
    out = tmp_path / "spec1.json"
    assert main(["spectrum", "--n", "4", "--c-steps", "4", "--levels", "1",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["crossings"] == []
    assert "no crossing analysis" in payload["reports"]["note"]
    assert len(payload["records"]) == 5


def test_spectrum_csv(tmp_path):
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--n", "4", "--c-steps", "4", "--format", "csv",
                 "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == "label,c,energy"


# ---------------------------------------------------------------------------
# GHZ report and the N=4 verification command
# ---------------------------------------------------------------------------

def test_ghz_report(tmp_path):
    out = tmp_path / "ghz.json"
    assert main(["ghz", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    reports = payload["reports"]
    assert reports["region"] == "intermediate"
    lo, hi = reports["intermediate_region"]
    assert lo < 0.7 < hi
    outcomes = {o["outcome"]: o for o in reports["outcomes"]}
    assert 0.25 <= outcomes["D_state"]["probability"] <= 0.36
    for s in outcomes["D_state"]["bipartition_entropies"]:
        assert s == pytest.approx(1.0, abs=1e-8)


def test_ghz_star_region(tmp_path):
    out = tmp_path / "ghz_star.json"
    assert main(["ghz", "--region", "star", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    outcomes = {o["outcome"]: o for o in payload["reports"]["outcomes"]}
    assert outcomes["C_state"]["probability"] == pytest.approx(0.49, abs=0.03)


def test_ghz_out_of_region_exits_3():
    assert run_cli("ghz", "--c", "0.1") == 3


def test_verify_n4_passes(capsys):
    assert run_cli("verify-n4") == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
    assert all(ln.startswith("PASS") for ln in lines)
    assert len(lines) >= 30  # 28 action checks + endpoints + cross-checks


# ---------------------------------------------------------------------------
# Environment knob
# ---------------------------------------------------------------------------

def test_thread_knob_sets_blas_env():
    # The child gets a bare environment (no BLAS variables, so the knob is
    # what sets them) plus the source root of the spinweb under test, so it
    # imports spinweb whether or not the package is installed.  A meta-path
    # hook records the variables at the moment numpy is first imported: the
    # knob has to be in place before numpy loads its BLAS, for plain
    # ``import spinweb`` as well as ``import spinweb.cli``.
    env = {"PATH": "/usr/bin:/bin:/usr/local/bin", "PYTHONPATH": SRC_ROOT}
    for module in ("spinweb.cli", "spinweb"):
        code = (
            "import os, sys\n"
            "names = ('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS', 'MKL_NUM_THREADS')\n"
            "seen = []\n"
            "class Hook:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy' and not seen:\n"
            "            seen.append([os.environ.get(v) for v in names])\n"
            "sys.meta_path.insert(0, Hook())\n"
            "os.environ['SPINWEB_THREADS'] = '1'\n"
            f"import {module}\n"
            "print(*[os.environ[v] for v in names])\n"
            "print(*seen[0])\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        after_import, at_numpy_load = proc.stdout.splitlines()
        assert after_import.split() == ["1", "1", "1"]
        assert at_numpy_load.split() == ["1", "1", "1"], module
