"""Command-line interface: exit codes, file formats, determinism."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinweb.cli import main

from conftest import SRC_ROOT, child_env


def run_cli(*argv):
    return main(list(argv))


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
    (["--j", "nan"], 3),
    (["--j", "inf"], 3),
    (["--j", "1e308"], 3),
    (["--levels", "0"], 3),
    (["--levels", "-3"], 3),
    (["--c-max", "inf"], 3),
    (["--c-min", "nan"], 3),
    (["--pairs", "1:2,1:3,2:4"], 2),
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


@pytest.mark.parametrize("argv", [
    ["spectrum", "--n", "3", "--c-steps", "2", "--j", "nan"],
    ["spectrum", "--n", "3", "--c-steps", "2", "--j", "inf"],
    ["ghz", "--field-h", "nan"],
    ["ghz", "--field-h", "0"],
    ["ghz", "--field-h", "-1"],
    ["spectrum", "--n", "3", "--c-steps", "2", "--c-max", "inf"],
    ["spectrum", "--n", "3", "--levels", "1", "--c-min", "0.9", "--c-max", "0.1"],
    ["ghz", "--field-h", "1e308"],
])
def test_non_finite_coupling_exits_3(argv):
    proc = subprocess.run([sys.executable, "-m", "spinweb.cli", *argv],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1


_ODD_FLOATS = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -1.0, 1e308]),
    st.floats())


def _mostly(valid):
    """Mostly ``valid`` (three branches of four), so some runs pass validation."""
    return st.one_of(valid, valid, valid, _ODD_FLOATS)


_REF_TOKENS = ["ring", "star", "ansatz", "ring-eps", "ring-eps=0.05",
               "ring-eps=abc", "ring-eps=nan", "bogus", ""]


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(["sweep", "spectrum", "ghz"]),
       n=st.one_of(st.integers(-3, 4), st.sampled_from([13, 20000])),
       steps=st.integers(0, 3), j=_mostly(st.floats(-2.0, 2.0)),
       c_min=_mostly(st.floats(0.0, 1.0)), c_max=_mostly(st.floats(0.0, 1.0)),
       levels=st.integers(-3, 8), refs=st.lists(st.sampled_from(_REF_TOKENS), max_size=3),
       c=_mostly(st.floats(0.0, 1.0)), field_h=_mostly(st.floats(1e-6, 1e-2)),
       region=st.sampled_from(["intermediate", "star"]))
def test_cli_exit_code_is_documented_for_any_input(command, n, steps, j, c_min, c_max,
                                                   levels, refs, c, field_h, region):
    if command == "ghz":
        argv = [command, f"--c={c!r}", f"--j={j!r}", f"--field-h={field_h!r}",
                f"--region={region}"]
    else:
        argv = [command, f"--n={n}", f"--c-steps={steps}", f"--j={j!r}",
                f"--c-min={c_min!r}", f"--c-max={c_max!r}", f"--levels={levels}"]
    if command == "sweep":
        argv.append("--refs=" + ",".join(refs))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 2, 3, 4)
    assert err.getvalue().count("\n") <= 1, err.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_resource_guard_exits_4(capsys):
    for n in ("13", "20000", "99"):
        assert run_cli("sweep", "--n", n, "--c-steps", "2") == 4
        err = capsys.readouterr().err
        assert err.startswith("resource guard: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["sweep", "spectrum"])
@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_too_few_spins_exit_3(command, n, capsys):
    assert run_cli(command, "--n", n, "--c-steps", "2") == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1, out.err


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


@pytest.mark.parametrize("command", [["sweep", "--n", "3", "--c-steps", "1"],
                                     ["verify-n4"]])
@pytest.mark.parametrize("target", ["missing/x.out", "existing-dir"])
def test_unwritable_out_exits_2(command, target, tmp_path, capsys):
    (tmp_path / "existing-dir").mkdir()
    out = tmp_path / target
    with pytest.raises(SystemExit) as exc:  # as argparse exits on a bad file argument
        main([*command, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1, err
    assert not list(tmp_path.rglob(".spinweb-*"))


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


def test_sweep_solves_each_grid_point_once(monkeypatch):
    from spinweb import cli, spectral, sweep
    solved = []
    original = spectral.solve

    def counted(system, J, c, **kwargs):
        solved.append(c)
        return original(system, J, c, **kwargs)

    for module in (spectral, cli, sweep):
        monkeypatch.setattr(module, "solve", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sweep", "--n", "4", "--c-min", "0.1", "--c-max", "0.9",
                     "--c-steps", "8", "--refs", "ring,star"]) == 0
    # the references solve c = 0 and 1, bisection midpoints fall between grid values
    for c in np.linspace(0.1, 0.9, 9):
        assert solved.count(c) == 1, c


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


@pytest.mark.parametrize("levels", ["0", "-2"])
def test_spectrum_rejects_nonpositive_levels(levels, capsys):
    assert main(["spectrum", "--n", "3", "--c-steps", "2", "--levels", levels]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: --levels must be >= 1, got {levels}\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_spectrum_one_point_grid(tmp_path, fmt):
    out = tmp_path / f"spec0.{fmt}"
    assert main(["spectrum", "--n", "4", "--c-steps", "0", "--c-min", "0.3",
                 "--format", fmt, "--out", str(out)]) == 0
    if fmt == "json":
        payload = json.loads(out.read_text())
        assert payload["crossings"] == []
        assert payload["records"]
        for points in payload["records"].values():
            assert [p["c"] for p in points] == [0.3]
    else:
        rows = out.read_text().splitlines()[1:]
        assert rows and all(row.split(",")[1] == "0.3" for row in rows)
        crossings = out.with_name(out.name + ".crossings.csv").read_text()
        assert crossings.splitlines() == ["c_lo,c_hi,label_from,label_to,min_gap"]


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


def test_second_ghz_makes_only_its_own_solves(monkeypatch, tmp_path):
    from spinweb import cli, n4, spectral
    solved = []
    original = spectral.solve

    def counted(system, J, c, **kwargs):
        solved.append(c)
        return original(system, J, c, **kwargs)

    for module in (spectral, cli, n4):
        monkeypatch.setattr(module, "solve", counted)
    n4._regions.cache_clear()
    assert main(["ghz", "--out", str(tmp_path / "a.json")]) == 0
    assert len(solved) > 200  # the region bounds: a 201-point track plus bisection
    solved.clear()
    assert main(["ghz", "--j", "1.7", "--out", str(tmp_path / "b.json")]) == 0
    c = json.loads((tmp_path / "b.json").read_text())["manifest"]["config"]["c"]
    assert solved == [c]


@pytest.mark.parametrize("j", ["0", "-1"])
def test_ghz_needs_positive_coupling(j, capsys):
    assert run_cli("ghz", "--j", j) == 3
    err = capsys.readouterr().err
    assert err == f"error: N=4 region detection needs J > 0, got {float(j)}\n"


def test_verify_n4_passes(capsys):
    assert run_cli("verify-n4") == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
    assert all(ln.startswith("PASS") for ln in lines)
    assert len(lines) >= 30  # 28 action checks + endpoints + cross-checks


# ---------------------------------------------------------------------------
# Environment knob
# ---------------------------------------------------------------------------

def test_cli_import_loads_no_scipy():
    # scipy costs most of the CLI's start-up time and the sweep path needs none
    env = {"PATH": "/usr/bin:/bin:/usr/local/bin", "PYTHONPATH": SRC_ROOT}
    code = "import sys, spinweb.cli\nprint('scipy' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
