"""Command-line interface: exit codes, file formats, determinism."""

import contextlib
import csv
import dataclasses
import inspect
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

from conftest import bare_env, child_env


def run_cli(*argv):
    return main(list(argv))


def count_grid_solves(monkeypatch):
    """The list of every c that reaches ``spectral._grid_chunks`` (``solve``, its
    one-point case, solves through it), patched in each module that binds it."""
    from spinweb import cli, spectral, sweep
    solved = []
    original = spectral._grid_chunks

    def counted(system, J, cs):
        cs = np.asarray(cs, dtype=float).ravel()
        solved.extend(cs.tolist())
        return original(system, J, cs)

    for module in (cli, spectral, sweep):
        monkeypatch.setattr(module, "_grid_chunks", counted)
    return solved


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


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    from spinweb.cli import build_parser
    assert build_parser() is build_parser()
    assert main(["sweep", "--n", "3", "--c-steps", "2", "--out", str(tmp_path / "a.csv")]) == 0
    for argv, code in ((["sweep", "--n", "3", "--pairs", "1-2"], 2), (["sweep"], 2),
                       (["spectrum", "--help"], 0)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code, argv
    assert "usage: spinweb spectrum" in capsys.readouterr().out
    # the failed parses left no state behind: the same run gives the same file
    assert main(["sweep", "--n", "3", "--c-steps", "2", "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_cli_defaults_are_the_library_defaults():
    from spinweb import n4
    from spinweb.cli import _parse_refs, _system_and_grid, build_parser
    from spinweb.spectral import track_levels
    from spinweb.sweep import SweepConfig, default_c_grid

    def default(func, name):
        return inspect.signature(func).parameters[name].default

    library = {f.name: f.default for f in dataclasses.fields(SweepConfig)}
    sweep = build_parser().parse_args(["sweep", "--n", "4"])
    spectrum = build_parser().parse_args(["spectrum", "--n", "4"])
    ghz = build_parser().parse_args(["ghz"])
    assert sweep.levels == library["n_levels"]
    assert spectrum.levels == default(track_levels, "n_levels")
    assert _parse_refs("ring-eps")[1] == library["ring_eps"]
    assert _parse_refs(sweep.refs) == (library["references"], library["ring_eps"])
    for protocol in (n4.ghz_protocol, n4.star_region_protocol):
        assert ghz.field_h == default(protocol, "field_h")
    for args in (sweep, spectrum):
        np.testing.assert_array_equal(_system_and_grid(args)[1], default_c_grid())


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
    (["--pairs", "1:99"], 3),
    (["--pairs", "1:1"], 3),
    (["--pairs", "nnn"], 2),
    (["--pairs", "nnn,nn"], 2),
    (["--pairs", "1:3,nn"], 2),
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


@pytest.mark.parametrize("extra, message", [
    (["--c-min", "0.6", "--c-max", "0.4", "--c-steps", "2"],
     "--c-min must be below --c-max when --c-steps > 0, got 0.6 and 0.4"),
    (["--c-min", "0.5", "--c-max", "0.5", "--c-steps", "3"],
     "--c-min must be below --c-max when --c-steps > 0, got 0.5 and 0.5"),
    (["--c-steps", "2", "--refs", "ring-eps=2"], "ring_eps must lie in [0, 1], got 2.0"),
    (["--c-steps", "2", "--refs", "ring-eps=nan"], "ring_eps must lie in [0, 1], got nan"),
    (["--c-steps", "2", "--refs", "ring-eps=-0.1"], "ring_eps must lie in [0, 1], got -0.1"),
    (["--c-steps", "2", "--levels", "0"], "--levels must be >= 1, got 0"),
    (["--c-min", "-1e-3"], "--c-min and --c-max must lie in [0, 1], got -0.001 and 1.0"),
])
def test_bad_sweep_input_names_what_the_user_typed(extra, message):
    proc = subprocess.run([sys.executable, "-m", "spinweb.cli", "sweep", "--n", "4", *extra],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["spectrum", "--n", "3", "--c-steps", "2", "--j", "nan"],
    ["spectrum", "--n", "3", "--c-steps", "2", "--j", "inf"],
    ["ghz", "--field-h", "nan"],
    ["ghz", "--field-h", "0"],
    ["ghz", "--field-h", "-1"],
    ["spectrum", "--n", "3", "--c-steps", "2", "--c-max", "inf"],
    ["spectrum", "--n", "3", "--levels", "1", "--c-min", "0.9", "--c-max", "0.1"],
    ["ghz", "--field-h", "1e308"],
    ["ghz", "--field-h", "1e-300"],  # a split below float resolution at E0
    ["sweep", "--n", "4", "--c-steps", "4", "--j", "5e-324"],  # subnormal J
    ["spectrum", "--n", "3", "--c-steps", "2", "--j", "-1e-310"],
    ["sweep", "--n", "3", "--c-steps", "1", "--j", "-inf"],
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
def test_huge_grid_exits_4_before_allocating(monkeypatch, capsys, command):
    def refuse(*args, **kwargs):
        raise AssertionError("the grid was allocated")

    monkeypatch.setattr(np, "linspace", refuse)
    assert run_cli(command, "--n", "4", "--c-steps", str(10 ** 12)) == 4
    err = capsys.readouterr().err
    assert err.startswith("resource guard: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["sweep", "spectrum"])
def test_grid_guard_charges_each_group_of_eight_levels(monkeypatch, capsys, command):
    from spinweb import cli, spectral, sweep

    def refuse(*args, **kwargs):
        raise AssertionError("the grid reached the solver")

    for module in (cli, spectral, sweep):
        monkeypatch.setattr(module, "_grid_chunks", refuse)
    # 256 levels of N = 7 (dim 256) are 32 groups at 4 KiB a point: 8,191 steps
    # fit in 1 GiB; 8 levels or fewer keep the 262,143 steps of one group
    for levels, steps in (("256", 8191), ("8", 262143)):
        with pytest.raises(AssertionError, match="reached the solver"):
            run_cli(command, "--n", "7", "--levels", levels, "--c-steps", str(steps))
    # a level count below 1 passes the guard as one group, to its own check
    assert run_cli(command, "--n", "7", "--levels", "-1", "--c-steps", "262143") == 3
    capsys.readouterr()
    for levels, steps in (("256", 8192), ("256", 100000), ("9", 131072)):
        assert run_cli(command, "--n", "7", "--levels", levels, "--c-steps", str(steps)) == 4
        err = capsys.readouterr().err
        assert err.startswith("resource guard: ") and err.count("\n") == 1, err
        assert f"--levels {levels} " in err, err


@pytest.mark.parametrize("command", ["sweep", "spectrum"])
@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_too_few_spins_exit_3(command, n, capsys):
    assert run_cli(command, "--n", n, "--c-steps", "2") == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1, out.err


@pytest.mark.parametrize("command", ["sweep", "spectrum"])
def test_one_outer_spin_names_the_ring(command, capsys):
    assert run_cli(command, "--n", "1") == 3
    assert capsys.readouterr().err == "error: a ring needs n_outer >= 2, got 1\n"


def test_domain_error_exits_3(capsys):
    # a descending grid is a domain error, not a usage error
    code = run_cli("sweep", "--n", "4", "--c-min", "0.8", "--c-max", "0.2",
                   "--c-steps", "4")
    assert code == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spectrum", "sweep"])
@pytest.mark.parametrize("levels", [[], ["--levels", "1"]])
def test_grid_that_linspace_collapses_exits_3(command, levels, capsys):
    # one ulp between --c-min and --c-max: linspace repeats values, and on the
    # spectrum --levels 1 path the flags' grid check is the only one to see it
    assert run_cli(command, "--n", "3", "--c-min", "0.5", "--c-max", "0.5000000000000001",
                   "--c-steps", "10", *levels) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: c_grid must be strictly increasing\n"


def test_unknown_reference_exits_3():
    assert run_cli("sweep", "--n", "4", "--c-steps", "2",
                   "--refs", "bogus") == 3


def test_negative_value_with_an_exponent_follows_its_flag(tmp_path):
    # argparse's own pattern reads only plain decimals like -0.5 as numbers
    outs = []
    for name, j in (("spaced.csv", ["--j", "-1e-3"]), ("joined.csv", ["--j=-1e-3"])):
        out = tmp_path / name
        assert run_cli("sweep", "--n", "3", "--c-steps", "1", *j, "--out", str(out)) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_writing_a_file_leaves_the_umask_alone(tmp_path, monkeypatch):
    def refuse(mask):
        raise AssertionError("the process umask was changed")

    monkeypatch.setattr(os, "umask", refuse)
    out = tmp_path / "report.txt"
    assert run_cli("verify-n4", "--out", str(out)) == 0
    assert out.read_text().startswith("PASS")


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


def test_sweep_csv_columns_and_values(sweep_csv, tmp_path):
    from spinweb import SpinSystem, SweepConfig, run_sweep, spectral
    # N = 8 on 41 points: the records of two solve chunks
    assert next(spectral._grid_chunks(SpinSystem(8, has_central=True), 1.0,
                                      np.linspace(0, 1, 41))).c.size < 41
    multi_chunk = tmp_path / "n8.csv"
    assert main(["sweep", "--n", "8", "--c-steps", "40", "--out", str(multi_chunk)]) == 0
    for out, n_outer, points in ((sweep_csv, 4, 11), (multi_chunk, 8, 41)):
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == points
        assert "O_p" not in rows[0]  # no ansatz reference requested
        # values survive the text round trip exactly
        records = run_sweep(SweepConfig(n_outer=n_outer, c_grid=np.linspace(0, 1, points)))
        for row, rec in zip(rows, records):
            assert float(row["c"]) == rec.c
            assert float(row["E0"]) == rec.ground_energy
            assert int(row["deg"]) == rec.ground_degeneracy
            for name in ("C_nn", "C_nnn", "XX_nn", "XX_nnn", "ZZ_nn", "ZZ_nnn", "O_r", "O_s"):
                assert float(row[name]) == getattr(rec, name), (rec.c, name)


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


def test_sweep_and_crossing_layouts_are_their_types_fields(sweep_csv, tmp_path):
    from dataclasses import fields
    from spinweb.sweep import SweepRecord
    short = {"ground_energy": "E0", "ground_degeneracy": "deg"}
    keys = [short.get(f.name, f.name) for f in fields(SweepRecord)]
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--n", "4", "--c-steps", "10", "--format", "json",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert [list(r) for r in payload["records"]] == [keys] * 11
    columns = [k for k in keys if k != "low_energies"]
    assert sweep_csv.read_text().splitlines()[0].split(",") == columns[:-1]  # no O_p
    with_p = tmp_path / "ansatz.csv"
    assert main(["sweep", "--n", "4", "--c-steps", "2", "--refs", "ansatz",
                 "--out", str(with_p)]) == 0
    assert with_p.read_text().splitlines()[0].split(",") == columns  # O_r, O_s empty
    header = sweep_csv.with_name(sweep_csv.name + ".crossings.csv").read_text().splitlines()[0]
    assert header == "c_lo,c_hi,label_from,label_to,min_gap"
    assert [list(x) for x in payload["crossings"]] == [header.split(",")] * 2


def test_sweep_deterministic_across_runs(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["sweep", "--n", "4", "--c-steps", "6",
                     "--out", str(out)]) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("pairs, nn, nnn", [
    ("2:3,2:4", (2, 3), (2, 4)),
    ("nn,nnn", (1, 2), (1, 3)),
    ("nn", (1, 2), (1, 3)),
    ("", (1, 2), (1, 3)),
    ("2:3", (2, 3), (1, 3)),
    ("nn,2:4", (1, 2), (2, 4)),
], ids=["2:3,2:4", "nn,nnn", "nn", "none", "2:3", "nn,2:4"])
def test_sweep_custom_pairs(tmp_path, pairs, nn, nnn):
    out = tmp_path / "pairs.csv"
    assert main(["sweep", "--n", "5", "--c-steps", "2", "--pairs", pairs,
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    from spinweb import SweepConfig, run_sweep
    records = run_sweep(SweepConfig(n_outer=5, c_grid=np.linspace(0, 1, 3),
                                    nn_pair=nn, nnn_pair=nnn))
    for row, rec in zip(rows, records):
        assert float(row["C_nn"]) == rec.C_nn
        assert float(row["C_nnn"]) == rec.C_nnn


def test_sweep_solves_each_grid_point_once(monkeypatch):
    solved = count_grid_solves(monkeypatch)
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


def test_crossing_narrower_than_the_bisection_width_has_a_finite_gap(tmp_path):
    out = tmp_path / "spec.json"
    assert main(["spectrum", "--n", "4", "--c-min", "0.5314208", "--c-max", "0.5314214",
                 "--c-steps", "1", "--out", str(out)]) == 0

    def reject(constant):
        raise ValueError(f"not standard JSON: {constant}")

    (x,) = json.loads(out.read_text(), parse_constant=reject)["crossings"]
    assert (x["c_lo"], x["c_hi"]) == (0.5314208, 0.5314214)
    assert x["min_gap"] < 1e-5


def test_spectrum_csv(tmp_path):
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--n", "4", "--c-steps", "4", "--format", "csv",
                 "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == "label,c,energy"


def _csv_cells(path):
    """The rows of a CSV file, each cell read as JSON reads a value; empty is None."""
    with open(path, newline="") as fh:
        return [{k: None if v == "" else json.loads(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]


@pytest.mark.parametrize("argv", [
    ["sweep", "--n", "5", "--c-steps", "20", "--refs", "ring,star,ansatz"],
    ["spectrum", "--n", "4", "--c-steps", "20", "--levels", "1"],
    ["spectrum", "--n", "4", "--c-steps", "20", "--levels", "4"],
])
def test_csv_and_json_report_the_same_run(tmp_path, argv):
    js, cs = tmp_path / "run.json", tmp_path / "run.csv"
    assert main([*argv, "--format", "json", "--out", str(js)]) == 0
    assert main([*argv, "--format", "csv", "--out", str(cs)]) == 0
    payload = json.loads(js.read_text())
    rows = _csv_cells(cs)
    if argv[0] == "sweep":
        assert len(rows) == len(payload["records"])
        for row, record in zip(rows, payload["records"]):
            for name, value in row.items():
                assert value == record[name] and type(value) is type(record[name]), name
    elif argv[-1] == "1":
        assert [r["label"] for r in rows] == [0] * len(rows)
        assert [{"c": r["c"], "energies": [r["energy"]]} for r in rows] == payload["records"]
    else:
        levels = {}
        for r in rows:
            levels.setdefault(str(r["label"]), []).append({"c": r["c"], "energy": r["energy"]})
        assert levels == payload["records"]
    assert _csv_cells(cs.with_name("run.csv.crossings.csv")) == payload["crossings"]
    manifest = json.loads(cs.with_name("run.csv.manifest.json").read_text())
    for meta in (manifest, payload["manifest"]):
        del meta["timestamp"], meta["input_hash"], meta["config"]["format"]
    assert manifest == payload["manifest"]


# ---------------------------------------------------------------------------
# The scale of J: the energies scale with it, every other output stays
# ---------------------------------------------------------------------------

_SCALES = (1e-10, 1e-6, 1e6)


def _json_run(tmp_path, *argv):
    out = tmp_path / "run.json"
    assert main([*argv, "--out", str(out)]) == 0
    return json.loads(out.read_text())


def _crossings(payload):
    """The crossings' labels and their (c_lo, c_hi) ends."""
    xs = payload["crossings"]
    return ([(x["label_from"], x["label_to"]) for x in xs],
            np.array([(x["c_lo"], x["c_hi"]) for x in xs]).reshape(-1, 2))


@pytest.mark.parametrize("n", [4, 5])
def test_sweep_and_spectrum_do_not_depend_on_the_scale_of_j(tmp_path, n):
    def run(command, j):
        extra = ["--refs", "ring,star,ansatz"] if command == "sweep" else []
        return _json_run(tmp_path, command, "--n", str(n), "--c-steps", "50", "--j", repr(j),
                         "--format", "json", *extra)

    sweep_at_1, spectrum_at_1 = run("sweep", 1.0), run("spectrum", 1.0)
    for j in _SCALES:
        sweep, spectrum = run("sweep", j), run("spectrum", j)
        assert len(sweep["records"]) == len(sweep_at_1["records"]) == 51
        for got, want in zip(sweep["records"], sweep_at_1["records"]):
            assert (got["c"], got["deg"]) == (want["c"], want["deg"]), j
            for name in ("C_nn", "C_nnn", "XX_nn", "XX_nnn", "ZZ_nn", "ZZ_nnn",
                         "O_r", "O_s", "O_p"):
                assert abs(got[name] - want[name]) <= 1e-8, (j, got["c"], name)
        for payload, at_1 in ((sweep, sweep_at_1), (spectrum, spectrum_at_1)):
            (labels, ends), (labels_at_1, ends_at_1) = _crossings(payload), _crossings(at_1)
            assert labels == labels_at_1, j
            np.testing.assert_allclose(ends, ends_at_1, rtol=0, atol=1e-6)
        assert ({label: [p["c"] for p in points] for label, points in spectrum["records"].items()}
                == {label: [p["c"] for p in points]
                    for label, points in spectrum_at_1["records"].items()}), j


@pytest.mark.parametrize("region", ["intermediate", "star"])
def test_ghz_does_not_depend_on_the_scale_of_j(tmp_path, region):
    def outcomes(j):  # the field scaled with J
        payload = _json_run(tmp_path, "ghz", "--region", region, "--j", repr(j),
                            "--field-h", repr(1e-3 * j))
        return [(o["outcome"], o["central_result"], o["probability"])
                for o in payload["reports"]["outcomes"]]

    at_1 = outcomes(1.0)
    for j in _SCALES:
        got = outcomes(j)
        assert [o[:2] for o in got] == [o[:2] for o in at_1], j
        np.testing.assert_allclose([o[2] for o in got], [o[2] for o in at_1],
                                   rtol=0, atol=1e-8)


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
    from dataclasses import fields
    from spinweb.n4 import GhzOutcome
    keys = [f.name for f in fields(GhzOutcome) if f.name != "post_state"]
    assert [list(o) for o in reports["outcomes"]] == [keys] * 2
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
    from spinweb import n4

    def refuse(*args, **kwargs):
        raise AssertionError("region detection formed eigenvectors")

    solved = count_grid_solves(monkeypatch)
    n4.detect_regions.cache_clear()
    with monkeypatch.context() as m:  # the region bounds come from block eigenvalues
        m.setattr(np.linalg, "eigh", refuse)
        n4.detect_regions()
    assert solved == []
    for name, j in (("a.json", "1.0"), ("b.json", "1.7")):
        assert main(["ghz", "--j", j, "--out", str(tmp_path / name)]) == 0
        c = json.loads((tmp_path / name).read_text())["manifest"]["config"]["c"]
        assert solved == [c]
        solved.clear()


@pytest.mark.parametrize("argv, solves, n_crossings", [
    (["sweep", "--n", "8", "--c-max", "0.5", "--c-steps", "2", "--refs", "ring,star"], 5, 1),
    (["spectrum", "--n", "4", "--c-steps", "50"], 51, 2),
    (["sweep", "--n", "6", "--c-steps", "10", "--refs", "ring,star"], 13, 1),
    (["spectrum", "--n", "4", "--c-steps", "2"], 3, 1),
])
def test_crossing_bisection_makes_no_solve(monkeypatch, tmp_path, argv, solves, n_crossings):
    solved = count_grid_solves(monkeypatch)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert len(solved) == solves  # one per grid point, plus the reference states
    if argv[0] == "sweep":
        found = len((tmp_path / "out.crossings.csv").read_text().splitlines()) - 1
    else:
        found = len(json.loads(out.read_text())["crossings"])
    assert found == n_crossings


@pytest.mark.parametrize("pairs", ["1:99", "1:1", "nn,4:4"])
def test_bad_pair_sites_are_rejected_before_any_solve(monkeypatch, capsys, pairs):
    solved = count_grid_solves(monkeypatch)
    assert main(["sweep", "--n", "12", "--c-steps", "0", "--pairs", pairs]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert solved == []


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


def test_verify_n4_checks_the_concurrences_sweep_reports(monkeypatch, capsys):
    from spinweb import sweep
    observables = sweep._rdm_observables

    def shifted(rdms):
        conc, xx, zz = observables(rdms)
        return conc + 1e-6, xx, zz

    monkeypatch.setattr(sweep, "_rdm_observables", shifted)
    assert run_cli("verify-n4") == 1
    failed = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("FAIL")]
    assert len(failed) == 5
    assert all(ln.startswith("FAIL  closed form vs pipeline at c=") for ln in failed)


def test_verify_n4_solves_each_hamiltonian_once(monkeypatch):
    from spinweb import n4
    solved = count_grid_solves(monkeypatch)
    n4._table_hamiltonian.cache_clear()
    assert run_cli("verify-n4") == 0
    # the action table's H_star (c = 1) and H_ring (c = 0), then the five grounds
    assert solved == [1.0, 0.0, 0.0, 0.2, 0.4, 0.9, 1.0]
    solved.clear()
    assert run_cli("verify-n4") == 0
    assert solved == [0.0, 0.2, 0.4, 0.9, 1.0]


# ---------------------------------------------------------------------------
# Environment knob
# ---------------------------------------------------------------------------

def test_cli_import_loads_no_scipy():
    # scipy costs most of the CLI's start-up time and the sweep path needs none
    code = "import sys, spinweb.cli\nprint('scipy' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=bare_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_commands_import_no_module_the_cli_import_did_not(tmp_path):
    # a module first imported inside a command (numpy.ma behind np.unique, say)
    # is paid for by every fresh process that runs one
    code = ("import sys, spinweb.cli\n"
            "before = set(sys.modules)\n"
            "for argv in (['sweep', '--n', '4', '--c-steps', '10', '--out', 'sweep.csv'],\n"
            "             ['spectrum', '--n', '5', '--c-steps', '10', '--out', 'spectrum.json'],\n"
            "             ['ghz', '--out', 'ghz.json'], ['verify-n4', '--out', 'verify.txt']):\n"
            "    assert spinweb.cli.main(argv) == 0, argv\n"
            "print(sorted(set(sys.modules) - before))\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          capture_output=True, text=True, env=bare_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_cli_import_freezes_the_heap_and_the_library_does_not():
    # the CLI's import-time objects live until exit, so the collector need not
    # walk them again; a library user's collector is left alone
    for module, frozen in (("spinweb.cli", True), ("spinweb", False)):
        code = f"import gc, {module}\nprint(gc.get_freeze_count())\n"
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=bare_env())
        assert proc.returncode == 0, proc.stderr
        assert (int(proc.stdout) > 0) == frozen, module


def test_thread_knob_sets_blas_env():
    # The child gets a bare environment (no BLAS variables, so the knob is
    # what sets them) plus the source root of the spinweb under test, so it
    # imports spinweb whether or not the package is installed, and writes no
    # bytecode into that source tree.  A meta-path hook records the variables
    # at the moment numpy is first imported: the knob has to be in place
    # before numpy loads its BLAS, for plain ``import spinweb`` as well as
    # ``import spinweb.cli``.
    env = bare_env()
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


@pytest.mark.parametrize("value", ["abc", "0"])
def test_thread_knob_rejects_a_non_positive_integer(value):
    # the package hands BLAS no such value, and the command line says why
    env = bare_env(SPINWEB_THREADS=value)
    proc = subprocess.run([sys.executable, "-m", "spinweb.cli", "sweep", "--n", "3",
                           "--c-steps", "1"], capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr == f"error: SPINWEB_THREADS must be a positive integer, got {value!r}\n"
    code = "import os, spinweb\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "None"
