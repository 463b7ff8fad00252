"""Command-line surface: sweeps, spectra, the GHZ protocol and N=4 checks.

All commands emit plotting-tool-agnostic data files (CSV or JSON) plus a run
manifest; rendering is left to external tools.  Exit codes: 0 success,
1 a failed ``verify-n4`` check, 2 usage error, 3 domain error, 4 resource
guard.  The package ``__init__`` applies the ``SPINWEB_THREADS`` thread knob
before numpy loads; ``main`` rejects a value the package ignored.
"""

import argparse
import gc
import hashlib
import json
# argparse's gettext imports locale when the first parser is built; imported
# here, before the freeze below, a command imports no module of its own
import locale  # noqa: F401
import os
import re
import sys
from datetime import datetime, timezone
from functools import lru_cache
from itertools import chain

import numpy as np

from . import __version__, _is_thread_count, n4
from .errors import DomainError, ResourceLimitError
from .spectral import _check_grid, _grid_chunks, _track, ground_subspace, track_levels
from .sweep import SweepConfig, _recorded_chunks
from .system import SpinSystem

# Everything alive now (stdlib, numpy, spinweb) lives until exit: freezing it
# spares collections during a run, and the one at exit, from walking it again
# (exit fell from 12 to 3 ms per process on a 2-vCPU Xeon).  Not in the package,
# so ``import spinweb`` leaves the collector alone.  A process that imports this
# module late, as a test runner does, never collects the cyclic garbage it holds.
gc.freeze()

#: ``SweepRecord`` fields written under a short name; the rest keep their own.
SHORT_NAMES = {"ground_energy": "E0", "ground_degeneracy": "deg"}
#: A crossing's JSON keys, which are also the crossings CSV header.
CROSSING_COLUMNS = ("c_lo", "c_hi", "label_from", "label_to", "min_gap")
#: What a subcommand reads as a negative number, not an option.  argparse's own
#: pattern takes only plain decimals, so ``--j -1e-3`` or ``--j -inf`` would end
#: in "expected one argument"; the flag's type checks the rest of the value.
NEGATIVE_NUMBER = re.compile(r"-\.?\d|-inf|-nan", re.IGNORECASE)

#: Memory a ``sweep`` or ``spectrum`` keeps per grid point until it writes its
#: output (the record or tracked levels and the output text), charged once per
#: started group of 8 kept levels.  At N = 7 the tracemalloc peak grows per
#: point, from 1,001- to 2,001-point grids, by (sweep CSV, sweep JSON, spectrum
#: JSON, spectrum CSV) 0.0, 3.6, 3.0, 0.7 KiB with 8 levels (charged 4 KiB);
#: 4.1, 13.1, 20.2, 9.4 KiB with 64 (32 KiB); 16.4, 41.9, 79.4, 36.5 KiB with
#: 256 (128 KiB).
GRID_POINT_BYTES = 4 << 10
#: The most memory the per-point results of one command may take.
MAX_GRID_BYTES = 1 << 30


def _manifest(command: str, config: dict) -> dict:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return {
        "command": command,
        "config": config,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "input_hash": hashlib.sha256(blob.encode()).hexdigest(),
    }


def _atomic_write(path: str, text: str) -> None:
    """Write through a new temp file beside ``path``, made 0666 less the umask as
    ``open`` would.  A path that cannot be written exits 2, as argparse does for a
    file argument it cannot open."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".spinweb-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", newline="\n") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        sys.stderr.write(f"error: cannot write {path}: {exc.strerror or exc}\n")
        raise SystemExit(2) from None


def _fmt(x) -> str:
    if x is None:
        return ""
    return str(x) if isinstance(x, int) else repr(float(x))


def _system_and_grid(args):
    """System and checked c-grid of ``sweep``/``spectrum``; range and size checks
    precede linspace."""
    system = SpinSystem(args.n, has_central=True)  # owns the size limit
    if not (0 <= args.c_min <= 1 and 0 <= args.c_max <= 1):  # also rejects nan
        raise DomainError("--c-min and --c-max must lie in [0, 1], "
                          f"got {args.c_min} and {args.c_max}")
    if args.c_steps > 0 and not args.c_min < args.c_max:
        raise DomainError("--c-min must be below --c-max when --c-steps > 0, "
                          f"got {args.c_min} and {args.c_max}")
    if args.levels < 1:
        raise DomainError(f"--levels must be >= 1, got {args.levels}")
    kept = min(args.levels, system.dimension)
    per_point = GRID_POINT_BYTES * -(-kept // 8)
    if args.c_steps + 1 > MAX_GRID_BYTES // per_point:
        raise ResourceLimitError(
            f"--c-steps {args.c_steps} asks for {args.c_steps + 1} grid points; at about "
            f"{per_point} bytes each with --levels {args.levels} they would exceed "
            f"{MAX_GRID_BYTES} bytes (at most {MAX_GRID_BYTES // per_point - 1} steps)")
    return system, _check_grid(np.linspace(args.c_min, args.c_max, args.c_steps + 1))


def _parse_refs(spec: str):
    refs = []
    ring_eps = 0.01
    for token in filter(None, spec.split(",")):
        name, eq, value = token.partition("=")
        if token in ("ring", "star"):
            refs.append(token)
        elif token == "ansatz":
            refs.append("singlet_ansatz")
        elif name == "ring-eps":
            refs.append("ring_eps")
            if eq:
                try:
                    ring_eps = float(value)
                except ValueError:
                    raise DomainError(
                        f"ring-eps value {value!r} is not a number") from None
        else:
            raise DomainError(f"unknown reference {token!r}")
    return tuple(refs), ring_eps


def _pair_tokens(spec: str) -> list:
    """argparse type for --pairs: at most two comma-separated 'nn', 'nnn' or 'a:b'.
    The first fills the _nn columns, so 'nn' may only be first and 'nnn' second."""
    tokens = []
    for t in filter(None, spec.split(",")):
        if len(tokens) == 2:
            raise argparse.ArgumentTypeError("at most two pairs: the nn and the nnn pair")
        if t in ("nn", "nnn"):
            if t != ("nn", "nnn")[len(tokens)]:
                raise argparse.ArgumentTypeError(
                    f"{t!r} may only be the {'first' if t == 'nn' else 'second'} pair")
            tokens.append(t)
            continue
        try:
            a, b = map(int, t.split(":"))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"pair {t!r} is not nn, nnn or a:b with integer sites") from None
        tokens.append((a, b))
    return tokens


def _steps(text: str) -> int:
    """argparse type for --c-steps: a nonnegative interval count."""
    if not text.strip().isdigit():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _emit_json(out, manifest: dict, records, crossings, reports: dict) -> None:
    _emit(out, json.dumps({"manifest": manifest, "records": records,
                           "crossings": crossings, "reports": reports}, indent=2) + "\n")


def _write_grid(args, command: str, keys: dict, records, crossings, reports: dict,
                csv_lines) -> int:
    """Write the output of ``sweep`` or ``spectrum``: the manifest, whose config
    holds the grid flags, the command's ``keys``, ``--levels`` and ``--format``;
    then either the JSON payload of the manifest, ``records``, the crossings and
    ``reports``, or the CSV ``csv_lines`` (an iterable, header first, read only
    for CSV) and, with ``--out``, the crossings CSV and manifest JSON beside it."""
    manifest = _manifest(command, {
        "n": args.n, "j": args.j, "c_min": args.c_min, "c_max": args.c_max,
        "c_steps": args.c_steps, **keys, "levels": args.levels, "format": args.format,
    })
    crossings = [dict(zip(CROSSING_COLUMNS, (x.c_lo, x.c_hi, *x.labels, x.min_gap)))
                 for x in crossings]
    if args.format == "json":
        _emit_json(args.out, manifest, records, crossings, reports)
        return 0
    _emit(args.out, "\n".join(csv_lines) + "\n")
    if args.out:
        rows = [",".join(map(_fmt, x.values())) for x in crossings]
        _atomic_write(args.out + ".crossings.csv",
                      "\n".join([",".join(CROSSING_COLUMNS), *rows]) + "\n")
        _atomic_write(args.out + ".manifest.json", json.dumps(manifest, indent=2) + "\n")
    return 0


def cmd_sweep(args) -> int:
    system, grid = _system_and_grid(args)
    references, ring_eps = _parse_refs(args.refs)
    # only the explicit a:b pairs are passed: a named one is SweepConfig's default
    explicit = {k: t for k, t in zip(("nn_pair", "nnn_pair"), args.pairs) if isinstance(t, tuple)}
    config = SweepConfig(
        n_outer=args.n, J=args.j, c_grid=grid, **explicit,
        references=references, ring_eps=ring_eps, n_levels=args.levels,
    )
    records = []
    # one grid pass feeds the records, a chunk at a time, and the tracker
    chunks = _recorded_chunks(config, records)
    crossings = _track(system, config.J, max(2, args.levels), chunks).crossings
    rows = [{SHORT_NAMES.get(k, k): v for k, v in vars(r).items()} for r in records]
    # O_r and O_s stay as empty columns; O_p is left out when no record has it
    cols = [k for k in rows[0] if k != "low_energies"
            and (k != "O_p" or any(r.O_p is not None for r in records))]
    lines = chain([",".join(cols)], (",".join(_fmt(row[c]) for c in cols) for row in rows))
    keys = {"pairs": ",".join(t if isinstance(t, str) else "%d:%d" % t for t in args.pairs),
            "refs": args.refs}
    return _write_grid(args, "sweep", keys, rows, crossings, {}, lines)


def cmd_spectrum(args) -> int:
    system, grid = _system_and_grid(args)
    if args.levels < 2:
        # energies only, hence no crossing analysis; map binds no chunk while the next is solved
        lowest = map(lambda chunk: zip(chunk.c.tolist(), chunk.eigenvalues[:, 0].tolist()),
                     _grid_chunks(system, args.j, grid))
        levels = {0: list(chain.from_iterable(lowest))}
        records = [{"c": c, "energies": [e]} for c, e in levels[0]]
        crossings, reports = [], {"note": "levels < 2: no crossing analysis"}
    else:
        track = track_levels(system, args.j, grid, args.levels)
        levels = track.tracked_levels
        records = {str(label): [{"c": c, "energy": e} for c, e in points]
                   for label, points in levels.items()}
        crossings, reports = track.crossings, {"flagged_intervals": track.flagged_intervals}
    lines = chain(["label,c,energy"], (",".join(map(_fmt, (label, c, e)))
                                       for label, points in levels.items() for c, e in points))
    return _write_grid(args, "spectrum", {}, records, crossings, reports, lines)


def cmd_ghz(args) -> int:
    intermediate = n4.intermediate_region()
    if args.region == "intermediate":
        protocol, region = n4.ghz_protocol, intermediate
        default_c = 0.5 * (region[0] + region[1])
    else:
        protocol, region, default_c = n4.star_region_protocol, n4._star_region(), 0.95
    c = args.c if args.c is not None else default_c
    outcomes = protocol(c, args.field_h, J=args.j)
    manifest = _manifest("ghz", {
        "c": c, "j": args.j, "field_h": args.field_h, "region": args.region,
    })
    _emit_json(args.out, manifest, [], [], {
        "region": args.region, "region_bounds": region, "intermediate_region": intermediate,
        "outcomes": [{k: v for k, v in vars(o).items() if k != "post_state"} for o in outcomes],
    })
    return 0


def cmd_verify_n4(args) -> int:
    checks = []

    for (bit, label) in n4.ACTION_TABLE:
        for which in ("star", "ring"):
            checks.append((f"action_table[{which}, |{bit}>|{label}>]",
                           n4.verify_table_action(which, bit, label)))

    cs, records = (0.0, 0.2, 0.4, 0.9, 1.0), []
    # one solve chunk holds every point: the records ``sweep`` writes, and the grounds
    chunk = next(_recorded_chunks(SweepConfig(n_outer=4, c_grid=cs, references=()), records))
    coeffs = {c: n4.extract_coefficients(ground_subspace(chunk.spectrum(i)))
              for i, c in enumerate(cs)}

    for c, expected in ((0.0, (1 / np.sqrt(2), -1 / np.sqrt(2), 0.0)),
                        (1.0, (-np.sqrt(1 / 6), -np.sqrt(2 / 6), 1 / np.sqrt(2)))):
        k = coeffs[c]
        err = max(abs(g - e) for g, e in zip((k.alpha, k.beta, k.gamma), expected))
        checks.append((f"coefficients at c={c:g}", err < 1e-8))

    # the concurrences of the (1, 2) and (1, 3) pairs as ``sweep`` reports them
    for c, r in zip(cs, records):
        c_nn, c_nnn = n4.level_I_concurrences(coeffs[c])
        ok = abs(c_nn - r.C_nn) < 1e-8 and abs(c_nnn - r.C_nnn) < 1e-8
        checks.append((f"closed form vs pipeline at c={c}", ok))

    failed = [name for name, ok in checks if not ok]
    lines = [f"{'PASS' if ok else 'FAIL'}  {name}" for name, ok in checks]
    _emit(args.out, "\n".join(lines) + "\n")
    if failed:
        sys.stderr.write(f"{len(failed)} of {len(checks)} checks failed\n")
        return 1
    return 0


def _emit(out, text: str) -> None:
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)


def _add_grid_flags(p, levels: int, fmt: str):
    """The flags ``sweep`` and ``spectrum`` share, with the command's defaults of
    ``--levels`` and ``--format``."""
    p.add_argument("--n", type=int, required=True, help="number of outer spins")
    p.add_argument("--j", type=float, default=1.0)
    p.add_argument("--c-min", type=float, default=0.0)
    p.add_argument("--c-max", type=float, default=1.0)
    p.add_argument("--c-steps", type=_steps, default=400,
                   help="number of grid intervals (points = steps + 1)")
    p.add_argument("--levels", type=int, default=levels)
    p.add_argument("--format", choices=("csv", "json"), default=fmt)
    p.add_argument("--out", default=None)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` returns a fresh
    namespace each call and leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="spinweb",
        description="Ground-state entanglement of combined ring/star XX spin networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="concurrence / correlation / overlap sweep over c")
    _add_grid_flags(p, levels=6, fmt="csv")
    p.add_argument("--pairs", type=_pair_tokens, default="nn,nnn",
                   help="'nn,nnn' or explicit pairs like '1:2,1:3'")
    p.add_argument("--refs", default="ring,star",
                   help="comma list of ring, star, ring-eps[=eps], ansatz")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("spectrum", help="tracked energy levels and crossings")
    _add_grid_flags(p, levels=4, fmt="json")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("ghz", help="field-plus-measurement protocol report (N=4)")
    p.add_argument("--c", type=float, default=None,
                   help="default: midpoint of the detected intermediate region")
    p.add_argument("--j", type=float, default=1.0)
    p.add_argument("--field-h", type=float, default=1e-3)
    p.add_argument("--region", choices=("intermediate", "star"),
                   default="intermediate")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ghz)

    p = sub.add_parser("verify-n4", help="operator-action oracle and closed-form checks")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify_n4)

    for p in sub.choices.values():
        p._negative_number_matcher = NEGATIVE_NUMBER
    return parser


def main(argv=None) -> int:
    threads = os.environ.get("SPINWEB_THREADS")
    if threads and not _is_thread_count(threads):
        sys.stderr.write(f"error: SPINWEB_THREADS must be a positive integer, got {threads!r}\n")
        return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource guard: {exc}\n")
        return 4
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
