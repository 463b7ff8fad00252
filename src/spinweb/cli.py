"""Command-line surface: sweeps, spectra, the GHZ protocol and N=4 checks.

All commands emit plotting-tool-agnostic data files (CSV or JSON) plus a run
manifest; rendering is left to external tools.  Exit codes: 0 success,
2 usage error, 3 domain error, 4 resource guard.  The ``SPINWEB_THREADS``
thread knob is applied by the package ``__init__``, which runs before this
module and before numpy loads.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
from datetime import datetime, timezone

import numpy as np

from . import __version__, n4
from .errors import DomainError, ResourceLimitError
from .spectral import _check_grid, _track, ground_subspace, solve
from .sweep import (SweepConfig, _default_nnn_pair, _record, make_references,
                    pair_concurrence)
from .system import SpinSystem

SWEEP_COLUMNS = ["c", "E0", "deg", "C_nn", "C_nnn", "XX_nn", "XX_nnn",
                 "ZZ_nn", "ZZ_nnn", "O_r", "O_s", "O_p"]


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
    """Write through a temp file beside ``path``.  A path that cannot be written
    exits 2, as argparse does for a file argument it cannot open."""
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".spinweb-")
        try:
            with os.fdopen(fd, "w", newline="\n") as fh:
                fh.write(text)
            # mkstemp creates the file 0600; give it the mode open() would
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
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
    return repr(float(x))


def _system_and_grid(args):
    """System and checked c-grid of ``sweep``/``spectrum``; range checks precede linspace."""
    system = SpinSystem(args.n, has_central=True)  # owns the size limit
    if not (0 <= args.c_min <= 1 and 0 <= args.c_max <= 1):  # also rejects nan
        raise DomainError("--c-min and --c-max must lie in [0, 1], "
                          f"got {args.c_min} and {args.c_max}")
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
    """argparse type for --pairs: at most two comma-separated 'nn', 'nnn' or 'a:b'."""
    tokens = []
    for t in filter(None, spec.split(",")):
        if len(tokens) == 2:
            raise argparse.ArgumentTypeError("at most two pairs: the nn and the nnn pair")
        if t in ("nn", "nnn"):
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


def _record_row(r) -> dict:
    return {
        "c": r.c, "E0": r.ground_energy, "deg": r.ground_degeneracy,
        "low_energies": list(r.low_energies),
        "C_nn": r.C_nn, "C_nnn": r.C_nnn,
        "XX_nn": r.XX_nn, "XX_nnn": r.XX_nnn,
        "ZZ_nn": r.ZZ_nn, "ZZ_nnn": r.ZZ_nnn,
        "O_r": r.O_r, "O_s": r.O_s, "O_p": r.O_p,
    }


def _crossing_row(x) -> dict:
    return {"c_lo": x.c_lo, "c_hi": x.c_hi,
            "label_from": x.labels[0], "label_to": x.labels[1],
            "min_gap": x.min_gap}


def _write_csv_sidecars(out: str, crossings: list, manifest: dict) -> None:
    """Crossings CSV and manifest JSON written beside a CSV output file."""
    xl = ["c_lo,c_hi,label_from,label_to,min_gap"]
    for x in crossings:
        xl.append(",".join([_fmt(x["c_lo"]), _fmt(x["c_hi"]),
                            str(x["label_from"]), str(x["label_to"]),
                            _fmt(x["min_gap"])]))
    _atomic_write(out + ".crossings.csv", "\n".join(xl) + "\n")
    _atomic_write(out + ".manifest.json", json.dumps(manifest, indent=2) + "\n")


def cmd_sweep(args) -> int:
    system, grid = _system_and_grid(args)
    references, ring_eps = _parse_refs(args.refs)
    named = {"nn": (1, 2), "nnn": _default_nnn_pair(args.n)}
    pairs = [named.get(t, t) for t in args.pairs]
    nn = pairs[0] if pairs else (1, 2)
    nnn = pairs[1] if len(pairs) >= 2 else None
    config = SweepConfig(
        n_outer=args.n, J=args.j, c_grid=grid, nn_pair=nn, nnn_pair=nnn,
        references=references, ring_eps=ring_eps, n_levels=args.levels,
    )
    refs = make_references(config)
    records = []

    def spectrum_at(c):  # one solve per grid point feeds its record and the tracker
        record, spec = _record(config, system, refs, c)
        records.append(record)
        return spec

    crossings = [_crossing_row(x) for x in _track(
        system, config.J, config.c_grid, max(2, args.levels),
        spectrum_at=spectrum_at).crossings]

    manifest = _manifest("sweep", {
        "n": args.n, "j": args.j, "c_min": args.c_min, "c_max": args.c_max,
        "c_steps": args.c_steps,
        "pairs": ",".join(t if isinstance(t, str) else "%d:%d" % t for t in args.pairs),
        "refs": args.refs, "levels": args.levels, "format": args.format,
    })

    if args.format == "json":
        payload = {
            "manifest": manifest,
            "records": [_record_row(r) for r in records],
            "crossings": crossings,
            "reports": {},
        }
        _emit(args.out, json.dumps(payload, indent=2) + "\n")
    else:
        has_op = any(r.O_p is not None for r in records)
        cols = [c for c in SWEEP_COLUMNS if has_op or c != "O_p"]
        lines = [",".join(cols)]
        for r in records:
            row = _record_row(r)
            lines.append(",".join(
                _fmt(row[c]) if c not in ("deg",) else str(row[c]) for c in cols))
        _emit(args.out, "\n".join(lines) + "\n")
        if args.out:
            _write_csv_sidecars(args.out, crossings, manifest)
    return 0


def cmd_spectrum(args) -> int:
    system, grid = _system_and_grid(args)
    if args.levels < 1:
        raise DomainError(f"--levels must be >= 1, got {args.levels}")
    manifest = _manifest("spectrum", {
        "n": args.n, "j": args.j, "c_min": args.c_min, "c_max": args.c_max,
        "c_steps": args.c_steps, "levels": args.levels, "format": args.format,
    })
    if args.levels < 2:
        # energies only; no continuation, hence no crossing analysis
        records = []
        for c in grid:
            spec = solve(system, args.j, float(c))
            records.append({"c": float(c), "energies": [float(spec.eigenvalues[0])]})
        payload = {"manifest": manifest, "records": records, "crossings": [],
                   "reports": {"note": "levels < 2: no crossing analysis"}}
    else:
        track = _track(system, args.j, grid, args.levels)  # unlike track_levels, takes one point
        levels = {
            str(label): [{"c": c, "energy": e} for c, e in points]
            for label, points in track.tracked_levels.items()
        }
        payload = {
            "manifest": manifest,
            "records": levels,
            "crossings": [_crossing_row(x) for x in track.crossings],
            "reports": {"flagged_intervals": track.flagged_intervals},
        }
    if args.format == "json":
        _emit(args.out, json.dumps(payload, indent=2) + "\n")
    else:
        lines = ["label,c,energy"]
        if args.levels < 2:
            for r in payload["records"]:
                lines.append(",".join(["0", _fmt(r["c"]), _fmt(r["energies"][0])]))
        else:
            for label, pts in payload["records"].items():
                for p in pts:
                    lines.append(",".join([label, _fmt(p["c"]), _fmt(p["energy"])]))
        _emit(args.out, "\n".join(lines) + "\n")
        if args.out:
            _write_csv_sidecars(args.out, payload["crossings"], manifest)
    return 0


def _outcome_report(o) -> dict:
    return {
        "outcome": o.outcome,
        "central_result": o.central_result,
        "probability": o.probability,
        "bipartition_entropies": list(o.bipartition_entropies),
        "pairwise_concurrences": list(o.pairwise_concurrences),
    }


def cmd_ghz(args) -> int:
    intermediate = n4.intermediate_region()
    if args.region == "intermediate":
        protocol, region = n4.ghz_protocol, intermediate
        default_c = 0.5 * (region[0] + region[1])
    else:
        protocol, region, default_c = n4.star_region_protocol, n4._star_region(), 0.95
    c = args.c if args.c is not None else default_c
    outcomes = protocol(c, args.field_h, J=args.j, region=region)
    manifest = _manifest("ghz", {
        "c": c, "j": args.j, "field_h": args.field_h, "region": args.region,
    })
    payload = {
        "manifest": manifest,
        "records": [],
        "crossings": [],
        "reports": {
            "region": args.region,
            "region_bounds": list(region),
            "intermediate_region": list(intermediate),
            "outcomes": [_outcome_report(o) for o in outcomes],
        },
    }
    _emit(args.out, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_verify_n4(args) -> int:
    checks = []

    for (bit, label) in n4.ACTION_TABLE:
        for which in ("star", "ring"):
            _, ok = n4.verify_table_action(which, bit, label)
            checks.append((f"action_table[{which}, |{bit}>|{label}>]", ok))

    grounds = {c: ground_subspace(solve(n4.FULL, 1.0, c))
               for c in (0.0, 0.2, 0.4, 0.9, 1.0)}
    coeffs = {c: n4.extract_coefficients(gs, c) for c, gs in grounds.items()}

    for c, expected in ((0.0, (1 / np.sqrt(2), -1 / np.sqrt(2), 0.0)),
                        (1.0, (-np.sqrt(1 / 6), -np.sqrt(2 / 6), 1 / np.sqrt(2)))):
        k = coeffs[c]
        err = max(abs(g - e) for g, e in zip((k.alpha, k.beta, k.gamma), expected))
        checks.append((f"coefficients at c={c:g}", err < 1e-8))

    for c, gs in grounds.items():
        c_nn, c_nnn = n4.level_I_concurrences(coeffs[c])
        p_nn = pair_concurrence(gs.density, n4.FULL, (1, 2))
        p_nnn = pair_concurrence(gs.density, n4.FULL, (1, 3))
        ok = abs(c_nn - p_nn) < 1e-8 and abs(c_nnn - p_nnn) < 1e-8
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


def _add_grid_flags(p):
    p.add_argument("--c-min", type=float, default=0.0)
    p.add_argument("--c-max", type=float, default=1.0)
    p.add_argument("--c-steps", type=_steps, default=400,
                   help="number of grid intervals (points = steps + 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinweb",
        description="Ground-state entanglement of combined ring/star XX spin networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="concurrence / correlation / overlap sweep over c")
    p.add_argument("--n", type=int, required=True, help="number of outer spins")
    p.add_argument("--j", type=float, default=1.0)
    _add_grid_flags(p)
    p.add_argument("--pairs", type=_pair_tokens, default="nn,nnn",
                   help="'nn,nnn' or explicit pairs like '1:2,1:3'")
    p.add_argument("--refs", default="ring,star",
                   help="comma list of ring, star, ring-eps[=eps], ansatz")
    p.add_argument("--levels", type=int, default=6)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("spectrum", help="tracked energy levels and crossings")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=float, default=1.0)
    _add_grid_flags(p)
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out", default=None)
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

    return parser


def main(argv=None) -> int:
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
