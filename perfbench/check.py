"""Reference check of CLI outputs against the stored seed-code outputs.

The references were produced at J = 1.  A run at another J must reproduce
them with energies scaled by J; every other output is independent of J > 0.
Tolerances are absolute: energies 1e-10, concurrences, correlators and
overlaps 1e-8, degeneracies exact, crossings equal in number and labels with
each refined endpoint within 1e-6.  Each check returns (grid points
delivered, list of problems); an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json

ENERGY_TOL = 1e-10
OBSERVABLE_TOL = 1e-8
CROSSING_TOL = 1e-6
GRID_TOL = 1e-12
GHZ_WINDOW = (0.25, 0.36)  # probability of the GHZ branch quoted in the README
MAX_PROBLEMS = 5


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _near(got, want, tol):
    return abs(float(got) - float(want)) <= tol


def _crossing_problems(got, ref):
    """Crossings as (c_lo, c_hi, label_from, label_to) tuples."""
    if len(got) != len(ref):
        return [f"{len(got)} crossings, reference has {len(ref)}"]
    problems = []
    for i, (g, r) in enumerate(zip(got, ref)):
        if (int(g[2]), int(g[3])) != (int(r[2]), int(r[3])):
            problems.append(f"crossing {i}: labels {g[2:]} != {r[2:]}")
        elif not (_near(g[0], r[0], CROSSING_TOL) and _near(g[1], r[1], CROSSING_TOL)):
            problems.append(f"crossing {i}: [{g[0]}, {g[1]}] != [{r[0]}, {r[1]}]")
    return problems


def check_sweep(out, ref, J):
    """``sweep`` CSV output plus its ``.crossings.csv`` sidecar."""
    header, rows = _read_csv(out)
    ref_header, ref_rows = _read_csv(ref)
    if header != ref_header:
        return len(rows), [f"columns {header} != {ref_header}"]
    if len(rows) != len(ref_rows):
        return len(rows), [f"{len(rows)} records, reference has {len(ref_rows)}"]
    problems = []
    for row, ref_row in zip(rows, ref_rows):
        for col, g, r in zip(header, row, ref_row):
            if col == "deg":
                ok = int(g) == int(r)
            elif col == "E0":
                ok = _near(g, J * float(r), ENERGY_TOL)
            elif col == "c":
                ok = _near(g, r, GRID_TOL)
            elif g == "" or r == "":
                ok = g == r
            else:
                ok = _near(g, r, OBSERVABLE_TOL)
            if not ok:
                problems.append(f"c={row[0]} {col}: {g} vs reference {r}")
    _, crossings = _read_csv(out + ".crossings.csv")
    _, ref_crossings = _read_csv(ref + ".crossings.csv")
    problems += _crossing_problems(crossings, ref_crossings)
    return len(rows), problems[:MAX_PROBLEMS]


def _json_crossings(payload):
    return [(x["c_lo"], x["c_hi"], x["label_from"], x["label_to"])
            for x in payload["crossings"]]


def check_spectrum(out, ref, J):
    """``spectrum`` JSON output: tracked levels and refined crossings."""
    with open(out) as fh:
        got = json.load(fh)
    with open(ref) as fh:
        want = json.load(fh)
    levels, ref_levels = got["records"], want["records"]
    points = len({p["c"] for pts in levels.values() for p in pts})
    if sorted(levels) != sorted(ref_levels):
        return points, [f"level labels {sorted(levels)} != {sorted(ref_levels)}"]
    problems = []
    for label, ref_pts in ref_levels.items():
        pts = levels[label]
        if len(pts) != len(ref_pts):
            problems.append(f"level {label}: {len(pts)} points, reference {len(ref_pts)}")
            continue
        for p, r in zip(pts, ref_pts):
            if not (_near(p["c"], r["c"], GRID_TOL)
                    and _near(p["energy"], J * r["energy"], ENERGY_TOL)):
                problems.append(f"level {label} at c={p['c']}: {p['energy']} "
                                f"vs reference {J * r['energy']}")
    problems += _crossing_problems(_json_crossings(got), _json_crossings(want))
    return points, problems[:MAX_PROBLEMS]


def check_ghz(out, ref, J):
    """``ghz`` JSON report: regions, branches and the GHZ probability window."""
    with open(out) as fh:
        got = json.load(fh)["reports"]
    with open(ref) as fh:
        want = json.load(fh)["reports"]
    problems = []
    for key in ("region_bounds", "intermediate_region"):
        if not all(_near(g, r, CROSSING_TOL) for g, r in zip(got[key], want[key])):
            problems.append(f"{key} {got[key]} != {want[key]}")
    outcomes, ref_outcomes = got["outcomes"], want["outcomes"]
    if [(o["outcome"], o["central_result"]) for o in outcomes] != \
            [(o["outcome"], o["central_result"]) for o in ref_outcomes]:
        return 0, problems + ["measurement branches differ from the reference"]
    for o, r in zip(outcomes, ref_outcomes):
        values = [o["probability"], *o["bipartition_entropies"], *o["pairwise_concurrences"]]
        ref_values = [r["probability"], *r["bipartition_entropies"], *r["pairwise_concurrences"]]
        if len(values) != len(ref_values) or not all(
                _near(g, w, OBSERVABLE_TOL) for g, w in zip(values, ref_values)):
            problems.append(f"branch {o['outcome']}: probabilities or entanglement differ")
        if o["outcome"] == "D_state" and not GHZ_WINDOW[0] <= o["probability"] <= GHZ_WINDOW[1]:
            problems.append(f"GHZ probability {o['probability']} outside {GHZ_WINDOW}")
    if got["region"] == "intermediate" and not any(o["outcome"] == "D_state" for o in outcomes):
        problems.append("no GHZ branch in the intermediate region")
    return 0, problems


def check_verify(out, ref, J):
    """``verify-n4`` report: every line PASS, as many checks as the reference."""
    with open(out) as fh:
        lines = fh.read().splitlines()
    with open(ref) as fh:
        ref_lines = fh.read().splitlines()
    problems = [line for line in lines if not line.startswith("PASS")]
    if len(lines) != len(ref_lines):
        problems.append(f"{len(lines)} checks, reference has {len(ref_lines)}")
    return 0, problems[:MAX_PROBLEMS]


CHECKS = {"sweep": check_sweep, "spectrum": check_spectrum,
          "ghz": check_ghz, "verify-n4": check_verify}
