"""Deterministic eigensolver, ground subspace, level tracking."""

import contextlib
import io
import json
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinweb import (
    CouplingConfig,
    DomainError,
    HermitianOperator,
    SpinSystem,
    build_combined,
    build_ring,
    build_star,
    eigendecompose,
    ground_subspace,
    track_levels,
)
from spinweb import n4, operators, spectral, sweep
from spinweb.cli import main
from spinweb.spectral import solve
from spinweb.sweep import SweepConfig, run_sweep

import oracle


def _solve(n_outer, c, J=1.0):
    s = SpinSystem(n_outer, has_central=True)
    h = build_combined(s, CouplingConfig(J=J, c=c))
    return eigendecompose(h)


def test_eigendecomposition_reconstructs_matrix():
    spec = _solve(3, 0.4)
    h = build_combined(SpinSystem(3, True), CouplingConfig(c=0.4)).matrix
    v = spec.vectors()
    recon = v @ np.diag(spec.eigenvalues) @ v.conj().T
    np.testing.assert_allclose(recon, h, atol=1e-10)
    # orthonormal columns
    gram = v.conj().T @ v
    np.testing.assert_allclose(gram, np.eye(h.shape[0]), atol=1e-10)


def test_eigenvalues_ascending_and_match_numpy():
    spec = _solve(4, 0.3)
    h = build_combined(SpinSystem(4, True), CouplingConfig(c=0.3)).matrix
    np.testing.assert_allclose(spec.eigenvalues, np.linalg.eigvalsh(h), atol=1e-10)


def test_eigenvectors_are_sector_pure():
    # even degenerate eigenvectors must carry a single magnetization each
    s = SpinSystem(4, has_central=True)
    mags = np.array([s.magnetization(b) for b in range(s.dimension)])
    for spec in (_solve(4, 0.0), solve(s, 1.0, 0.0)):
        for v in spec.vectors().T:
            present = {m for m, a in zip(mags, v) if abs(a) > 1e-10}
            assert len(present) == 1


def test_eigendecompose_is_deterministic():
    a = _solve(5, 0.5)
    b = _solve(5, 0.5)
    np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
    np.testing.assert_array_equal(a.vectors(), b.vectors())


def test_generic_matrix_falls_back_to_full_solve():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(6, 6))
    spec = eigendecompose(HermitianOperator(m + m.T))
    np.testing.assert_allclose(spec.eigenvalues, np.linalg.eigvalsh(m + m.T),
                               atol=1e-12)


def test_ground_subspace_degeneracy_and_projector():
    gs = ground_subspace(_solve(4, 0.0))
    assert gs.degeneracy == 2
    assert abs(gs.energy - (-4.0 * np.sqrt(2.0))) < 1e-10
    assert gs.density.factor.shape == (gs.basis.shape[0], 2)
    rho = gs.density.density()
    np.testing.assert_allclose(rho, rho.conj().T)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    # projector property: rho^2 = rho / degeneracy
    np.testing.assert_allclose(rho @ rho, rho / 2.0, atol=1e-12)

    assert ground_subspace(_solve(5, 1.0)).degeneracy == 1


def test_tracker_ground_group_is_the_ground_subspace():
    # levels 0.6 t apart: a chain of gaps within t would join the third
    t = spectral.DEGENERACY_TOL
    spec = spectral._dense_spectrum(np.array([0.0, 0.6 * t, 1.2 * t, 1.0]), np.eye(4))
    group, energies = spectral._low_groups(spec.eigenvalues[None], 2)
    assert np.count_nonzero(group[0] == 0) == ground_subspace(spec).degeneracy == 2
    assert group[0].tolist() == [0, 0, -1, -1] and len(energies) == 1


def test_chunk_groups_equal_the_per_point_groups_bit_for_bit():
    # groups of 1 to 12 levels spread within the tolerance, so numpy's mean sums
    # them one by one (fewer than 8) or pairwise (8 or more)
    rng = np.random.default_rng(5)
    rows = []
    for _ in range(40):
        row, level = [], 0.0
        while len(row) < 40:
            level += rng.uniform(1.0, 2.0)
            spread = 1e-9 if rng.random() < 0.5 else 0.0  # exact or near degeneracy
            row.extend(level + rng.uniform(0.0, spread, size=int(rng.integers(1, 13))))
        rows.append(np.sort(row)[:40] * rng.choice([1e-3, 1.0, 7.3]))
    ev = np.stack(rows)
    for n_levels in (2, 5, 40):
        group, energies = spectral._low_groups(ev, n_levels)
        want = []
        for i, row in enumerate(ev):
            spec = spectral._dense_spectrum(row, np.eye(row.size))
            bounds = oracle.group_bounds(spec, n_levels)
            assert group[i].tolist() == [g for g, (a, b) in enumerate(zip(bounds, bounds[1:]))
                                         for _ in range(a, b)] + [-1] * (row.size - bounds[-1])
            want += [row[a:b].mean() for a, b in zip(bounds, bounds[1:])]
        assert np.array(energies).tobytes() == np.array(want).tobytes()


def test_track_levels_finds_both_ground_changes():
    s = SpinSystem(4, has_central=True)
    track = track_levels(s, 1.0, np.linspace(0.0, 1.0, 41), n_levels=4)
    assert len(track.crossings) == 2
    (x1, x2) = track.crossings
    assert x1.c_hi - x1.c_lo <= 1e-6
    assert x2.c_hi - x2.c_lo <= 1e-6
    assert 0.5 < x1.c_lo < x2.c_lo < 0.8
    assert track.flagged_intervals == []


def test_track_levels_no_crossing_for_pure_star_window():
    s = SpinSystem(4, has_central=True)
    track = track_levels(s, 1.0, np.linspace(0.8, 1.0, 11), n_levels=4)
    assert track.crossings == []


def test_one_point_track_is_what_spectrum_writes(capsys):
    s = SpinSystem(4, has_central=True)
    track = track_levels(s, 1.0, [0.0])
    assert track.crossings == [] and track.flagged_intervals == []
    assert main(["spectrum", "--n", "4", "--c-steps", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["crossings"] == []
    assert payload["records"] == {str(label): [{"c": c, "energy": e} for c, e in points]
                                  for label, points in track.tracked_levels.items()}
    empty = track_levels(s, 1.0, [])
    assert (empty.tracked_levels, empty.crossings) == ({}, [])


def test_track_levels_validates_grid(monkeypatch):
    s = SpinSystem(4, has_central=True)
    with pytest.raises(DomainError):
        track_levels(s, 1.0, [0.3, 0.2])
    with pytest.raises(DomainError):
        track_levels(s, 1.0, [0.5, 1.5])
    with pytest.raises(DomainError):
        track_levels(s, 1.0, [0.0, 1.0], n_levels=1)
    # non-finite values: rejected before any solve and without a numpy warning
    solved = []
    monkeypatch.setattr(spectral, "solve", lambda *a, **k: solved.append(a))
    for grid in ([0.0, np.nan], [np.inf, np.inf]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError):
                track_levels(s, 1.0, grid)
        assert caught == [], grid
    assert solved == []


def test_an_empty_grid_still_checks_J():
    s = SpinSystem(4, has_central=True)
    for J in (np.nan, 1e101):
        for run in (lambda: track_levels(s, J, []),
                    lambda: run_sweep(SweepConfig(n_outer=4, J=J, c_grid=[]))):
            with pytest.raises(DomainError, match="^J must be 0 or a normal float"):
                run()


def test_grid_check_names_the_first_bad_c():
    s = SpinSystem(4, has_central=True)
    for cs, named in (([0.5, 2.0, -1.0, np.nan], "2.0"), ([0.5, np.nan, 2.0], "nan"),
                      ([-0.0, 1.0, -1e-300], "-1e-300")):
        with pytest.raises(DomainError, match=rf"^c must lie in \[0,1\], got {named}$"):
            next(spectral._grid_chunks(s, 1.0, cs))
    # J is checked before any c
    with pytest.raises(DomainError, match="^J must be"):
        next(spectral._grid_chunks(s, np.inf, [2.0]))


@pytest.mark.parametrize("c", [[0.2, 0.9], [], np.array([0.5])])
def test_solve_takes_exactly_one_c(c):
    with pytest.raises(DomainError, match="^solve takes one c, got"):
        solve(SpinSystem(4, has_central=True), 1.0, c)


def test_solve_takes_a_numpy_scalar_c():
    s = SpinSystem(4, has_central=True)
    want = solve(s, 1.0, 0.25).eigenvalues.tobytes()
    for c in (np.float64(0.25), np.array(0.25)):
        assert solve(s, 1.0, c).eigenvalues.tobytes() == want


@pytest.mark.parametrize("n_outer", range(2, 10))
def test_momentum_blocks_split_the_spectrum(n_outer):
    s = SpinSystem(n_outer, has_central=True)
    blocks = spectral._momentum_blocks(s)
    stacks = blocks.stacks
    # a complex block at k stands for itself and its conjugate at -k
    copies = [1 + np.iscomplexobj(ring) for ring, _ in stacks]
    assert sum(ring.shape[0] * ring.shape[1] * k
               for (ring, _), k in zip(stacks, copies)) == s.dimension
    np.testing.assert_array_equal(blocks.first,
                                  np.cumsum([0] + [ring.shape[0] for ring, _ in stacks]))
    for ring, star in stacks:
        for block in (ring, star):
            np.testing.assert_array_equal(block, block.conj().transpose(0, 2, 1))
    for J in (1.0, 0.7):
        for c in (0.0, 0.3, 0.694, 1.0):
            vals = [np.repeat(np.linalg.eigvalsh(J * (c * star + (1.0 - c) * ring)),
                              k, axis=0).ravel()
                    for (ring, star), k in zip(stacks, copies)]
            np.testing.assert_allclose(np.sort(np.concatenate(vals)),
                                       solve(s, J, c).eigenvalues, rtol=0, atol=1e-12)


def _block_arrays(blocks):
    """Every array of a ``_Blocks``, by name: each stack's ring and star, every
    expansion map, ``gather``, ``entries``, ``matrix`` and ``first``."""
    arrays = {}
    for s, (ring, star) in enumerate(blocks.stacks):
        arrays.update({f"ring{s}": ring, f"star{s}": star})
    for s, expands in enumerate(blocks.maps):
        for b, expand in enumerate(expands):
            arrays.update({f"{name}{s}.{b}": a
                           for name, a in zip(("states", "rows", "amps"), expand)})
    arrays.update({name: getattr(blocks, name)
                   for name in ("gather", "entries", "matrix", "first")})
    return arrays


@pytest.mark.parametrize("n_outer", range(2, 13))
def test_momentum_blocks_equal_sector_by_sector_build_bytewise(n_outer):
    s = SpinSystem(n_outer, has_central=True)
    new = _block_arrays(spectral._momentum_blocks(s))
    old = _block_arrays(oracle.momentum_blocks(s))
    assert new.keys() == old.keys()
    for name, a in new.items():
        b = old[name]
        assert (a.dtype, a.shape, a.flags.writeable) == (b.dtype, b.shape, False), name
        assert a.tobytes() == b.tobytes(), name


def test_n12_block_build_memory():
    s = SpinSystem(12, has_central=True)
    spectral._momentum_blocks.cache_clear()
    tracemalloc.start()
    try:
        spectral._momentum_blocks(s)  # cached, so what it holds stays traced
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 16 * 2**20  # 15.3 MiB
    # 25.0 MiB; the sector-by-sector build with np.stack peaked at 29.29 MiB
    assert peak <= 29.3 * 2**20


def _refine_by_overlap(system, J, c_lo, c_hi, n_levels):
    """Oracle of one bracket of ``_refine_crossing``: bisect until the ground
    level's overlap continuation label changes, with a full solve at every step."""
    def groups_at(c):
        return oracle.dense_groups(solve(system, J, c), n_levels)

    def labeled(labels, groups):
        return {lab: v for lab, (_, v) in zip(labels, groups)}

    groups = groups_at(c_lo)
    labeled_lo = labeled(range(len(groups)), groups)
    ground_lo, ground_hi = 0, oracle.all_pairs_match_groups(labeled_lo, groups_at(c_hi))[0][0]
    min_gap = np.inf
    while c_hi - c_lo > spectral.CROSSING_WIDTH:
        c_mid = 0.5 * (c_lo + c_hi)
        groups = groups_at(c_mid)
        labels = oracle.all_pairs_match_groups(labeled_lo, groups)[0]
        energies = {lab: e for lab, (e, _) in zip(labels, groups)}
        if ground_lo in energies and ground_hi in energies:
            min_gap = min(min_gap, abs(energies[ground_lo] - energies[ground_hi]))
        if labels[0] == ground_lo:
            c_lo, labeled_lo = c_mid, labeled(labels, groups)
        else:
            c_hi = c_mid
    return c_lo, c_hi, float(min_gap)


@pytest.mark.parametrize("n_outer, steps, n_levels",
                         [(n, 401, 6) for n in range(2, 8)] + [(4, 201, 4)])
def test_block_bisection_matches_overlap_bisection(monkeypatch, n_outer, steps, n_levels):
    s = SpinSystem(n_outer, has_central=True)
    grid = np.linspace(0.0, 1.0, steps)
    by_blocks = track_levels(s, 1.0, grid, n_levels)

    def by_overlap(system, J, brackets):
        return [_refine_by_overlap(system, J, c_lo, c_hi, n_levels)
                for c_lo, c_hi, _ in brackets]

    monkeypatch.setattr(spectral, "_refine_crossing", by_overlap)
    oracle = track_levels(s, 1.0, grid, n_levels)
    assert len(by_blocks.crossings) == len(oracle.crossings) > 0
    for new, old in zip(by_blocks.crossings, oracle.crossings):
        assert (new.c_lo, new.c_hi, new.labels) == (old.c_lo, old.c_hi, old.labels)
        assert abs(new.min_gap - old.min_gap) <= 1e-12


def test_ends_with_the_same_ground_blocks_bisect_without_solving(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a bisection step solved")

    monkeypatch.setattr(spectral, "solve", refuse)
    # N=4: the ground blocks at 0.5 and 1 agree, but change at c ~ 0.531 and back
    n4_system = SpinSystem(4, has_central=True)
    ends = oracle.bracket_ends(n4_system, 1.0, 0.5, 1.0)
    [(lo, hi, gap)] = spectral._refine_crossing(n4_system, 1.0, [(0.5, 1.0, ends)])
    assert (lo, hi) == (0.5314207077026367, 0.5314216613769531)
    assert gap < 1e-5
    assert (lo, hi, gap) == oracle.full_refine_crossing(n4_system, 1.0, 0.5, 1.0)
    # N=6: no bisection midpoint in [0.5, 1] has other ground blocks than the ends
    n6_system = SpinSystem(6, has_central=True)
    ends = oracle.bracket_ends(n6_system, 1.0, 0.5, 1.0)
    assert spectral._refine_crossing(n6_system, 1.0, [(0.5, 1.0, ends)]) == [None]
    assert oracle.full_refine_crossing(n6_system, 1.0, 0.5, 1.0) is None


def _tracks_agree(a, b):
    return ((a.crossings, a.tracked_levels, a.flagged_intervals)
            == (b.crossings, b.tracked_levels, b.flagged_intervals))


def _by_point(track):
    """c -> {label: energy} of a ``LevelTrack``."""
    points = {}
    for label, levels in track.tracked_levels.items():
        for c, energy in levels:
            points.setdefault(c, {})[label] = energy
    return points


def _before(track, c):
    """The part of a ``LevelTrack`` that lies below c."""
    return ([x for x in track.crossings if x.c_hi < c],
            {c_: levels for c_, levels in _by_point(track).items() if c_ < c},
            [x for x in track.flagged_intervals if x[1] < c])


@pytest.mark.parametrize("J", [1.0, 0.7, -1.0])
@pytest.mark.parametrize("n_outer", range(2, 9))
def test_pruned_bisection_and_matching_equal_their_references(monkeypatch, n_outer, J):
    """On every interval where the ground label or the ground-block set changes,
    ``_refine_crossing`` returns the full-evaluation tuple (or None), whether the
    intervals are bisected together (the tracker's call) or alone, and the
    tracker's output equals that of the dense tracker, which scores every pair
    of level groups with an SVD of their dense bases.  At N <= 3 the overlaps meet
    exact ties, which round-off decides on either path: there the labels may
    first differ only at a grid point where the dense matching met a tie, and
    everything below it agrees."""
    s = SpinSystem(n_outer, has_central=True)
    grid = np.linspace(0.0, 1.0, 401 if n_outer <= 7 else 41)
    refine = spectral._refine_crossing
    refined = []

    def checked(system, J, brackets):
        got = refine(system, J, brackets)
        for (c_lo, c_hi, _), x in zip(brackets, got, strict=True):
            assert x == oracle.full_refine_crossing(system, J, c_lo, c_hi), (c_lo, c_hi)
        refined.extend(got)
        return got

    for n_levels in (2, 4, 6):
        dense, ties = oracle.dense_track(s, J, grid, n_levels)
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "_refine_crossing", checked)
            blocked = track_levels(s, J, grid, n_levels)
        if n_outer >= 4 or _tracks_agree(blocked, dense):
            assert _tracks_agree(blocked, dense)
        else:
            got, want = _by_point(blocked), _by_point(dense)
            first = min(c for c in want if got.get(c) != want[c])
            assert first in ties
            assert _before(blocked, first) == _before(dense, first)
    extremes, grounds = spectral._grid_ground_blocks(s, J, grid)
    for i, (a, b) in enumerate(zip(grounds, grounds[1:])):
        if a != b:
            checked(s, J, [(grid[i], grid[i + 1], extremes[i:i + 2])])
    # the ground changes at every J > 0, and at J < 0 for odd N only
    assert any(x is not None for x in refined) == (J > 0 or n_outer % 2 == 1)


def test_pruned_bisection_on_the_n4_region_grid():
    s = SpinSystem(4, has_central=True)
    grid = np.linspace(0.0, 1.0, 201).tolist()
    extremes, grounds = spectral._grid_ground_blocks(s, 1.0, grid)
    found = [i for i, (a, b) in enumerate(zip(grounds, grounds[1:])) if a != b]
    assert len(found) == 2
    refined = spectral._refine_crossing(s, 1.0, [(grid[i], grid[i + 1], extremes[i:i + 2])
                                                 for i in found])
    assert refined == [oracle.full_refine_crossing(s, 1.0, grid[i], grid[i + 1])
                       for i in found]
    assert n4.detect_regions() == tuple(x[:2] for x in refined)
    # a bracket already narrower than CROSSING_WIDTH: its one midpoint is not bisected
    again = spectral._refine_crossing(s, 1.0, [(lo, hi, oracle.bracket_ends(s, 1.0, lo, hi))
                                               for lo, hi, _ in refined])
    for (lo, hi, _), x in zip(refined, again, strict=True):
        assert x[:2] == (lo, hi) and np.isfinite(x[2])
        assert x == oracle.full_refine_crossing(s, 1.0, lo, hi)


# a bracket as (width, where it starts in the room the width leaves): most of
# them hold no change of the ground set; some are already narrower than
# CROSSING_WIDTH, which is bisected no further
_BRACKETS = st.lists(st.tuples(st.one_of(st.floats(1e-3, 0.5), st.floats(1e-9, 1e-6)),
                               st.floats(0.0, 1.0)), min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(n_outer=st.integers(2, 8), magnitude=st.floats(0.4, 2.3), sign=st.sampled_from([1, -1]),
       brackets=_BRACKETS)
def test_pruned_bisection_equals_full_evaluation_on_any_bracket(n_outer, magnitude, sign,
                                                                 brackets):
    # the brackets of one call are bisected together; each must come out as alone
    s = SpinSystem(n_outer, has_central=True)
    J = sign * magnitude
    bounds = [(at * (1.0 - width), at * (1.0 - width) + width) for width, at in brackets]
    got = spectral._refine_crossing(s, J, [(lo, hi, oracle.bracket_ends(s, J, lo, hi))
                                           for lo, hi in bounds])
    assert got == [oracle.full_refine_crossing(s, J, lo, hi) for lo, hi in bounds]


@pytest.mark.parametrize("n_outer, c_lo, c_hi", [(8, 0.25, 0.5), (10, 0.36, 0.3625)])
def test_bisection_diagonalizes_few_blocks_per_midpoint(monkeypatch, n_outer, c_lo, c_hi):
    s = SpinSystem(n_outer, has_central=True)
    n_blocks = spectral._momentum_blocks(s).first[-1]
    midpoints = int(np.ceil(np.log2((c_hi - c_lo) / spectral.CROSSING_WIDTH)))
    eigvalsh, given_matrices = np.linalg.eigvalsh, []

    def counted(a):
        given_matrices.append(int(np.prod(a.shape[:-2])))
        return eigvalsh(a)

    ends = np.stack([next(spectral._grid_chunks(s, 1.0, [c])).extremes[0] for c in (c_lo, c_hi)])
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    # every block at both ends, as a bisection without a grid pass takes them
    full = oracle.bracket_ends(s, 1.0, c_lo, c_hi)
    [refined] = spectral._refine_crossing(s, 1.0, [(c_lo, c_hi, full)])
    full_ends = sum(given_matrices)
    given_matrices.clear()
    [from_grid] = spectral._refine_crossing(s, 1.0, [(c_lo, c_hi, ends)])
    monkeypatch.undo()
    assert refined is not None and from_grid == refined
    # every block at both ends, and a few per midpoint: not every block at every
    # midpoint (840 matrices at N = 8, 868 at N = 10)
    assert full_ends <= 2 * n_blocks + 6 * midpoints
    # the ends' eigenvalues from the grid pass save both full end evaluations
    assert full_ends - sum(given_matrices) == 2 * n_blocks
    assert refined == oracle.full_refine_crossing(s, 1.0, c_lo, c_hi)


def test_refinement_probes_few_points_and_reads_min_gap_at_the_midpoints(monkeypatch,
                                                                         tmp_path):
    """The brackets of perfbench's paper-small commands and sweep-n8's N = 8
    bracket [0.25, 0.5]: each takes at most 5 closure probes, and the ``min_gap``
    pass, the last ``_extremes`` call of a refinement, reads two matrices, a and
    b, at every midpoint that bisecting the bracket alone visits."""
    extremes, closure, refine = spectral._extremes, spectral._midpoint_blocks, \
        spectral._refine_crossing
    given, probed, calls = [], [], []

    def counted(blocks, J, c, picks):
        given.append(list(zip(c.tolist(), picks.tolist())))
        return extremes(blocks, J, c, picks)

    def probing(blocks, J, c, *args):
        probed.extend(c.tolist())
        return closure(blocks, J, c, *args)

    def recorded(system, J, brackets):  # with its probes and its last _extremes call's reads
        start = len(probed)
        refined = refine(system, J, brackets)
        calls.append((system, J, brackets, refined, probed[start:], given[-1]))
        return refined

    monkeypatch.setattr(spectral, "_extremes", counted)
    monkeypatch.setattr(spectral, "_midpoint_blocks", probing)
    monkeypatch.setattr(spectral, "_refine_crossing", recorded)
    monkeypatch.setattr(n4, "_refine_crossing", recorded)
    n4.detect_regions.cache_clear()
    paper = ["--c-steps", "50", "--refs", "ring,star"]
    for k, argv in enumerate((["sweep", "--n", "4", *paper], ["sweep", "--n", "5", *paper],
                              ["sweep", "--n", "6", *paper],
                              ["spectrum", "--n", "4", "--c-steps", "50"], ["ghz"],
                              ["sweep", "--n", "8", "--c-max", "0.5", "--c-steps", "2"])):
        assert main([*argv, "--out", str(tmp_path / f"{k}.out")]) == 0
    monkeypatch.undo()
    probes = []
    for system, J, brackets, refined, probed_in_call, read in calls:
        for (c_lo, c_hi, _), x in zip(brackets, refined, strict=True):
            visited = []
            assert x == oracle.full_refine_crossing(system, J, c_lo, c_hi, visited)
            probes.append(sum(c_lo < c < c_hi for c in probed_in_call))
            inside = [(c, m) for c, m in read if c_lo < c < c_hi]
            assert sorted({c for c, _ in inside}) == sorted(visited), (system.n_outer, c_lo)
            assert len(inside) == 2 * len(visited) and len({m for _, m in inside}) == 2
    assert len(probes) == 11 and max(probes) <= 5, probes
    assert [len(brackets) for _, _, brackets, *_ in calls] == [2, 3, 1, 2, 2, 1]


def _depth(c_lo: float, c_hi: float) -> int:
    """The number of halvings bisection makes of [c_lo, c_hi], by its stop test."""
    depth = 0
    while c_hi - c_lo > spectral.CROSSING_WIDTH:
        c_hi, depth = 0.5 * (c_lo + c_hi), depth + 1
    return depth


@settings(max_examples=60, deadline=None)
@given(n_outer=st.integers(2, 8), magnitude=st.floats(0.4, 2.3), sign=st.sampled_from([1, -1]),
       width=st.floats(1e-6, 0.5), at=st.floats(0.0, 1.0))
def test_refinement_probes_at_most_twice_per_halving(n_outer, magnitude, sign, width, at):
    s = SpinSystem(n_outer, has_central=True)
    J = sign * magnitude
    lo = at * (1.0 - width)
    hi = lo + width
    closure, probed = spectral._midpoint_blocks, []

    def probing(blocks, J, c, *args):
        probed.extend(c.tolist())
        return closure(blocks, J, c, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_midpoint_blocks", probing)
        spectral._refine_crossing(s, J, [(lo, hi, oracle.bracket_ends(s, J, lo, hi))])
    assert len(probed) <= 2 * _depth(lo, hi) + 2


def test_bisection_ends_come_from_the_grid_pass(monkeypatch):
    extremes, given = spectral._extremes, []  # the c values of each call

    def counted(blocks, J, c, *args):
        given.append(set(c.tolist()))
        return extremes(blocks, J, c, *args)

    monkeypatch.setattr(spectral, "_extremes", counted)
    grid = np.linspace(0.0, 0.5, 3)
    track = track_levels(SpinSystem(8, has_central=True), 1.0, grid, 4)
    assert len(track.crossings) == 1
    # the tracker's bisection diagonalized no end: every c lies inside the bracket
    assert given and all(grid[1] < c < grid[2] for c in set().union(*given))
    given.clear()
    n4.detect_regions.cache_clear()
    assert len(n4.detect_regions()) == 2
    scan = set(np.linspace(0.0, 1.0, 201).tolist())
    # the region scan, whose rows both bisections read, is the one call at grid points
    assert [len(c & scan) for c in given if c & scan] == [201]
    assert len(given) > 1 and given[0] == scan


@pytest.mark.parametrize("n_outer", [6, 9])
@pytest.mark.parametrize("J", [1.0, -0.7])
def test_extremes_kernel_agrees_on_a_grid_and_per_point(n_outer, J):
    s = SpinSystem(n_outer, has_central=True)
    blocks = spectral._momentum_blocks(s)
    grid, every = np.linspace(0.0, 1.0, 7), np.arange(blocks.first[-1])
    # every matrix at every c, one c per pick
    low, top = (x.reshape(grid.size, every.size) for x in spectral._extremes(
        blocks, J, np.repeat(grid, every.size), np.tile(every, grid.size)))
    for i, c in enumerate(grid.tolist()):
        one_low, one_top = spectral._extremes(blocks, J, np.full(every.size, c), every)
        assert one_low.tobytes() == low[i].tobytes() and one_top.tobytes() == top[i].tobytes()
        np.testing.assert_allclose(low[i], oracle.ground_blocks(s, J, c)[0], rtol=0, atol=1e-12)
        # a subset of the matrices, across stacks and out of order: one value per pick
        picks = every[1::3][::-1]
        part_low, part_top = spectral._extremes(blocks, J, np.full(picks.size, c), picks)
        assert part_low.shape == part_top.shape == picks.shape
        assert part_low.tobytes() == low[i, picks].tobytes()
        assert part_top.tobytes() == top[i, picks].tobytes()
    # every matrix picked twice, in no order, each pick at a c of its own
    picks = np.random.default_rng(0).permutation(np.tile(every, 2))
    point = np.random.default_rng(1).integers(grid.size, size=picks.size)
    mixed_low, mixed_top = spectral._extremes(blocks, J, grid[point], picks)
    assert mixed_low.tobytes() == low[point, picks].tobytes()
    assert mixed_top.tobytes() == top[point, picks].tobytes()


def _held_levels(chunk, i, n_levels):
    """For each group of ``oracle.group_bounds`` at point i of a chunk: matrix ->
    the levels it holds."""
    bounds = oracle.group_bounds(chunk.spectrum(i), n_levels)
    held = []
    for start, stop in zip(bounds, bounds[1:]):
        levels = {}
        for m, level in zip(chunk.blocks[i, start:stop].tolist(),
                            chunk.levels[i, start:stop].tolist()):
            levels.setdefault(m, set()).add(level)
        held.append(levels)
    return held


def _counted_svds(monkeypatch):
    svd, shapes = np.linalg.svd, []

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return shapes


def test_level_matching_takes_an_svd_only_for_levels_degenerate_in_a_matrix(monkeypatch):
    s, grid, n_levels = SpinSystem(5, has_central=True), np.linspace(0.0, 1.0, 51), 4
    shapes = _counted_svds(monkeypatch)
    track_levels(s, 1.0, grid, n_levels)
    monkeypatch.undo()
    # one SVD per (pair of consecutive points, group pair, matrix both groups
    # hold) where a group holds two or more levels of that matrix
    expected, single, prev = [], 0, None
    for chunk, i in ((chunk, i) for chunk in spectral._grid_chunks(s, 1.0, grid)
                     for i in range(chunk.c.size)):
        held = _held_levels(chunk, i, n_levels)
        for now in held:
            for before in prev or []:
                for m in now.keys() & before.keys():
                    if len(now[m]) * len(before[m]) > 1:
                        expected.append((len(before[m]), len(now[m])))
                    else:
                        single += 1
        prev = held
    assert single > len(expected) > 0
    assert sorted(shapes) == sorted(expected)


def test_256_level_spectrum_takes_no_svd_for_single_levels(monkeypatch, capsys):
    shapes = _counted_svds(monkeypatch)
    assert main(["spectrum", "--n", "7", "--c-steps", "100", "--levels", "256"]) == 0
    capsys.readouterr()
    assert shapes and (1, 1) not in shapes


def test_solve_labels_each_level_by_its_block():
    s = SpinSystem(5, has_central=True)
    blocks = spectral._momentum_blocks(s)
    matrices = [(ring[b], star[b], 1 + np.iscomplexobj(ring))
                for ring, star in blocks.stacks for b in range(ring.shape[0])]
    chunk = next(spectral._grid_chunks(s, 0.7, [0.3]))
    ev, labels, extremes, v = (chunk.eigenvalues[0], chunk.blocks[0], chunk.extremes[0],
                               chunk.spectrum(0).vectors())
    for m, (ring, star, copies) in enumerate(matrices):
        cols = np.flatnonzero(labels == m)
        expected = np.repeat(np.linalg.eigvalsh(0.7 * (0.3 * star + 0.7 * ring)), copies)
        np.testing.assert_allclose(ev[cols], expected, rtol=0, atol=1e-12)
        others = v[:, labels != m]
        assert np.abs(v[:, cols].T @ others).max() <= 1e-12
        # the extremes are the label's first and last eigenvalue, bit for bit
        assert extremes[:, m].tolist() == ev[cols[[0, -1]]].tolist()
    assert extremes.shape == (2, len(matrices))
    np.testing.assert_array_equal(next(oracle.sz_block_grid_chunks(s, 0.7, [0.3])).blocks, 0)


@settings(max_examples=25, deadline=None)
@given(n_outer=st.integers(2, 7), steps=st.integers(1, 40), n_levels=st.sampled_from([4, 6]))
def test_every_crossing_changes_the_ground_blocks(n_outer, steps, n_levels):
    s = SpinSystem(n_outer, has_central=True)
    for x in track_levels(s, 1.0, np.linspace(0.0, 1.0, steps + 1), n_levels).crossings:
        assert np.isfinite(x.min_gap)
        assert (oracle.ground_blocks(s, 1.0, x.c_lo)[1]
                != oracle.ground_blocks(s, 1.0, x.c_hi)[1])


@pytest.mark.parametrize("n_outer", range(2, 8))
def test_solve_equals_dense_path_exactly(n_outer):
    s = SpinSystem(n_outer, has_central=True)
    for J in (1.0, 0.7):
        for c in (0.0, 0.3, 0.5, 0.694, 1.0):
            spec = oracle.sz_block_solve(s, J, c)
            dense = eigendecompose(build_combined(s, CouplingConfig(J=J, c=c)))
            np.testing.assert_array_equal(spec.eigenvalues, dense.eigenvalues)
            np.testing.assert_array_equal(spec.vectors(), dense.vectors())


def test_solve_keeps_builder_guards():
    with pytest.raises(DomainError):
        solve(SpinSystem(1, has_central=True), 1.0, 0.5)  # no ring bond
    with pytest.raises(DomainError):
        solve(SpinSystem(4, has_central=False), 1.0, 0.5)  # no star without centre
    with pytest.raises(DomainError):
        solve(SpinSystem(3, has_central=True), float("nan"), 0.5)
    with pytest.raises(DomainError):
        solve(SpinSystem(3, has_central=True), 1.0, 1.5)
    blocks = spectral._momentum_blocks(SpinSystem(3, has_central=True))
    arrays = [a for stack in blocks.stacks for a in stack]
    arrays += [a for maps in blocks.maps for expand in maps for a in expand]
    arrays += [blocks.gather, blocks.entries, blocks.matrix, blocks.first]
    assert not any(a.flags.writeable for a in arrays)


def test_sweep_then_tracking_builds_blocks_once():
    spectral._momentum_blocks.cache_clear()
    grid = np.linspace(0.0, 1.0, 5)
    run_sweep(SweepConfig(n_outer=4, c_grid=grid))
    track = track_levels(SpinSystem(4, has_central=True), 1.0, grid)
    info = spectral._momentum_blocks.cache_info()
    assert info.misses == 1
    # the sweep's grid pass, the tracker's grid pass, and one lookup for the one
    # bisection call that takes both crossings
    assert len(track.crossings) == 2
    assert info.hits == 2 + 1


@pytest.mark.parametrize("n_outer, steps", [(n, 8) for n in range(2, 8)]
                         + [(8, 400), (9, 20), (10, 2)])
def test_chunk_arrays_equal_one_point_solve(n_outer, steps):
    s = SpinSystem(n_outer, has_central=True)
    grid = np.linspace(0.0, 1.0, steps + 1)
    per_point = sum(ring.nbytes for ring, _ in spectral._momentum_blocks(s).stacks)
    if n_outer >= 8:  # the grid spans several chunks
        assert spectral.GRID_CHUNK_BYTES // per_point < grid.size
    for J in (1.0, 0.7):
        solved = []
        for chunk in spectral._grid_chunks(s, J, grid):
            for i, c in enumerate(chunk.c.tolist()):
                one = next(spectral._grid_chunks(s, J, [c]))
                for name in ("c", "eigenvalues", "blocks", "levels", "extremes"):
                    assert getattr(chunk, name)[i].tobytes() == getattr(one, name)[0].tobytes()
                for u, u_one in zip(chunk.vectors, one.vectors, strict=True):
                    assert u[i].tobytes() == u_one[0].tobytes()
                assert chunk.first.tobytes() == one.first.tobytes()
                spec, one_spec = chunk.spectrum(i), solve(s, J, c)
                assert spec.eigenvalues.tobytes() == one_spec.eigenvalues.tobytes()
                assert spec.vectors(8).tobytes() == one_spec.vectors(8).tobytes()
                solved.append(c)
        assert solved == grid.tolist()


def test_n12_sweep_holds_no_more_than_one_point(tmp_path):
    spectral._momentum_blocks(SpinSystem(12, has_central=True))  # cached, 15 MiB
    tracemalloc.start()
    try:
        assert main(["sweep", "--n", "12", "--c-steps", "2",
                     "--out", str(tmp_path / "n12.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 8.0 MiB.  Building every stack's matrices before the first eigh, keeping
    # a point's eigenvectors alive through the bisection, or keeping the previous
    # point's while the next is solved each reads 12.5 MiB or more
    assert peak <= 9 * 2**20


def test_grid_generators_keep_no_spectrum_they_handed_out(monkeypatch):
    system, grid = SpinSystem(3, has_central=True), np.linspace(0.0, 1.0, 5)
    config = SweepConfig(n_outer=3, c_grid=grid)
    for chunks in (spectral._grid_chunks(system, 1.0, grid), sweep._recorded_chunks(config, [])):
        chunk = next(chunks)
        assert chunk.c.size == grid.size  # one chunk
        spec = chunk.spectrum(0)
        dropped = weakref.ref(chunk)
        del chunk
        assert dropped() is not None  # a spectrum pins its chunk
        del spec
        # the suspended iterator holds no chunk, so no point outlives its consumer
        assert dropped() is None
        assert next(chunks, None) is None
    # one point per chunk: the reference pass drops each chunk before it asks for
    # the next, and keeps none once the references are made
    monkeypatch.setattr(spectral, "GRID_CHUNK_BYTES", 1)
    grid_chunks, handed = spectral._grid_chunks, []

    def watched(system, J, cs):
        chunks = grid_chunks(system, J, cs)
        while True:
            assert all(ref() is None for ref in handed)
            box = [next(chunks, None)]
            if box[0] is None:
                return
            handed.append(weakref.ref(box[0]))
            yield box.pop()

    monkeypatch.setattr(sweep, "_grid_chunks", watched)
    refs = sweep.make_references(replace(config, references=("ring_eps", "star")))
    assert refs.ring is not None and refs.star is not None
    assert len(handed) == 2 and all(ref() is None for ref in handed)


def _grid_run(n_outer):
    """Records and crossings of a 401-point sweep, built as ``cmd_sweep`` builds them."""
    config = SweepConfig(n_outer=n_outer, references=("ring", "star", "singlet_ansatz"))
    system = SpinSystem(n_outer, has_central=True)
    records = []
    chunks = sweep._recorded_chunks(config, records)
    track = spectral._track(system, config.J, config.n_levels, chunks)
    return records, track.crossings


@pytest.mark.parametrize("n_outer", range(2, 8))
def test_solve_matches_sz_block_oracle_on_the_grid(monkeypatch, n_outer):
    new, new_crossings = _grid_run(n_outer)
    monkeypatch.setattr(sweep, "_grid_chunks", oracle.sz_block_grid_chunks)
    old, old_crossings = _grid_run(n_outer)
    if n_outer != 3:
        # at N = 3 a 3-fold level holds both of the next ground groups, so the overlap
        # continuation meets exact ties there, which round-off decides on either path
        assert new_crossings == old_crossings
    assert len(new) == len(old) == 401
    for a, b in zip(new, old):
        assert a.ground_degeneracy == b.ground_degeneracy, a.c
        np.testing.assert_allclose([a.ground_energy, *a.low_energies],
                                   [b.ground_energy, *b.low_energies], rtol=0, atol=1e-10)
        for name in ("C_nn", "C_nnn", "XX_nn", "XX_nnn", "ZZ_nn", "ZZ_nnn",
                     "O_r", "O_s", "O_p"):
            assert abs(getattr(a, name) - getattr(b, name)) <= 1e-8, (a.c, name)


@pytest.mark.parametrize("n_outer, cs", [(8, (0.0, 0.4002)), (9, (0.694,)),
                                         (10, (0.36008, 1.0))])
def test_solve_columns_are_real_orthonormal_sector_eigenvectors(n_outer, cs):
    s = SpinSystem(n_outer, has_central=True)
    sectors, pairs = oracle.sector_blocks(s)
    for c in cs:
        spec = solve(s, 1.0, c)
        ev, v = spec.eigenvalues, spec.vectors()
        assert v.dtype == np.float64
        np.testing.assert_allclose(v.T @ v, np.eye(s.dimension), rtol=0, atol=1e-12)
        weight = np.array([np.count_nonzero(v[idx], axis=0) for idx in sectors])
        np.testing.assert_array_equal(np.count_nonzero(weight, axis=0), 1)
        tol = 1e-12 * max(1.0, float(ev[-1] - ev[0]))
        for idx, (ring, star), w in zip(sectors, pairs, weight):
            cols = np.flatnonzero(w)
            block = v[np.ix_(idx, cols)]
            residual = (c * star + (1.0 - c) * ring) @ block - block * ev[cols]
            assert np.linalg.norm(residual, axis=0).max(initial=0.0) <= tol


@pytest.mark.parametrize("n_outer", [10, 12])
@pytest.mark.parametrize("J", [1.0, 0.7])
def test_solve_meets_ring_and_star_closed_forms(n_outer, J):
    s = SpinSystem(n_outer, has_central=True)
    ring, star = oracle.free_fermion_ring(n_outer, J)[0], oracle.star_energy(n_outer, J)
    assert abs(solve(s, J, 0.0).eigenvalues[0] - ring) <= 1e-10
    assert abs(solve(s, J, 1.0).eigenvalues[0] - star) <= 1e-10


@pytest.mark.parametrize("n_outer", range(3, 13))
def test_ground_energy_slope_at_the_star_meets_its_closed_form(n_outer):
    # second-order one-sided difference at c = 1, 1 - h and 1 - 2h
    s, h = SpinSystem(n_outer, has_central=True), 1e-4
    e0, e1, e2 = (solve(s, 1.0, c).eigenvalues[0] for c in (1.0, 1.0 - h, 1.0 - 2 * h))
    assert abs((3 * e0 - 4 * e1 + e2) / (2 * h) - oracle.star_slope(n_outer)) <= 1e-6


def test_n12_solve_and_ground_allocate_no_dense_matrix():
    s = SpinSystem(12, has_central=True)
    spectral._momentum_blocks.cache_clear()
    tracemalloc.start()
    try:
        gs = ground_subspace(solve(s, 1.0, 0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gs.basis.shape == (s.dimension, gs.degeneracy)
    assert peak < 64 * 2**20  # a dim x dim float64 matrix alone is 512 MiB


@pytest.mark.parametrize("n_outer", [8, 9])
def test_sector_blocks_equal_dense_slices(n_outer):
    s = SpinSystem(n_outer, has_central=True)
    sectors, pairs = oracle.sector_blocks(s)
    ring, star = build_ring(s).matrix, build_star(s).matrix
    assert np.concatenate(sectors).size == s.dimension
    for idx, (ring_block, star_block) in zip(sectors, pairs):
        np.testing.assert_array_equal(ring_block, ring[np.ix_(idx, idx)])
        np.testing.assert_array_equal(star_block, star[np.ix_(idx, idx)])


def test_sweep_path_forms_no_dense_operator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense Kronecker operator was built")

    monkeypatch.setattr(operators, "_embed", refuse)
    spectral._momentum_blocks.cache_clear()
    n4.detect_regions.cache_clear()
    grid = np.linspace(0.0, 1.0, 3)
    for n_outer in range(4, 9):
        records = run_sweep(SweepConfig(n_outer=n_outer, c_grid=grid,
                                        references=("ring", "star", "singlet_ansatz")))
        assert len(records) == grid.size
    assert len(track_levels(SpinSystem(4, has_central=True), 1.0,
                            np.linspace(0.0, 1.0, 21)).crossings) == 2
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sweep", "--n", "5", "--c-steps", "4",
                     "--refs", "ring,star,ansatz"]) == 0
        assert main(["spectrum", "--n", "4", "--c-steps", "10"]) == 0
        assert main(["ghz"]) == 0
        assert main(["verify-n4"]) == 0
