"""Deterministic eigensolver, ground subspace, level tracking."""

import contextlib
import io
import warnings

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
from spinweb import n4, operators, spectral
from spinweb.cli import main
from spinweb.spectral import solve
from spinweb.sweep import SweepConfig, run_sweep


def _solve(n_outer, c, J=1.0):
    s = SpinSystem(n_outer, has_central=True)
    h = build_combined(s, CouplingConfig(J=J, c=c))
    return eigendecompose(h)


def test_eigendecomposition_reconstructs_matrix():
    spec = _solve(3, 0.4)
    h = build_combined(SpinSystem(3, True), CouplingConfig(c=0.4)).matrix
    recon = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.conj().T
    np.testing.assert_allclose(recon, h, atol=1e-10)
    # orthonormal columns
    gram = spec.eigenvectors.conj().T @ spec.eigenvectors
    np.testing.assert_allclose(gram, np.eye(h.shape[0]), atol=1e-10)


def test_eigenvalues_ascending_and_match_numpy():
    spec = _solve(4, 0.3)
    h = build_combined(SpinSystem(4, True), CouplingConfig(c=0.3)).matrix
    np.testing.assert_allclose(spec.eigenvalues, np.linalg.eigvalsh(h), atol=1e-10)


def test_eigenvectors_are_sector_pure():
    # even degenerate eigenvectors must carry a single magnetization each
    s = SpinSystem(4, has_central=True)
    spec = _solve(4, 0.0)
    mags = np.array([s.magnetization(b) for b in range(s.dimension)])
    for k in range(s.dimension):
        v = spec.eigenvectors[:, k]
        present = {m for m, a in zip(mags, v) if abs(a) > 1e-10}
        assert len(present) == 1


def test_eigendecompose_is_deterministic():
    a = _solve(5, 0.5)
    b = _solve(5, 0.5)
    np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
    np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)


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


def test_track_levels_validates_grid(monkeypatch):
    s = SpinSystem(4, has_central=True)
    with pytest.raises(DomainError):
        track_levels(s, 1.0, [0.5])
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


@pytest.mark.parametrize("n_outer", range(2, 10))
def test_momentum_blocks_split_the_spectrum(n_outer):
    s = SpinSystem(n_outer, has_central=True)
    stacks = spectral._momentum_blocks(s)
    # a complex block at k stands for itself and its conjugate at -k
    assert sum(ring.shape[1] * ids.size for ring, _, ids in stacks) == s.dimension
    ids = np.concatenate([ids.ravel() for _, _, ids in stacks])
    np.testing.assert_array_equal(np.sort(ids), np.arange(ids.size))
    for ring, star, ids in stacks:
        assert ids.shape[1] == (2 if np.iscomplexobj(ring) else 1)
        for block in (ring, star):
            np.testing.assert_array_equal(block, block.conj().transpose(0, 2, 1))
    for J in (1.0, 0.7):
        for c in (0.0, 0.3, 0.694, 1.0):
            vals = [np.repeat(np.linalg.eigvalsh(J * (c * star + (1.0 - c) * ring)),
                              ids.shape[1], axis=0).ravel()
                    for ring, star, ids in stacks]
            np.testing.assert_allclose(np.sort(np.concatenate(vals)),
                                       solve(s, J, c).eigenvalues, rtol=0, atol=1e-12)


def _refine_by_overlap(system, J, c_lo, c_hi, n_levels):
    """Oracle of ``_refine_crossing``: bisect until the ground level's overlap
    continuation label changes, with a full solve at every step."""
    def groups_at(c):
        return spectral._low_groups(solve(system, J, c), n_levels)

    labeled_lo = {lab: v for lab, (_, v) in enumerate(groups_at(c_lo))}
    ground_lo, ground_hi = 0, spectral._match_groups(labeled_lo, groups_at(c_hi))[0]
    min_gap = np.inf
    while c_hi - c_lo > spectral.CROSSING_WIDTH:
        c_mid = 0.5 * (c_lo + c_hi)
        groups = groups_at(c_mid)
        labels = spectral._match_groups(labeled_lo, groups)
        energies = {lab: e for lab, (e, _) in zip(labels, groups)}
        if ground_lo in energies and ground_hi in energies:
            min_gap = min(min_gap, abs(energies[ground_lo] - energies[ground_hi]))
        if labels[0] == ground_lo:
            c_lo, labeled_lo = c_mid, {lab: v for lab, (_, v) in zip(labels, groups)}
        else:
            c_hi = c_mid
    return c_lo, c_hi, float(min_gap)


@pytest.mark.parametrize("n_outer, steps, n_levels",
                         [(n, 401, 6) for n in range(2, 8)] + [(4, 201, 4)])
def test_block_bisection_matches_overlap_bisection(monkeypatch, n_outer, steps, n_levels):
    s = SpinSystem(n_outer, has_central=True)
    grid = np.linspace(0.0, 1.0, steps)
    by_blocks = spectral._track(s, 1.0, grid, n_levels)

    def by_overlap(system, J, c_lo, c_hi):
        return _refine_by_overlap(system, J, c_lo, c_hi, n_levels)

    monkeypatch.setattr(spectral, "_refine_crossing", by_overlap)
    oracle = spectral._track(s, 1.0, grid, n_levels)
    assert len(by_blocks.crossings) == len(oracle.crossings) > 0
    for new, old in zip(by_blocks.crossings, oracle.crossings):
        assert (new.c_lo, new.c_hi, new.labels) == (old.c_lo, old.c_hi, old.labels)
        assert abs(new.min_gap - old.min_gap) <= 1e-12


def test_ends_with_the_same_ground_blocks_bisect_without_solving(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a bisection step solved")

    monkeypatch.setattr(spectral, "solve", refuse)
    # N=4: the ground blocks at 0.5 and 1 agree, but change at c ~ 0.531 and back
    lo, hi, gap = spectral._refine_crossing(SpinSystem(4, has_central=True), 1.0, 0.5, 1.0)
    assert (lo, hi) == (0.5314207077026367, 0.5314216613769531)
    assert gap < 1e-5
    # N=6: no bisection midpoint in [0.5, 1] has other ground blocks than the ends
    assert spectral._refine_crossing(SpinSystem(6, has_central=True), 1.0, 0.5, 1.0) is None


@settings(max_examples=25, deadline=None)
@given(n_outer=st.integers(2, 7), steps=st.integers(1, 40), n_levels=st.sampled_from([4, 6]))
def test_every_crossing_changes_the_ground_blocks(n_outer, steps, n_levels):
    s = SpinSystem(n_outer, has_central=True)
    for x in spectral._track(s, 1.0, np.linspace(0.0, 1.0, steps + 1), n_levels).crossings:
        assert np.isfinite(x.min_gap)
        assert (spectral._ground_blocks(s, 1.0, x.c_lo)[1]
                != spectral._ground_blocks(s, 1.0, x.c_hi)[1])


@pytest.mark.parametrize("n_outer", range(2, 8))
def test_solve_equals_dense_path_exactly(n_outer):
    s = SpinSystem(n_outer, has_central=True)
    for J in (1.0, 0.7):
        for c in (0.0, 0.3, 0.5, 0.694, 1.0):
            spec = solve(s, J, c)
            dense = eigendecompose(build_combined(s, CouplingConfig(J=J, c=c)))
            np.testing.assert_array_equal(spec.eigenvalues, dense.eigenvalues)
            np.testing.assert_array_equal(spec.eigenvectors, dense.eigenvectors)


def test_solve_keeps_builder_guards():
    with pytest.raises(DomainError):
        solve(SpinSystem(1, has_central=True), 1.0, 0.5)  # no ring bond
    with pytest.raises(DomainError):
        solve(SpinSystem(4, has_central=False), 1.0, 0.5)  # no star without centre
    with pytest.raises(DomainError):
        solve(SpinSystem(3, has_central=True), float("nan"), 0.5)
    with pytest.raises(DomainError):
        solve(SpinSystem(3, has_central=True), 1.0, 1.5)
    _, pairs = spectral._sector_blocks(SpinSystem(3, has_central=True))
    assert not any(block.flags.writeable for pair in pairs for block in pair)


def test_sweep_then_tracking_builds_blocks_once():
    spectral._sector_blocks.cache_clear()
    grid = np.linspace(0.0, 1.0, 5)
    run_sweep(SweepConfig(n_outer=4, c_grid=grid))
    track_levels(SpinSystem(4, has_central=True), 1.0, grid)
    info = spectral._sector_blocks.cache_info()
    assert info.misses == 1
    assert info.hits > 2 * grid.size  # grid points and references


@pytest.mark.parametrize("n_outer", [8, 9])
def test_sector_blocks_equal_dense_slices(n_outer):
    s = SpinSystem(n_outer, has_central=True)
    sectors, pairs = spectral._sector_blocks(s)
    ring, star = build_ring(s).matrix, build_star(s).matrix
    assert np.concatenate(sectors).size == s.dimension
    for idx, (ring_block, star_block) in zip(sectors, pairs):
        np.testing.assert_array_equal(ring_block, ring[np.ix_(idx, idx)])
        np.testing.assert_array_equal(star_block, star[np.ix_(idx, idx)])


def test_sweep_path_forms_no_dense_operator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense Kronecker operator was built")

    monkeypatch.setattr(operators, "_embed", refuse)
    spectral._sector_blocks.cache_clear()
    n4._regions.cache_clear()
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
