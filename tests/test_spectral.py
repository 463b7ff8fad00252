"""Deterministic eigensolver, ground subspace, level tracking."""

import contextlib
import io
import warnings

import numpy as np
import pytest

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
    assert info.hits > 2 * grid.size  # grid points, references and bisection steps


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
