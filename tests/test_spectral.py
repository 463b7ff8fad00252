"""Deterministic eigensolver, ground subspace, level tracking."""

import numpy as np
import pytest

from spinweb import (
    CouplingConfig,
    DomainError,
    HermitianOperator,
    SpinSystem,
    build_combined,
    eigendecompose,
    ground_subspace,
    track_levels,
)


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


def test_track_levels_validates_grid():
    s = SpinSystem(4, has_central=True)
    with pytest.raises(DomainError):
        track_levels(s, 1.0, [0.5])
    with pytest.raises(DomainError):
        track_levels(s, 1.0, [0.3, 0.2])
    with pytest.raises(DomainError):
        track_levels(s, 1.0, [0.5, 1.5])
    with pytest.raises(DomainError):
        track_levels(s, 1.0, [0.0, 1.0], n_levels=1)
