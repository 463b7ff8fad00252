"""Ring, star and combined Hamiltonians."""

import numpy as np
import pytest

from spinweb import (
    CouplingConfig,
    DomainError,
    SpinSystem,
    build_combined,
    build_ring,
    build_star,
    total_sz,
    xx_coupling,
)


def test_ring_matches_explicit_bond_sum():
    s = SpinSystem(4, has_central=True)
    expected = sum(
        xx_coupling(s, i, i % 4 + 1).matrix for i in range(1, 5))
    np.testing.assert_allclose(build_ring(s, 1.0).matrix, expected)


def test_star_matches_explicit_bond_sum():
    s = SpinSystem(4, has_central=True)
    expected = sum(xx_coupling(s, 0, i).matrix for i in range(1, 5))
    np.testing.assert_allclose(build_star(s, 1.0).matrix, expected)


def test_combined_interpolates_linearly():
    s = SpinSystem(3, has_central=True)
    ring = build_ring(s).matrix
    star = build_star(s).matrix
    for c in (0.0, 0.3, 1.0):
        h = build_combined(s, CouplingConfig(J=2.0, c=c)).matrix
        np.testing.assert_allclose(h, 2.0 * (c * star + (1 - c) * ring))


def test_hamiltonians_commute_with_total_sz():
    s = SpinSystem(4, has_central=True)
    sz = total_sz(s).matrix
    for h in (build_ring(s).matrix, build_star(s).matrix):
        np.testing.assert_allclose(h @ sz - sz @ h, 0.0, atol=1e-12)


def test_ring_ignores_central_qubit():
    s = SpinSystem(3, has_central=True)
    h = build_ring(s).matrix
    # flipping the central bit (index offset dim/2) leaves matrix elements alone
    half = s.dimension // 2
    np.testing.assert_allclose(h[:half, :half], h[half:, half:])
    np.testing.assert_allclose(h[:half, half:], 0.0, atol=1e-15)


def test_two_site_ring_counts_its_bond_twice():
    s = SpinSystem(2, has_central=True)
    np.testing.assert_allclose(build_ring(s).matrix, 2.0 * xx_coupling(s, 1, 2).matrix)
    with pytest.raises(DomainError):
        build_ring(SpinSystem(1, has_central=True))  # no ring bond at all


def test_star_requires_central_qubit():
    with pytest.raises(DomainError):
        build_star(SpinSystem(3, has_central=False))


def test_coupling_config_validates_c():
    with pytest.raises(DomainError):
        CouplingConfig(c=1.5)
    with pytest.raises(DomainError):
        CouplingConfig(c=-0.1)
