"""Pauli operator construction and Sz sector decomposition."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DomainError
from .system import SpinSystem

PAULI = {
    "i": np.eye(2),
    "x": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]]),
}

HERMITICITY_TOL = 1e-10


@dataclass(frozen=True)
class HermitianOperator:
    """Dense real-symmetric matrix in the computational basis."""

    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError(f"operator matrix must be square, got shape {m.shape}")
        if np.abs(m - m.conj().T).max() > HERMITICITY_TOL:
            raise DomainError("operator matrix is not Hermitian within tolerance")

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def __add__(self, other: "HermitianOperator") -> "HermitianOperator":
        return HermitianOperator(self.matrix + other.matrix)

    def __mul__(self, scalar: float) -> "HermitianOperator":
        return HermitianOperator(self.matrix * scalar)

    __rmul__ = __mul__


def _embed(system: SpinSystem, factors: dict[int, np.ndarray]) -> np.ndarray:
    """Kronecker product placing 2x2 factors at given sites, identity elsewhere."""
    mats = []
    for site in system.sites:
        mats.append(factors.get(site, PAULI["i"]))
    return reduce(np.kron, mats)


def pauli_site(system: SpinSystem, site: int, axis: str) -> HermitianOperator:
    """Single-site Pauli operator embedded into the full Hilbert space."""
    system.validate_site(site)
    if axis not in ("x", "y", "z"):
        raise DomainError(f"axis must be one of x, y, z, got {axis!r}")
    m = _embed(system, {site: PAULI[axis]})
    if axis != "y":
        m = m.real
    return HermitianOperator(m)


def _check_pair(system: SpinSystem, site_a: int, site_b: int, axis: str) -> None:
    """Reject a bad axis, equal sites or a site the system lacks."""
    if axis not in ("x", "y", "z"):
        raise DomainError(f"axis must be one of x, y, z, got {axis!r}")
    if site_a == site_b:
        raise DomainError(f"site_a and site_b must differ, both are {site_a}")
    system.validate_site(site_a)
    system.validate_site(site_b)


def pauli_pair(system: SpinSystem, site_a: int, site_b: int, axis: str) -> HermitianOperator:
    """Embedded two-site Pauli product sigma_axis(a) * sigma_axis(b).

    The same-axis product is real for every axis (the imaginary parts of the
    two sigma_y factors cancel), so the result is stored real-symmetric.
    """
    _check_pair(system, site_a, site_b, axis)
    m = _embed(system, {site_a: PAULI[axis], site_b: PAULI[axis]})
    if np.abs(m.imag).max() > 1e-14:
        raise DomainError("same-axis Pauli pair should be real")
    return HermitianOperator(np.ascontiguousarray(m.real))


def xx_coupling(system: SpinSystem, site_a: int, site_b: int) -> HermitianOperator:
    """The XX bond sigma_x sigma_x + sigma_y sigma_y on a pair of sites."""
    return pauli_pair(system, site_a, site_b, "x") + pauli_pair(system, site_a, site_b, "y")


def total_sz(system: SpinSystem) -> HermitianOperator:
    """Sum of sigma_z over all sites (diagonal)."""
    diag = system.n_qubits - 2.0 * popcounts(system.dimension)
    return HermitianOperator(np.diag(diag))


@dataclass(frozen=True)
class SzSectorDecomposition:
    """Partition of the basis indices by total-Sz magnetization."""

    sectors: tuple[tuple[int, tuple[int, ...]], ...]

    def indices(self, magnetization: int) -> tuple[int, ...]:
        for m, idx in self.sectors:
            if m == magnetization:
                return idx
        raise DomainError(f"no sector with magnetization {magnetization}")


def popcounts(dim: int) -> np.ndarray:
    """The popcount of each basis index 0..dim-1, summed bit by bit."""
    index = np.arange(dim)
    return sum(((index >> b) & 1 for b in range((dim - 1).bit_length())), np.zeros(dim, int))


def popcount_sectors(dim: int) -> list[np.ndarray]:
    """Basis indices grouped by popcount (ascending), for dim a power of two."""
    pop = popcounts(dim)
    return [np.flatnonzero(pop == k) for k in range(dim.bit_length())]


def total_sz_sectors(system: SpinSystem) -> SzSectorDecomposition:
    """Group basis indices into total-Sz eigenspaces.

    Sectors are ordered by decreasing magnetization (increasing popcount);
    indices within a sector ascend.
    """
    return SzSectorDecomposition(tuple(
        (system.n_qubits - 2 * k, tuple(idx.tolist()))
        for k, idx in enumerate(popcount_sectors(system.dimension))
    ))
