"""Spin-network topology and computational-basis indexing.

Basis convention
----------------
A basis index ``b`` encodes the qubits as bits, with the central qubit
(site label 0, when present) as the most significant bit, followed by the
outer qubits 1..N in order of decreasing significance.  Bit value 0 means
spin-up |0> (sigma_z eigenvalue +1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, ResourceLimitError

#: Most qubits a system may hold (N=12 outer spins plus the central one), the
#: largest size that the tests check against the closed-form ring and star energies.
MAX_QUBITS = 13


@dataclass(frozen=True)
class SpinSystem:
    """Topology descriptor: N outer qubits, optionally one central qubit.

    Parameters
    ----------
    n_outer : int
        Number of outer (ring) qubits, labelled 1..N.
    has_central : bool
        Whether the central qubit (label 0) is present.
    """

    n_outer: int
    has_central: bool = True

    def __post_init__(self):
        if self.n_outer < 1:
            raise DomainError(f"n_outer must be positive, got {self.n_outer}")
        # compare qubit counts: 2**n_qubits is never formed for a huge n_outer
        if self.n_qubits > MAX_QUBITS:
            raise ResourceLimitError(
                f"{self.n_qubits} qubits exceed the size cap of "
                f"{MAX_QUBITS} (n_outer <= {MAX_QUBITS - 1} with the central qubit)"
            )

    @property
    def n_qubits(self) -> int:
        return self.n_outer + (1 if self.has_central else 0)

    @property
    def dimension(self) -> int:
        return 1 << self.n_qubits

    @property
    def sites(self) -> tuple[int, ...]:
        """All valid site labels, central first when present."""
        first = 0 if self.has_central else 1
        return tuple(range(first, self.n_outer + 1))

    def validate_site(self, site: int) -> None:
        if site not in self.sites:
            raise DomainError(
                f"site {site} not valid for system with n_outer={self.n_outer}, "
                f"has_central={self.has_central}"
            )

    def validate_state(self, state) -> None:
        if state.dimension != self.dimension:
            raise DomainError(f"state dimension {state.dimension} does not match the "
                              f"system's {self.dimension} ({self.n_qubits} qubits)")

    def tensor_position(self, site: int) -> int:
        """Position of a site in the tensor-product factor order (0 = MSB)."""
        self.validate_site(site)
        if self.has_central:
            return site
        return site - 1

    def site_mask(self, site: int) -> int:
        """The basis-index bit that holds a site: 1 << (n_qubits - 1 - position)."""
        return 1 << (self.n_qubits - 1 - self.tensor_position(site))

    def bit_of(self, basis_index: int, site: int) -> int:
        """Bit value of a site in a computational-basis index."""
        return int(basis_index & self.site_mask(site) != 0)

    def magnetization(self, basis_index: int) -> int:
        """Total sigma_z eigenvalue of a basis state (n_qubits - 2*popcount)."""
        return self.n_qubits - 2 * int(basis_index).bit_count()
