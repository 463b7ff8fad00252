"""Ring, star and combined XX Hamiltonians."""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .errors import DomainError
from .operators import HermitianOperator, xx_coupling
from .system import SpinSystem


@dataclass(frozen=True)
class CouplingConfig:
    """Overall coupling J (J>0 antiferromagnetic) and star weight c in [0,1]."""

    J: float = 1.0
    c: float = 0.0

    def __post_init__(self):
        # the spectrum scales with J; the cap keeps J * H clear of float overflow,
        # and a subnormal J would keep only a few bits of it
        if not (self.J == 0 or sys.float_info.min <= abs(self.J) <= 1e100):
            raise DomainError(f"J must be 0 or a normal float with |J| <= 1e100, got {self.J}")
        if not 0.0 <= self.c <= 1.0:
            raise DomainError(f"c must lie in [0,1], got {self.c}")


def ring_bonds(system: SpinSystem) -> list[tuple[int, int]]:
    """The ring's site pairs (i, i+1), i = 1..N, with N+1 = 1."""
    n = system.n_outer
    if n < 2:
        raise DomainError(f"a ring needs n_outer >= 2, got {n}")
    return [(i, i % n + 1) for i in range(1, n + 1)]


def star_bonds(system: SpinSystem) -> list[tuple[int, int]]:
    """The star's site pairs (0, i), i = 1..N."""
    if not system.has_central:
        raise DomainError("build_star requires a system with a central qubit")
    return [(0, i) for i in range(1, system.n_outer + 1)]


def build_ring(system: SpinSystem, J: float = 1.0) -> HermitianOperator:
    """Nearest-neighbour XX ring on the outer sites, periodic boundary.

    H = J * sum_{i=1..N} (sx_i sx_{i+1} + sy_i sy_{i+1}) with N+1 = 1; the
    central qubit (if present) is untouched.  For N=2 the periodic sum counts
    the single bond twice.
    """
    return HermitianOperator(
        J * sum(xx_coupling(system, a, b).matrix for a, b in ring_bonds(system)))


def build_star(system: SpinSystem, J: float = 1.0) -> HermitianOperator:
    """Star XX coupling of every outer site to the central qubit.

    H = J * sum_{i=1..N} (sx_0 sx_i + sy_0 sy_i).
    """
    return HermitianOperator(
        J * sum(xx_coupling(system, a, b).matrix for a, b in star_bonds(system)))


def build_combined(system: SpinSystem, config: CouplingConfig) -> HermitianOperator:
    """Weighted interpolation H = J * [c * H_star + (1-c) * H_ring]."""
    ring = build_ring(system, 1.0)
    star = build_star(system, 1.0)
    return HermitianOperator(
        config.J * (config.c * star.matrix + (1.0 - config.c) * ring.matrix)
    )
