"""Two-qubit entanglement measures and spin-spin correlations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .operators import PAULI, pauli_pair
from .states import QuantumState, TwoQubitRDM
from .system import SpinSystem

_SY_SY = np.kron(PAULI["y"], PAULI["y"])


@dataclass(frozen=True)
class ConcurrenceResult:
    value: float
    method: str  # "wootters" or "symmetric_blocks"


def concurrence_wootters(rho: TwoQubitRDM) -> ConcurrenceResult:
    """Wootters concurrence C = max{0, l1 - l2 - l3 - l4}.

    The l_i are the descending square roots of the eigenvalues of
    rho (sy x sy) rho* (sy x sy).  With A = sqrt(rho) (sy x sy) sqrt(rho)*
    that product is similar to A A-dagger, so the l_i are the singular values
    of A; computing them that way avoids the square-root amplification of
    eigenvalue noise near zero and keeps the four l_i accurate to machine
    precision.
    """
    m = np.asarray(rho.matrix, dtype=complex)
    QuantumState.mixed(m)  # validates trace/Hermiticity/positivity
    evals, vecs = np.linalg.eigh(m)
    sqrt_m = (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.conj().T
    a = sqrt_m @ _SY_SY @ sqrt_m.conj()
    lam = np.linalg.svd(a, compute_uv=False)
    c = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
    return ConcurrenceResult(min(c, 1.0), "wootters")


def concurrence_symmetric(rho: TwoQubitRDM) -> ConcurrenceResult:
    """Concurrence shortcut C = 2 max{|z| - sqrt(v*y), 0} for Sz-block RDMs."""
    blocks = rho.sz_blocks
    if blocks is None:
        raise DomainError(
            "RDM is not Sz-block-diagonal; use concurrence_wootters"
        )
    v, _, _, y, z = blocks
    c = 2.0 * max(abs(z) - np.sqrt(max(v, 0.0) * max(y, 0.0)), 0.0)
    return ConcurrenceResult(min(float(c), 1.0), "symmetric_blocks")


def star_concurrence_closed_form(n_outer: int) -> float:
    """Outer-pair concurrence of the pure star ground state.

    1/N for odd N; 1/N - 1/(N^2 - N) for even N.
    """
    if n_outer < 2:
        raise DomainError(f"n_outer must be >= 2, got {n_outer}")
    n = n_outer
    if n % 2 == 1:
        return 1.0 / n
    return 1.0 / n - 1.0 / (n * n - n)


def entanglement_of_formation(concurrence: float) -> float:
    """Entanglement of formation h((1 + sqrt(1 - C^2)) / 2), h binary entropy."""
    if not 0.0 <= concurrence <= 1.0:
        raise DomainError(f"concurrence must lie in [0,1], got {concurrence}")
    x = 0.5 * (1.0 + np.sqrt(1.0 - concurrence ** 2))
    if x in (0.0, 1.0):
        return 0.0
    return float(-x * np.log2(x) - (1 - x) * np.log2(1 - x))


def correlation(state: QuantumState, system: SpinSystem, axis: str,
                site_i: int, site_j: int) -> float:
    """Two-point correlator <sigma_axis(i) sigma_axis(j)> in the given state."""
    op = pauli_pair(system, site_i, site_j, axis)
    f = state.factor
    val = float(np.real(np.vdot(f, op.matrix @ f)))
    if abs(val) > 1.0 + 1e-10:
        raise DomainError(f"correlator {val} outside [-1, 1]")
    return val
