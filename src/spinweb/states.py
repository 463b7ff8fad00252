"""Quantum states, partial trace, mixing and Uhlmann fidelity."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .system import SpinSystem

NORM_TOL = 1e-12
PSD_TOL = -1e-10


class QuantumState:
    """A quantum state stored as a factor F (dim x rank) with rho = F F-dagger.

    A pure state is the single column F = psi; a mixed state keeps one column
    per support eigenvector.  Construct with :meth:`pure` or :meth:`mixed`;
    both validate their invariants (norm / trace, Hermiticity, positivity) at
    the documented tolerances.
    """

    __slots__ = ("kind", "factor")

    def __init__(self, kind, factor):
        self.kind = kind
        self.factor = factor

    @classmethod
    def pure(cls, amplitudes) -> "QuantumState":
        v = np.asarray(amplitudes, dtype=complex).ravel()
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > 1e-10:
            raise DomainError(f"pure state norm {norm} differs from 1")
        # renormalize away <=1e-10 float noise so downstream tolerances hold
        return cls("pure", (v / norm)[:, None])

    @classmethod
    def mixed(cls, density) -> "QuantumState":
        rho = np.asarray(density, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise DomainError(f"density matrix must be square, got {rho.shape}")
        if abs(np.trace(rho).real - 1.0) > 1e-10 or abs(np.trace(rho).imag) > 1e-10:
            raise DomainError(f"density trace {np.trace(rho)} differs from 1")
        if np.abs(rho - rho.conj().T).max() > 1e-10:
            raise DomainError("density matrix is not Hermitian")
        evals, vecs = np.linalg.eigh(rho)
        if evals.min() < PSD_TOL:
            raise DomainError(f"density matrix has negative eigenvalue {evals.min()}")
        support = evals > 1e-15
        return cls("mixed", vecs[:, support] * np.sqrt(evals[support]))

    @property
    def dimension(self) -> int:
        return self.factor.shape[0]

    @property
    def vector(self) -> np.ndarray:
        if self.kind != "pure":
            raise DomainError("mixed state has no amplitude vector")
        return self.factor[:, 0]

    def density(self) -> np.ndarray:
        """Density matrix F F-dagger."""
        return self.factor @ self.factor.conj().T


def mix(states: Sequence[QuantumState], weights: Sequence[float]) -> QuantumState:
    """Convex mixture sum_i w_i rho_i of states with given weights."""
    weights = np.asarray(weights, dtype=float)
    if len(states) != len(weights):
        raise DomainError("states and weights must have equal length")
    if np.any(weights < 0):
        raise DomainError("weights must be nonnegative")
    if abs(weights.sum() - 1.0) > NORM_TOL:
        raise DomainError(f"weights sum to {weights.sum()}, not 1")
    dims = [s.dimension for s in states]
    if len(set(dims)) > 1:
        raise DomainError(f"states differ in dimension: {dims}")
    return QuantumState("mixed", np.hstack(
        [np.sqrt(w) * s.factor for w, s in zip(weights, states)]))


def partial_trace(state: QuantumState, system: SpinSystem, keep: Sequence[int]) -> QuantumState:
    """Reduced density matrix over the given sites.

    The tensor factors of the output follow the order of ``keep``, which may
    differ from the sites' order in the full system.  The traced sites join
    the rank index of the factor, so no full density is formed.
    """
    keep = list(keep)
    if not keep:
        raise DomainError("keep must be nonempty")
    if len(set(keep)) != len(keep):
        raise DomainError(f"duplicate site labels in keep: {keep}")
    for s in keep:
        system.validate_site(s)

    q = system.n_qubits
    f = state.factor.reshape((2,) * q + (-1,))
    keep_pos = [system.tensor_position(s) for s in keep]
    f = np.moveaxis(f, keep_pos, range(len(keep)))
    return QuantumState("mixed", f.reshape(2 ** len(keep), -1))


@dataclass(frozen=True)
class TwoQubitRDM:
    """A 4x4 two-qubit reduced density matrix.

    When the matrix is block diagonal in the ordering {|00>, |01>, |10>, |11>}
    (a consequence of total-Sz conservation), ``sz_blocks`` exposes the five
    independent entries (v, w, x, y, z) of that block form.
    """

    matrix: np.ndarray
    block_tol: float = 1e-10

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.shape != (4, 4):
            raise DomainError(f"two-qubit RDM must be 4x4, got {m.shape}")

    @classmethod
    def from_state(cls, state: QuantumState) -> "TwoQubitRDM":
        if state.dimension != 4:
            raise DomainError("state dimension must be 4")
        return cls(state.density())

    @property
    def sz_blocks(self):
        """(v, w, x, y, z) when Sz-block-diagonal, else None."""
        m = self.matrix
        off = [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]
        if any(abs(m[i, j]) >= self.block_tol or abs(m[j, i]) >= self.block_tol
               for i, j in off):
            return None
        return (m[0, 0].real, m[1, 1].real, m[2, 2].real, m[3, 3].real, m[1, 2])


def fidelity(rho1: QuantumState, rho2: QuantumState) -> float:
    """Uhlmann fidelity F = [tr sqrt(sqrt(rho1) rho2 sqrt(rho1))]^2.

    With rho_i = F_i F_i-dagger the trace norm of sqrt(rho1) sqrt(rho2) equals
    that of F1-dagger F2, so F is the squared sum of its singular values: a
    rank1 x rank2 problem.  For two pure states this is |<psi1|psi2>|^2; for
    projector mixtures B_i/sqrt(d_i) it is (sum sigma)^2/(d1 d2) (Jozsa 1994).
    """
    if rho1.dimension != rho2.dimension:
        raise DomainError(
            f"dimension mismatch: {rho1.dimension} vs {rho2.dimension}"
        )
    sv = np.linalg.svd(rho1.factor.conj().T @ rho2.factor, compute_uv=False)
    return min(float(sv.sum() ** 2), 1.0)
