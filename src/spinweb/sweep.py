"""c-sweeps: per-point entanglement records, reference overlaps, singlet ansatz."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import minimize

from .entanglement import concurrence_symmetric, concurrence_wootters, correlation
from .errors import DomainError
from .hamiltonian import CouplingConfig, build_combined
from .spectral import eigendecompose, ground_subspace
from .states import QuantumState, TwoQubitRDM, fidelity, partial_trace
from .system import SpinSystem


def default_c_grid(n_steps: int = 400) -> np.ndarray:
    return np.linspace(0.0, 1.0, n_steps + 1)


@dataclass(frozen=True)
class SweepConfig:
    """Configuration of a c-sweep.

    ``pairs`` holds the (nearest, next-to-nearest) outer site pairs; the
    defaults follow ring adjacency.  ``references`` selects which overlap
    columns are produced: any of "ring", "star", "ring_eps", "singlet_ansatz".
    """

    n_outer: int
    J: float = 1.0
    c_grid: np.ndarray = field(default_factory=default_c_grid)
    nn_pair: tuple[int, int] = (1, 2)
    nnn_pair: Optional[tuple[int, int]] = None
    references: tuple[str, ...] = ("ring", "star")
    ring_eps: float = 0.01
    n_levels: int = 6
    ansatz_phase_steps: int = 24
    allow_double_bond: bool = False

    def __post_init__(self):
        grid = np.asarray(self.c_grid, dtype=float)
        if grid.ndim != 1 or np.any(np.diff(grid) <= 0):
            raise DomainError("c_grid must be strictly increasing")
        if grid[0] < 0 or grid[-1] > 1:
            raise DomainError("c_grid must lie within [0, 1]")
        for ref in self.references:
            if ref not in ("ring", "star", "ring_eps", "singlet_ansatz"):
                raise DomainError(f"unknown reference {ref!r}")
        if "ring" in self.references and "ring_eps" in self.references:
            raise DomainError("references 'ring' and 'ring_eps' fill the same "
                              "O_r column; choose one")
        object.__setattr__(self, "c_grid", grid)

    @property
    def resolved_nnn_pair(self) -> tuple[int, int]:
        if self.nnn_pair is not None:
            return self.nnn_pair
        return (1, 3) if self.n_outer >= 3 else (1, 2)


@dataclass(frozen=True)
class SweepRecord:
    """Per-c snapshot of energies, concurrences, correlations and overlaps."""

    c: float
    ground_energy: float
    ground_degeneracy: int
    low_energies: tuple[float, ...]
    C_nn: float
    C_nnn: float
    XX_nn: float
    XX_nnn: float
    ZZ_nn: float
    ZZ_nnn: float
    O_r: Optional[float] = None
    O_s: Optional[float] = None
    O_p: Optional[float] = None


# ---------------------------------------------------------------------------
# Singlet-ansatz states
# ---------------------------------------------------------------------------

def singlet_coverings(n_outer: int) -> list[list[tuple[int, int]]]:
    """Singlet pairings used by the ansatz.

    Even N: the two nearest-neighbour dimer coverings of the outer ring (the
    central spin stays unpaired).  Odd N: the N ring rotations of the pattern
    where the central spin pairs with the leftover outer spin and the
    remaining outer spins pair up along the ring.
    """
    n = n_outer
    if n < 2:
        raise DomainError(f"n_outer must be >= 2, got {n}")
    if n % 2 == 0:
        cov_a = [(2 * k + 1, 2 * k + 2) for k in range(n // 2)]
        cov_b = [(2 * k + 2, (2 * k + 2) % n + 1) for k in range(n // 2)]
        return [cov_a, cov_b]
    coverings = []
    for j in range(1, n + 1):
        pairs = [(0, j)]
        rest = [(j + k - 1) % n + 1 for k in range(1, n)]
        pairs.extend((rest[2 * k], rest[2 * k + 1]) for k in range((n - 1) // 2))
        coverings.append(pairs)
    return coverings


def _covering_vector(system: SpinSystem, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """State vector of a product of singlets over ``pairs``; unpaired sites |0>."""
    q = system.n_qubits
    vec = np.zeros(system.dimension, dtype=complex)
    positions = [(system.tensor_position(a), system.tensor_position(b)) for a, b in pairs]
    amp = (1.0 / np.sqrt(2.0)) ** len(pairs)
    for choice in product((0, 1), repeat=len(pairs)):
        idx = 0
        sign = 1.0
        for (pa, pb), bit in zip(positions, choice):
            if bit == 0:  # |0_a 1_b>
                idx |= 1 << (q - 1 - pb)
            else:  # -|1_a 0_b>
                idx |= 1 << (q - 1 - pa)
                sign = -sign
        vec[idx] += sign * amp
    return vec


def ansatz_terms(n_outer: int, *, include_central: bool = True) -> list[np.ndarray]:
    """Covering-term vectors of the singlet ansatz.

    For even N with ``include_central=False`` the terms live on the outer
    spins only (the unpaired central factor is dropped); odd-N terms always
    involve the central spin.
    """
    coverings = singlet_coverings(n_outer)
    if n_outer % 2 == 1 and not include_central:
        raise DomainError("odd-N ansatz terms always involve the central spin")
    system = SpinSystem(n_outer, has_central=include_central)
    return [_covering_vector(system, pairs) for pairs in coverings]


def build_singlet_ansatz(n_outer: int, phases: Sequence[complex]) -> QuantumState:
    """Normalized superposition of the covering terms with the given phases.

    ``phases`` must have one unit-modulus coefficient per covering term
    (2 for even N, N for odd N).
    """
    phases = np.asarray(phases, dtype=complex)
    terms = ansatz_terms(n_outer)
    if phases.shape != (len(terms),):
        raise DomainError(
            f"expected {len(terms)} phases for n_outer={n_outer}, got {phases.shape}"
        )
    if np.any(np.abs(np.abs(phases) - 1.0) > 1e-9):
        raise DomainError("phases must have unit modulus")
    vec = sum(p * t for p, t in zip(phases, terms))
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        raise DomainError("covering terms cancel for these phases")
    return QuantumState.pure(vec / norm)


def _rayleigh(angles, gram, overlap):
    a = np.exp(1j * np.concatenate(([0.0], angles)))
    num = np.real(a.conj() @ overlap @ a)
    den = np.real(a.conj() @ gram @ a)
    return num / den


def optimize_ansatz_phases(n_outer: int, target: QuantumState, *,
                           phase_steps: int = 24,
                           terms: Optional[list[np.ndarray]] = None):
    """Maximize the ansatz-target fidelity over the relative term phases.

    Exhaustive search on a uniform phase grid (``phase_steps`` points per free
    phase, the first phase fixed to 1) followed by local Nelder-Mead
    refinement.  Deterministic for a given grid.  Returns (phases, fidelity).
    """
    if terms is None:
        terms = ansatz_terms(n_outer)
    dim = terms[0].shape[0]
    if target.dimension != dim:
        raise DomainError(
            f"target dimension {target.dimension} does not match terms ({dim})"
        )
    t = np.column_stack(terms)
    gram = t.conj().T @ t
    tf = t.conj().T @ target.factor
    overlap = tf @ tf.conj().T

    k = len(terms)
    if k == 1:
        fid = float(np.real(overlap[0, 0] / gram[0, 0]))
        return np.array([1.0 + 0.0j]), fid

    angles_1d = 2.0 * np.pi * np.arange(phase_steps) / phase_steps
    grids = np.meshgrid(*([angles_1d] * (k - 1)), indexing="ij")
    free = np.stack([g.ravel() for g in grids], axis=1)
    a = np.exp(1j * np.concatenate(
        [np.zeros((free.shape[0], 1)), free], axis=1))
    num = np.einsum("nk,kl,nl->n", a.conj(), overlap, a).real
    den = np.einsum("nk,kl,nl->n", a.conj(), gram, a).real
    best = int(np.argmax(num / den))

    res = minimize(lambda ang: -_rayleigh(ang, gram, overlap), free[best],
                   method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
    angles = res.x if -res.fun >= (num / den)[best] else free[best]
    phases = np.exp(1j * np.concatenate(([0.0], angles)))
    return phases, float(_rayleigh(angles, gram, overlap))


# ---------------------------------------------------------------------------
# References and overlaps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReferenceSet:
    """Precomputed reference densities for the overlap columns."""

    ring: Optional[QuantumState] = None
    star: Optional[QuantumState] = None
    ansatz_n_outer: Optional[int] = None
    ansatz_phase_steps: int = 24


def make_references(config: SweepConfig) -> ReferenceSet:
    system = SpinSystem(config.n_outer, has_central=True)

    def ground_density(c):
        h = build_combined(system, CouplingConfig(J=config.J, c=c),
                           allow_double_bond=config.allow_double_bond)
        return ground_subspace(eigendecompose(h)).density

    ring = None
    if "ring_eps" in config.references:
        ring = ground_density(config.ring_eps)
    elif "ring" in config.references:
        ring = ground_density(0.0)
    star = ground_density(1.0) if "star" in config.references else None
    ansatz_n = config.n_outer if "singlet_ansatz" in config.references else None
    return ReferenceSet(ring=ring, star=star, ansatz_n_outer=ansatz_n,
                        ansatz_phase_steps=config.ansatz_phase_steps)


def ansatz_overlap(n_outer: int, state: QuantumState, system: SpinSystem, *,
                   phase_steps: int = 24) -> float:
    """Best singlet-ansatz overlap with a ground state.

    For odd N the overlap is the projection <psi|P|psi> of the optimized
    ansatz onto the ground subspace, so a degenerate ground level does not
    artificially cap the value at 1/degeneracy (the ground density P/deg is
    rescaled by its rank, recovered from the purity).  For even N the central
    spin is unpaired in the ansatz, so the comparison is made on the outer
    spins: the central qubit is traced out of the ground density and the
    outer-only ansatz is optimized against the result (this absorbs the free
    central spin of the degenerate ground mixtures).
    """
    if n_outer % 2 == 1:
        terms = ansatz_terms(n_outer, include_central=True)
        target = state
        g = state.factor.conj().T @ state.factor
        scale = round(1.0 / np.vdot(g, g).real)
    else:
        terms = ansatz_terms(n_outer, include_central=False)
        target = partial_trace(state, system, list(range(1, n_outer + 1)))
        scale = 1.0
    _, fid = optimize_ansatz_phases(n_outer, target, phase_steps=phase_steps,
                                    terms=terms)
    return float(min(scale * fid, 1.0))


def reference_overlaps(record_state: QuantumState, refs: ReferenceSet,
                       system: Optional[SpinSystem] = None):
    """Fidelities (O_r, O_s, O_p) of a ground state with the references."""
    o_r = fidelity(record_state, refs.ring) if refs.ring is not None else None
    o_s = fidelity(record_state, refs.star) if refs.star is not None else None
    o_p = None
    if refs.ansatz_n_outer is not None:
        if system is None:
            system = SpinSystem(refs.ansatz_n_outer, has_central=True)
        o_p = ansatz_overlap(refs.ansatz_n_outer, record_state, system,
                             phase_steps=refs.ansatz_phase_steps)
    return o_r, o_s, o_p


# ---------------------------------------------------------------------------
# The sweep itself
# ---------------------------------------------------------------------------

def pair_concurrence(density: QuantumState, system: SpinSystem,
                     pair: tuple[int, int]) -> float:
    """Concurrence of an outer pair from the full ground density.

    Uses the Sz-block shortcut when the RDM has the block form, otherwise the
    general Wootters construction.
    """
    rdm = TwoQubitRDM.from_state(partial_trace(density, system, list(pair)))
    if rdm.sz_blocks is not None:
        return concurrence_symmetric(rdm).value
    return concurrence_wootters(rdm).value


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Compute one SweepRecord per grid point, in grid order."""
    system = SpinSystem(config.n_outer, has_central=True)
    refs = make_references(config)
    nn = config.nn_pair
    nnn = config.resolved_nnn_pair
    records = []
    for c in config.c_grid:
        try:
            h = build_combined(system, CouplingConfig(J=config.J, c=float(c)),
                               allow_double_bond=config.allow_double_bond)
            spec = eigendecompose(h)
            gs = ground_subspace(spec)
            rho = gs.density
            o_r, o_s, o_p = reference_overlaps(rho, refs, system)
            records.append(SweepRecord(
                c=float(c),
                ground_energy=gs.energy,
                ground_degeneracy=gs.degeneracy,
                low_energies=tuple(float(e) for e in
                                   spec.eigenvalues[:config.n_levels]),
                C_nn=pair_concurrence(rho, system, nn),
                C_nnn=pair_concurrence(rho, system, nnn),
                XX_nn=correlation(rho, system, "x", *nn),
                XX_nnn=correlation(rho, system, "x", *nnn),
                ZZ_nn=correlation(rho, system, "z", *nn),
                ZZ_nnn=correlation(rho, system, "z", *nnn),
                O_r=o_r, O_s=o_s, O_p=o_p,
            ))
        except DomainError as exc:
            raise DomainError(f"sweep failed at c={float(c)}: {exc}") from exc
    return records
