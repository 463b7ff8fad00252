"""c-sweeps: per-point entanglement records, reference overlaps, singlet ansatz."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .entanglement import concurrence_symmetric, concurrence_wootters, correlation
from .errors import DomainError
from .spectral import Spectrum, _check_grid, ground_subspace, solve_grid
from .states import QuantumState, TwoQubitRDM, fidelity, partial_trace
from .system import SpinSystem


def default_c_grid(n_steps: int = 400) -> np.ndarray:
    return np.linspace(0.0, 1.0, n_steps + 1)


@dataclass(frozen=True)
class SweepConfig:
    """Configuration of a c-sweep.

    ``nn_pair`` and ``nnn_pair`` are the (nearest, next-to-nearest) site pairs,
    checked here, before any solve; the defaults follow ring adjacency.  ``references`` selects which overlap
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

    def __post_init__(self):
        object.__setattr__(self, "c_grid", _check_grid(self.c_grid))
        for ref in self.references:
            if ref not in ("ring", "star", "ring_eps", "singlet_ansatz"):
                raise DomainError(f"unknown reference {ref!r}")
        if "ring" in self.references and "ring_eps" in self.references:
            raise DomainError("references 'ring' and 'ring_eps' fill the same "
                              "O_r column; choose one")
        if self.n_levels < 1:
            raise DomainError(f"n_levels must be >= 1, got {self.n_levels}")
        for name, (a, b) in (("nn", self.nn_pair), ("nnn", self.resolved_nnn_pair)):
            if a == b or not {a, b} <= set(range(self.n_outer + 1)):
                raise DomainError(f"{name} pair {a}:{b} must be two different sites "
                                  f"of 0..{self.n_outer}")

    @property
    def resolved_nnn_pair(self) -> tuple[int, int]:
        if self.nnn_pair is not None:
            return self.nnn_pair
        return _default_nnn_pair(self.n_outer)


def _default_nnn_pair(n_outer: int) -> tuple[int, int]:
    """Next-to-nearest outer pair on the ring: (1, 3), or (1, 2) when N=2."""
    return (1, 3) if n_outer >= 3 else (1, 2)


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
    from scipy.optimize import minimize  # here, so importing spinweb loads no scipy
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


def make_references(config: SweepConfig) -> ReferenceSet:
    """The reference densities of ``config.references``; the ring (c = 0 or
    ``ring_eps``) and star (c = 1) grounds come from one ``solve_grid`` pass."""
    system = SpinSystem(config.n_outer, has_central=True)
    refs = config.references
    ring_c = config.ring_eps if "ring_eps" in refs else 0.0 if "ring" in refs else None
    star_c = 1.0 if "star" in refs else None
    points = solve_grid(system, config.J, [c for c in (ring_c, star_c) if c is not None])

    def ground_density(c):
        return None if c is None else ground_subspace(next(points)).density

    ring, star = ground_density(ring_c), ground_density(star_c)
    ansatz_n = config.n_outer if "singlet_ansatz" in refs else None
    return ReferenceSet(ring=ring, star=star, ansatz_n_outer=ansatz_n)


@lru_cache(maxsize=None)
def _span_basis(n_outer: int, include_central: bool) -> np.ndarray:
    """Orthonormal basis T V w^-1/2 of the covering-term span, from the eigenpairs
    (w, V) of T^dagger T; w <= 1e-12 max(w) are dependent terms (N=3), dropped."""
    t = np.column_stack(ansatz_terms(n_outer, include_central=include_central))
    w, v = np.linalg.eigh(t.conj().T @ t)
    keep = w > 1e-12 * w.max()
    q = t @ (v[:, keep] / np.sqrt(w[keep]))
    q.setflags(write=False)
    return q


def ansatz_overlap(n_outer: int, state: QuantumState, system: SpinSystem) -> float:
    """Best overlap of the singlet-covering span with a ground state.

    It is scale * sigma_max(Q^dagger F)^2 for an orthonormal basis Q of the
    span.  Odd N: F is the ground factor, scale its rank (the degeneracy), and
    the value is <psi|P|psi> for the best ansatz state and ground projector P.
    Even N: the central spin is unpaired in the ansatz and traced out of F.
    """
    odd = n_outer % 2 == 1
    factor = state.factor if odd else \
        partial_trace(state, system, list(range(1, n_outer + 1))).factor
    scale = factor.shape[1] if odd else 1
    sigma = np.linalg.norm(_span_basis(n_outer, odd).conj().T @ factor, 2)
    return float(min(scale * sigma ** 2, 1.0))


def reference_overlaps(record_state: QuantumState, refs: ReferenceSet,
                       system: Optional[SpinSystem] = None):
    """Fidelities (O_r, O_s, O_p) of a ground state with the references."""
    o_r = fidelity(record_state, refs.ring) if refs.ring is not None else None
    o_s = fidelity(record_state, refs.star) if refs.star is not None else None
    o_p = None
    if refs.ansatz_n_outer is not None:
        if system is None:
            system = SpinSystem(refs.ansatz_n_outer, has_central=True)
        o_p = ansatz_overlap(refs.ansatz_n_outer, record_state, system)
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


def _record(config: SweepConfig, system: SpinSystem, refs: ReferenceSet,
            c: float, spec: Spectrum) -> SweepRecord:
    """The SweepRecord of the grid point c, built from its spectrum ``spec``."""
    try:
        gs = ground_subspace(spec)
        rho = gs.density
        nn, nnn = config.nn_pair, config.resolved_nnn_pair
        o_r, o_s, o_p = reference_overlaps(rho, refs, system)
        return SweepRecord(
            c=c,
            ground_energy=gs.energy,
            ground_degeneracy=gs.degeneracy,
            low_energies=tuple(float(e) for e in spec.eigenvalues[:config.n_levels]),
            C_nn=pair_concurrence(rho, system, nn),
            C_nnn=pair_concurrence(rho, system, nnn),
            XX_nn=correlation(rho, system, "x", *nn),
            XX_nnn=correlation(rho, system, "x", *nnn),
            ZZ_nn=correlation(rho, system, "z", *nn),
            ZZ_nnn=correlation(rho, system, "z", *nnn),
            O_r=o_r, O_s=o_s, O_p=o_p,
        )
    except DomainError as exc:
        raise DomainError(f"sweep failed at c={c}: {exc}") from exc


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Compute one SweepRecord per grid point, in grid order, from one
    ``solve_grid`` pass."""
    system = SpinSystem(config.n_outer, has_central=True)
    refs = make_references(config)
    points = solve_grid(system, config.J, config.c_grid)
    return [_record(config, system, refs, c, next(points)) for c in config.c_grid.tolist()]
