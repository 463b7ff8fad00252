"""c-sweeps: per-point entanglement records, reference overlaps, singlet ansatz."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .entanglement import concurrence_symmetric, concurrence_wootters
from .errors import DomainError
from .spectral import _check_grid, _grid_chunks, _ground_bound, ground_subspace
from .states import QuantumState, TwoQubitRDM, fidelity, partial_trace, sz_blocked
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
        if not 0.0 <= self.ring_eps <= 1.0:  # also rejects nan
            raise DomainError(f"ring_eps must lie in [0, 1], got {self.ring_eps}")
        if self.n_levels < 1:
            raise DomainError(f"n_levels must be >= 1, got {self.n_levels}")
        if self.n_outer < 2:  # the ring builder's check, ahead of the site pairs'
            raise DomainError(f"a ring needs n_outer >= 2, got {self.n_outer}")
        for name, (a, b) in (("nn", self.nn_pair), ("nnn", self.resolved_nnn_pair)):
            if a == b or not {a, b} <= set(range(self.n_outer + 1)):
                raise DomainError(f"{name} pair {a}:{b} must be two different sites "
                                  f"of 0..{self.n_outer}")

    @property
    def resolved_nnn_pair(self) -> tuple[int, int]:
        """``nnn_pair``, or by default the next-to-nearest outer pair on the ring:
        (1, 3), or (1, 2) when N=2."""
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
    vec = np.zeros(system.dimension, dtype=complex)
    masks = [(system.site_mask(a), system.site_mask(b)) for a, b in pairs]
    amp = (1.0 / np.sqrt(2.0)) ** len(pairs)
    for choice in product((0, 1), repeat=len(pairs)):
        idx = 0
        sign = 1.0
        for (ma, mb), bit in zip(masks, choice):
            if bit == 0:  # |0_a 1_b>
                idx |= mb
            else:  # -|1_a 0_b>
                idx |= ma
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
    ``ring_eps``) and star (c = 1) grounds come from one ``_grid_chunks`` pass,
    which solves each distinct c once."""
    system = SpinSystem(config.n_outer, has_central=True)
    refs = config.references
    ring_c = config.ring_eps if "ring_eps" in refs else 0.0 if "ring" in refs else None
    star_c = 1.0 if "star" in refs else None
    grounds = {}  # c -> ground density; equal c values share one
    for chunk in _grid_chunks(system, config.J, sorted({ring_c, star_c} - {None})):
        grounds.update((c, ground_subspace(chunk.spectrum(i)).density)
                       for i, c in enumerate(chunk.c.tolist()))
        del chunk  # unbound before the next chunk is solved
    ring, star = grounds.get(ring_c), grounds.get(star_c)
    ansatz_n = config.n_outer if "singlet_ansatz" in refs else None
    return ReferenceSet(ring=ring, star=star, ansatz_n_outer=ansatz_n)


@lru_cache(maxsize=None)
def _span_basis(n_outer: int) -> np.ndarray:
    """Orthonormal basis T V w^-1/2 of the covering-term span, from the eigenpairs
    (w, V) of T^dagger T; w <= 1e-12 max(w) are dependent terms (N=3), dropped.
    The terms hold the central spin for odd N and only the outer spins for even N."""
    t = np.column_stack(ansatz_terms(n_outer, include_central=n_outer % 2 == 1))
    w, v = np.linalg.eigh(t.conj().T @ t)
    keep = w > 1e-12 * w.max()
    q = t @ (v[:, keep] / np.sqrt(w[keep]))
    q.setflags(write=False)
    return q


def ansatz_overlap(n_outer: int, state: QuantumState) -> float:
    """Best overlap of the singlet-covering span with a ground state.

    It is scale * sigma_max(Q^dagger F)^2 for an orthonormal basis Q of the
    span.  Odd N: F is the ground factor, scale its rank (the degeneracy), and
    the value is <psi|P|psi> for the best ansatz state and ground projector P.
    Even N: the central spin is unpaired in the ansatz and traced out of F.
    """
    odd = n_outer % 2 == 1
    factor = partial_trace(state, SpinSystem(n_outer, has_central=True),
                           range(0 if odd else 1, n_outer + 1)).factor
    scale = factor.shape[1] if odd else 1
    sigma = np.linalg.norm(_span_basis(n_outer).conj().T @ factor, 2)
    return float(min(scale * sigma ** 2, 1.0))


def reference_overlaps(record_state: QuantumState, refs: ReferenceSet):
    """Fidelities (O_r, O_s, O_p) of a ground state with the references."""
    o_r = fidelity(record_state, refs.ring) if refs.ring is not None else None
    o_s = fidelity(record_state, refs.star) if refs.star is not None else None
    o_p = None
    if refs.ansatz_n_outer is not None:
        o_p = ansatz_overlap(refs.ansatz_n_outer, record_state)
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
        return concurrence_symmetric(rdm)
    return concurrence_wootters(rdm)


def _pair_rows(system: SpinSystem, pair: tuple[int, int]) -> np.ndarray:
    """Basis indices by the bits (a, b) of the sites ``pair``: row 2a + b holds the
    states with those bits, in one order of the other sites' bits shared by all
    four rows."""
    a, b = (system.site_mask(site) for site in pair)
    rest = np.arange(system.dimension)
    rest = rest[(rest & (a | b)) == 0]
    return np.stack((rest, rest | b, rest | a, rest | a | b))


def _pair_rdms(system: SpinSystem, factors: np.ndarray, pair: tuple[int, int]) -> np.ndarray:
    """The 4 x 4 reduced densities over ``pair`` (site order as in ``partial_trace``)
    of the states F F-dagger, F each (dim x rank) matrix of ``factors``: one
    batched product of the rows of ``_pair_rows``, the other sites and the rank
    taken together as the traced index."""
    f = factors[:, _pair_rows(system, pair)].reshape(factors.shape[0], 4, -1)
    return f @ f.conj().swapaxes(1, 2)


def _rdm_observables(rdms: np.ndarray):
    """Concurrence, <sigma_x sigma_x> = 2 Re(rho_03 + rho_12) and <sigma_z sigma_z>
    = rho_00 + rho_33 - rho_11 - rho_22 of each 4 x 4 RDM of ``rdms``, as three
    arrays.  The concurrence is ``concurrence_symmetric``'s formula for an RDM in
    Sz-block form (``sz_blocked``) and ``concurrence_wootters`` for any other."""
    v, w, x, y = (rdms[:, k, k].real for k in range(4))
    xx = 2.0 * (rdms[:, 0, 3] + rdms[:, 1, 2]).real
    zz = v + y - w - x
    conc = np.minimum(2.0 * np.maximum(
        np.abs(rdms[:, 1, 2]) - np.sqrt(np.maximum(v, 0.0) * np.maximum(y, 0.0)), 0.0), 1.0)
    for i in np.flatnonzero(~sz_blocked(rdms)).tolist():
        conc[i] = concurrence_wootters(TwoQubitRDM(rdms[i]))
    return conc, xx, zz


def _overlaps(refs: ReferenceSet, factors: np.ndarray, deg: np.ndarray):
    """O_r, O_s and O_p (each an array, or None without its reference) of the
    ground states F F-dagger, F each matrix of ``factors``, zero-padded, of
    degeneracies ``deg``: one batched SVD of F-dagger R per reference basis R, in
    which zero columns of F add only zero singular values.  O_r and O_s are
    ``fidelity``'s min((sum sigma)^2, 1).  O_p is ``ansatz_overlap``'s
    min(scale * sigma_max^2, 1) with R the covering-span basis; for even N the
    central spin (the leading bit) is traced out, which makes F the outer-spin
    factor [F_0, F_1] of its rows with central bit 0 and with central bit 1."""
    def singular_values(f, r):
        return np.linalg.svd(f.conj().swapaxes(1, 2) @ r, compute_uv=False)

    o_r, o_s = (None if ref is None else
                np.minimum(singular_values(factors, ref.factor).sum(axis=1) ** 2, 1.0)
                for ref in (refs.ring, refs.star))
    n, o_p = refs.ansatz_n_outer, None
    if n is not None:
        if n % 2 == 0:
            half = factors.shape[1] // 2
            factors = np.concatenate((factors[:, :half], factors[:, half:]), axis=2)
        sigma = singular_values(factors, _span_basis(n))[:, 0]
        o_p = np.minimum((deg if n % 2 else 1) * sigma ** 2, 1.0)
    return o_r, o_s, o_p


def _chunk_records(config: SweepConfig, refs: ReferenceSet, chunk) -> list[SweepRecord]:
    """The SweepRecords of the grid points of a solve chunk, all at once:
    ``ground_subspace``'s degeneracy from the chunk's eigenvalue rows, one
    zero-padded (points x dim x max-degeneracy) array of the ground factors
    B / sqrt(deg) from ``_Chunk.columns``, one batched RDM product per pair and
    ``_overlaps``."""
    system = SpinSystem(config.n_outer, has_central=True)
    cs, ev = chunk.c.tolist(), chunk.eigenvalues
    deg = np.count_nonzero(ev <= _ground_bound(ev[..., :1], ev[..., -1:]), axis=1)
    factors = chunk.columns(deg) / np.sqrt(deg)[:, None, None]
    try:
        nn, nnn = (_rdm_observables(_pair_rdms(system, factors, pair))
                   for pair in (config.nn_pair, config.resolved_nnn_pair))
    except DomainError as exc:
        raise DomainError(f"sweep failed for c in [{cs[0]}, {cs[-1]}]: {exc}") from exc
    none = [None] * len(cs)
    o_r, o_s, o_p = (none if o is None else o.tolist() for o in _overlaps(refs, factors, deg))
    c_nn, xx_nn, zz_nn = (a.tolist() for a in nn)
    c_nnn, xx_nnn, zz_nnn = (a.tolist() for a in nnn)
    low = ev[:, :config.n_levels].tolist()
    return [SweepRecord(c=c, ground_energy=e[0], ground_degeneracy=d, low_energies=tuple(e),
                        C_nn=c_nn[i], C_nnn=c_nnn[i], XX_nn=xx_nn[i], XX_nnn=xx_nnn[i],
                        ZZ_nn=zz_nn[i], ZZ_nnn=zz_nnn[i], O_r=o_r[i], O_s=o_s[i], O_p=o_p[i])
            for i, (c, e, d) in enumerate(zip(cs, low, deg.tolist()))]


def _recorded_chunks(config: SweepConfig, records: list):
    """An iterator of the ``_Chunk`` of each solve chunk of the grid of ``config``,
    in order, from one ``_grid_chunks`` pass.  The records of each chunk are built
    together by ``_chunk_records`` and appended to ``records`` before the chunk is
    handed out; the iterator keeps no chunk it handed out, so a consumer that
    unbinds each one holds one chunk and its ground factors at a time."""
    refs, system = make_references(config), SpinSystem(config.n_outer, has_central=True)

    def recorded(chunk):
        records.extend(_chunk_records(config, refs, chunk))
        return chunk

    return map(recorded, _grid_chunks(system, config.J, config.c_grid))


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Compute one SweepRecord per grid point, in grid order, from one
    ``_grid_chunks`` pass, a solve chunk at a time."""
    records: list[SweepRecord] = []
    # consumed without binding a chunk, which would stay alive while the next is solved
    deque(_recorded_chunks(config, records), maxlen=0)
    return records
