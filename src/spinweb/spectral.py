"""Deterministic eigensolver, ground-subspace extraction and level tracking."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import count

import numpy as np

from .errors import DomainError
from .hamiltonian import CouplingConfig, ring_bonds, star_bonds
from .operators import HermitianOperator, popcount_sectors
from .states import QuantumState
from .system import SpinSystem

DEGENERACY_TOL = 1e-9
OVERLAP_THRESHOLD = 0.5
CROSSING_WIDTH = 1e-6  # bisection stops once a crossing lies in an interval this wide


@dataclass(frozen=True)
class Spectrum:
    """Full eigendecomposition with ascending eigenvalues."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column i pairs with eigenvalues[i]


def _solve_blocks(blocks, sectors: list[np.ndarray], dim: int) -> Spectrum:
    """Eigh of each sector block, merged in ascending order (ties by sector);
    each sector's eigenvectors go straight into their sorted columns."""
    pairs = [np.linalg.eigh(block) for block in blocks]
    vals = np.concatenate([ev for ev, _ in pairs])
    order = np.argsort(vals, kind="stable")
    column = np.empty(dim, dtype=np.intp)
    column[order] = np.arange(dim)
    vecs = np.zeros((dim, dim), dtype=np.result_type(*(u for _, u in pairs)))
    start = 0
    for idx, (_, u) in zip(sectors, pairs):
        vecs[np.ix_(idx, column[start:start + idx.size])] = u
        start += idx.size
    return Spectrum(vals[order], vecs)


def eigendecompose(H: HermitianOperator) -> Spectrum:
    """Eigendecompose a Hermitian operator deterministically.

    When the dimension is a power of two and the matrix is block diagonal in
    the total-Sz (popcount) sectors, each sector block is diagonalized
    separately and the results reassembled; this is exact for the XX
    Hamiltonians (they commute with total Sz) and keeps degenerate
    eigenvectors sector-pure.  Ties in the final ascending sort are broken by
    sector order, which fixes the output across runs.
    """
    m = H.matrix
    dim = m.shape[0]
    if dim >= 2 and (dim & (dim - 1)) == 0:
        sectors = popcount_sectors(dim)
        mask = np.zeros(m.shape, dtype=bool)
        for idx in sectors:
            mask[np.ix_(idx, idx)] = True
        if np.abs(m[~mask]).max(initial=0.0) < 1e-12:
            return _solve_blocks((m[np.ix_(idx, idx)] for idx in sectors), sectors, dim)
    ev, u = np.linalg.eigh(m)
    return Spectrum(ev, u)


def _bond_block(idx: np.ndarray, masks: list[int]) -> np.ndarray:
    """Read-only block, on the ascending basis states ``idx``, of the XX bonds with
    site-bit ``masks``: sx sx + sy sy = 2 (s+ s- + h.c.) takes a state with exactly
    one of the two bits set to ``state ^ mask``, amplitude 2."""
    block = np.zeros((idx.size, idx.size))
    for m in masks:
        t = idx & m
        hop = np.flatnonzero((t != 0) & (t != m))
        block[hop, np.searchsorted(idx, idx[hop] ^ m)] += 2.0
    block.setflags(write=False)
    return block


@lru_cache(maxsize=1)
def _sector_blocks(system: SpinSystem):
    """Total-Sz sectors and the (ring, star) blocks (J=1) on each, from bit flips;
    equal, entry for entry, to slices of ``build_ring``/``build_star``."""
    def masks(bonds):
        return [system.site_mask(a) | system.site_mask(b) for a, b in bonds]

    ring, star = masks(ring_bonds(system)), masks(star_bonds(system))
    sectors = popcount_sectors(system.dimension)
    return sectors, [(_bond_block(idx, ring), _bond_block(idx, star)) for idx in sectors]


def solve(system: SpinSystem, J: float, c: float) -> Spectrum:
    """Spectrum of J * [c * H_star + (1-c) * H_ring] from Sz blocks built once.

    Equal, bit for bit, to ``eigendecompose(build_combined(...))``.
    """
    config = CouplingConfig(J=J, c=c)
    sectors, pairs = _sector_blocks(system)
    return _solve_blocks((config.J * (config.c * s + (1.0 - config.c) * r)
                          for r, s in pairs), sectors, system.dimension)


@dataclass(frozen=True)
class GroundSubspace:
    """Lowest eigenvalue, its degeneracy, a basis, and the projector mixture."""

    energy: float
    degeneracy: int
    basis: np.ndarray  # dim x degeneracy, orthonormal columns
    density: QuantumState


def ground_subspace(spec: Spectrum) -> GroundSubspace:
    """Extract the (possibly degenerate) ground subspace of a spectrum.

    Degeneracy counts eigenvalues within ``DEGENERACY_TOL * max(1, spectral_range)``
    of the minimum; the density is the normalized projector onto their span,
    which is independent of the basis choice, stored as the factor B/sqrt(deg).
    """
    ev = spec.eigenvalues
    if ev.size == 0:
        raise DomainError("empty spectrum")
    thr = DEGENERACY_TOL * max(1.0, float(ev[-1] - ev[0]))
    deg = int(np.count_nonzero(ev <= ev[0] + thr))
    basis = spec.eigenvectors[:, :deg]
    return GroundSubspace(float(ev[0]), deg, basis,
                          QuantumState("mixed", basis / np.sqrt(deg)))


# ---------------------------------------------------------------------------
# Level tracking across a c-sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Crossing:
    """Refined interval where the ground level's continuation label changes."""

    c_lo: float
    c_hi: float
    labels: tuple[int, int]  # (outgoing ground label, incoming ground label)
    min_gap: float


@dataclass
class LevelTrack:
    c_grid: np.ndarray
    tracked_levels: dict[int, list[tuple[float, float]]]  # label -> [(c, energy)]
    crossings: list[Crossing]
    flagged_intervals: list[tuple[float, float]] = field(default_factory=list)


def _low_groups(spec: Spectrum, n_levels: int):
    """Cluster the lowest eigenvalues into degenerate groups.

    Returns [(energy, basis)] covering at least n_levels eigenstates, ground
    group first; the bases are copies, so they do not pin the spectrum.
    """
    ev = spec.eigenvalues
    thr = DEGENERACY_TOL * max(1.0, float(ev[-1] - ev[0]))
    groups = []
    start = 0
    while start < min(n_levels, ev.size):
        stop = start + 1
        while stop < ev.size and ev[stop] - ev[stop - 1] <= thr:
            stop += 1
        groups.append((float(ev[start:stop].mean()),
                       spec.eigenvectors[:, start:stop].copy()))
        start = stop
    return groups


def _match_groups(prev_labeled: dict[int, np.ndarray], groups) -> list[int]:
    """Greedy assignment of new groups to previous labels by subspace overlap.

    The score is the largest principal-angle cosine between subspaces.  A group
    left unmatched is a level entering the tracked window from above; it gets a
    fresh label, larger than every previous one.
    """
    scores = []
    for gi, (_, v) in enumerate(groups):
        for label, v_prev in prev_labeled.items():
            s = np.linalg.svd(v_prev.conj().T @ v, compute_uv=False)
            scores.append((float(s.max(initial=0.0)), gi, label))
    scores.sort(reverse=True)
    assigned: dict[int, int] = {}
    for s, gi, label in scores:
        if s <= OVERLAP_THRESHOLD:
            break
        if gi not in assigned and label not in assigned.values():
            assigned[gi] = label
    fresh = count(max(prev_labeled, default=-1) + 1)
    return [assigned[gi] if gi in assigned else next(fresh) for gi in range(len(groups))]


def _refine_crossing(groups_at, c_lo, c_hi, labeled_lo, ground_lo, ground_hi):
    """Bisect until the ground-label change is localized; groups_at(c) solves."""
    min_gap = np.inf
    while c_hi - c_lo > CROSSING_WIDTH:
        c_mid = 0.5 * (c_lo + c_hi)
        groups = groups_at(c_mid)
        labels = _match_groups(labeled_lo, groups)
        energies = {lab: e for lab, (e, _) in zip(labels, groups)}
        if ground_lo in energies and ground_hi in energies:
            min_gap = min(min_gap, abs(energies[ground_lo] - energies[ground_hi]))
        if labels[0] == ground_lo:
            c_lo, labeled_lo = c_mid, {lab: v for lab, (_, v) in zip(labels, groups)}
        else:
            c_hi = c_mid
    return c_lo, c_hi, float(min_gap)


def _check_grid(c_grid) -> np.ndarray:
    """A c-grid as a float array, after checking it lies in [0, 1] and increases."""
    grid = np.asarray(c_grid, dtype=float)
    if not np.all((grid >= 0) & (grid <= 1)):  # nan/inf out before np.diff
        raise DomainError("c_grid must lie within [0, 1]")
    if grid.ndim != 1 or np.any(np.diff(grid) <= 0):
        raise DomainError("c_grid must be strictly increasing")
    return grid


def track_levels(system: SpinSystem, J: float, c_grid, n_levels: int = 4) -> LevelTrack:
    """Continue the lowest energy levels across a c-grid and detect crossings.

    Levels are continued between adjacent grid points by maximal
    eigenvector-subspace overlap rather than by energy order, so that a level
    keeps its identity through a crossing.  Every grid interval where the
    ground level's continuation label changes is refined by bisection to a
    width of 1e-6 in c; the minimum gap seen between the two competing levels
    is reported so exact and narrowly avoided crossings can be told apart.
    """
    c_grid = _check_grid(c_grid)
    if c_grid.size < 2:
        raise DomainError("c_grid must have >= 2 points")
    if n_levels < 2:
        raise DomainError("n_levels must be >= 2")
    return _track(system, J, c_grid, n_levels)


def _track(system: SpinSystem, J: float, c_grid: np.ndarray, n_levels: int,
           spectrum_at=None) -> LevelTrack:
    """The loop of ``track_levels``.  ``spectrum_at(c)``, called once per grid
    point in grid order, defaults to ``solve``; the bisection always solves."""
    def solve_at(c):
        return solve(system, J, c)

    def groups_at(c):
        return _low_groups(solve_at(c), n_levels)

    tracked: dict[int, list] = {}
    crossings: list[Crossing] = []
    flagged: list[tuple[float, float]] = []

    prev_labeled: dict[int, np.ndarray] = {}
    prev_ground = None
    prev_c = None
    for c in c_grid.tolist():
        groups = _low_groups((spectrum_at or solve_at)(c), n_levels)
        labels = _match_groups(prev_labeled, groups)
        for lab, (energy, _) in zip(labels, groups):
            tracked.setdefault(lab, []).append((c, energy))
        ground = labels[0]
        if prev_labeled and ground not in prev_labeled:
            # the new ground matched nothing from the previous point
            flagged.append((prev_c, c))
        if prev_ground is not None and ground != prev_ground:
            lo, hi, gap = _refine_crossing(
                groups_at, prev_c, c, prev_labeled, prev_ground, ground)
            crossings.append(Crossing(lo, hi, (prev_ground, ground), gap))
        prev_labeled = {lab: v for lab, (_, v) in zip(labels, groups)}
        prev_ground = ground
        prev_c = c

    return LevelTrack(c_grid, tracked, crossings, flagged)
