"""Deterministic eigensolver, ground-subspace extraction and level tracking."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .hamiltonian import CouplingConfig, build_combined
from .operators import HermitianOperator
from .states import QuantumState
from .system import SpinSystem

DEFAULT_DEGENERACY_TOL = 1e-9
OVERLAP_THRESHOLD = 0.5


@dataclass(frozen=True)
class Spectrum:
    """Full eigendecomposition with ascending eigenvalues."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column i pairs with eigenvalues[i]


def _popcount_sectors(dim: int) -> list[np.ndarray]:
    """Basis indices grouped by popcount (ascending), for dim a power of two."""
    q = dim.bit_length() - 1
    pop = np.array([int(b).bit_count() for b in range(dim)])
    return [np.flatnonzero(pop == k) for k in range(q + 1)]


def _is_sector_block_diagonal(m: np.ndarray, sectors: list[np.ndarray]) -> bool:
    mask = np.zeros(m.shape, dtype=bool)
    for idx in sectors:
        mask[np.ix_(idx, idx)] = True
    return np.abs(m[~mask]).max(initial=0.0) < 1e-12


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
        sectors = _popcount_sectors(dim)
        if _is_sector_block_diagonal(m, sectors):
            vals = []
            vecs = []
            for idx in sectors:
                block = m[np.ix_(idx, idx)]
                ev, u = np.linalg.eigh(block)
                full = np.zeros((dim, len(idx)), dtype=u.dtype)
                full[idx, :] = u
                vals.append(ev)
                vecs.append(full)
            vals = np.concatenate(vals)
            vecs = np.hstack(vecs)
            order = np.argsort(vals, kind="stable")
            return Spectrum(vals[order], vecs[:, order])
    ev, u = np.linalg.eigh(m)
    return Spectrum(ev, u)


@dataclass(frozen=True)
class GroundSubspace:
    """Lowest eigenvalue, its degeneracy, a basis, and the projector mixture."""

    energy: float
    degeneracy: int
    basis: np.ndarray  # dim x degeneracy, orthonormal columns
    density: QuantumState


def ground_subspace(spec: Spectrum, tol_deg: float = DEFAULT_DEGENERACY_TOL) -> GroundSubspace:
    """Extract the (possibly degenerate) ground subspace of a spectrum.

    Degeneracy counts eigenvalues within ``tol_deg * max(1, spectral_range)``
    of the minimum; the density is the normalized projector onto their span,
    which is independent of the basis choice, stored as the factor B/sqrt(deg).
    """
    ev = spec.eigenvalues
    if ev.size == 0:
        raise DomainError("empty spectrum")
    thr = tol_deg * max(1.0, float(ev[-1] - ev[0]))
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
    tracked_levels: dict[int, list[tuple[float, float, np.ndarray]]]
    crossings: list[Crossing]
    flagged_intervals: list[tuple[float, float]] = field(default_factory=list)


def _low_groups(spec: Spectrum, n_levels: int, tol_deg: float):
    """Cluster the lowest eigenvalues into degenerate groups.

    Returns [(energy, basis)] covering at least n_levels eigenstates.
    """
    ev = spec.eigenvalues
    thr = tol_deg * max(1.0, float(ev[-1] - ev[0]))
    groups = []
    start = 0
    covered = 0
    while covered < n_levels and start < ev.size:
        stop = start + 1
        while stop < ev.size and ev[stop] - ev[stop - 1] <= thr:
            stop += 1
        groups.append((float(ev[start:stop].mean()), spec.eigenvectors[:, start:stop]))
        covered += stop - start
        start = stop
    return groups


def _match_groups(prev_labeled: dict[int, np.ndarray], groups):
    """Greedy assignment of new groups to previous labels by subspace overlap.

    The score is the largest principal-angle cosine between subspaces.  Returns
    (labels per group, max assigned score below threshold flag).
    """
    scores = []
    for gi, (_, v) in enumerate(groups):
        for label, v_prev in prev_labeled.items():
            s = np.linalg.svd(v_prev.conj().T @ v, compute_uv=False)
            scores.append((float(s.max(initial=0.0)), gi, label))
    scores.sort(reverse=True)
    assigned: dict[int, int] = {}
    used = set()
    for s, gi, label in scores:
        if gi in assigned or label in used:
            continue
        if s <= OVERLAP_THRESHOLD:
            break
        assigned[gi] = label
        used.add(label)
    next_label = max(prev_labeled, default=-1) + 1
    labels = []
    fresh = []
    for gi in range(len(groups)):
        if gi in assigned:
            labels.append(assigned[gi])
        else:
            # a level entering the tracked window from above gets a new label
            labels.append(next_label)
            fresh.append(gi)
            next_label += 1
    return labels, fresh


def _solve_groups(system: SpinSystem, J: float, c: float, n_levels: int,
                  tol_deg: float, allow_double_bond: bool):
    h = build_combined(system, CouplingConfig(J=J, c=c),
                       allow_double_bond=allow_double_bond)
    return _low_groups(eigendecompose(h), n_levels, tol_deg)


def _refine_crossing(system, J, c_lo, c_hi, labeled_lo, ground_lo, ground_hi,
                     n_levels, tol_deg, allow_double_bond, width=1e-6):
    """Bisect the interval until the ground-label change is localized."""
    min_gap = np.inf
    while c_hi - c_lo > width:
        c_mid = 0.5 * (c_lo + c_hi)
        groups = _solve_groups(system, J, c_mid, n_levels, tol_deg, allow_double_bond)
        labels, _ = _match_groups(labeled_lo, groups)
        energies = {lab: e for lab, (e, _) in zip(labels, groups)}
        if ground_lo in energies and ground_hi in energies:
            min_gap = min(min_gap, abs(energies[ground_lo] - energies[ground_hi]))
        mid_ground = labels[int(np.argmin([e for e, _ in groups]))]
        mid_labeled = {lab: v for lab, (_, v) in zip(labels, groups)}
        if mid_ground == ground_lo:
            c_lo, labeled_lo = c_mid, mid_labeled
        else:
            c_hi = c_mid
    return c_lo, c_hi, float(min_gap)


def track_levels(system: SpinSystem, J: float, c_grid, n_levels: int = 4, *,
                 tol_deg: float = DEFAULT_DEGENERACY_TOL,
                 allow_double_bond: bool = False) -> LevelTrack:
    """Continue the lowest energy levels across a c-grid and detect crossings.

    Levels are continued between adjacent grid points by maximal
    eigenvector-subspace overlap rather than by energy order, so that a level
    keeps its identity through a crossing.  Every grid interval where the
    ground level's continuation label changes is refined by bisection to a
    width of 1e-6 in c; the minimum gap seen between the two competing levels
    is reported so exact and narrowly avoided crossings can be told apart.
    """
    c_grid = np.asarray(c_grid, dtype=float)
    if c_grid.ndim != 1 or c_grid.size < 2 or np.any(np.diff(c_grid) <= 0):
        raise DomainError("c_grid must be strictly increasing with >= 2 points")
    if c_grid[0] < 0 or c_grid[-1] > 1:
        raise DomainError("c_grid must lie within [0, 1]")
    if n_levels < 2:
        raise DomainError("n_levels must be >= 2")

    tracked: dict[int, list] = {}
    crossings: list[Crossing] = []
    flagged: list[tuple[float, float]] = []

    prev_labeled: dict[int, np.ndarray] = {}
    prev_ground = None
    prev_c = None
    for c in c_grid:
        groups = _solve_groups(system, J, float(c), n_levels, tol_deg, allow_double_bond)
        if not prev_labeled:
            labels = list(range(len(groups)))
            fresh = []
        else:
            labels, fresh = _match_groups(prev_labeled, groups)
        for lab, (energy, v) in zip(labels, groups):
            tracked.setdefault(lab, []).append((float(c), energy, v[:, 0].copy()))
        ground_idx = int(np.argmin([e for e, _ in groups]))
        ground = labels[ground_idx]
        if ground_idx in fresh and prev_labeled:
            # the new ground matched nothing from the previous point
            flagged.append((float(prev_c), float(c)))
        if prev_ground is not None and ground != prev_ground:
            lo, hi, gap = _refine_crossing(
                system, J, float(prev_c), float(c), prev_labeled,
                prev_ground, ground, n_levels, tol_deg, allow_double_bond)
            crossings.append(Crossing(lo, hi, (prev_ground, ground), gap))
        prev_labeled = {lab: v for lab, (_, v) in zip(labels, groups)}
        prev_ground = ground
        prev_c = c

    return LevelTrack(c_grid, tracked, crossings, flagged)
