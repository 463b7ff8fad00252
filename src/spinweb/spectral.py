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


def _bond_masks(system: SpinSystem) -> tuple[list[int], list[int]]:
    """Site-bit masks of the ring bonds and of the star bonds."""
    def masks(bonds):
        return [system.site_mask(a) | system.site_mask(b) for a, b in bonds]

    return masks(ring_bonds(system)), masks(star_bonds(system))


@lru_cache(maxsize=1)
def _sector_blocks(system: SpinSystem):
    """Total-Sz sectors and the (ring, star) blocks (J=1) on each, from bit flips;
    equal, entry for entry, to slices of ``build_ring``/``build_star``."""
    ring, star = _bond_masks(system)
    sectors = popcount_sectors(system.dimension)
    return sectors, [(_bond_block(idx, ring), _bond_block(idx, star)) for idx in sectors]


def _momentum_hops(reps, period, rep_at, shift_at, idx, masks):
    """Hop table of the XX bonds with site-bit ``masks`` between cycle
    representatives: (from a, to b, shift l, amplitude 2 sqrt(R_a / R_b)), where the
    bond takes ``reps[a]`` to the state T^-l ``reps[b]``."""
    frm, to, shift = [], [], []
    for m in masks:
        t = reps & m
        hop = np.flatnonzero((t != 0) & (t != m))
        pos = np.searchsorted(idx, reps[hop] ^ m)
        frm.append(hop)
        to.append(rep_at[pos])
        shift.append(shift_at[pos])
    frm, to, shift = (np.concatenate(x) for x in (frm, to, shift))
    return frm, to, shift, 2.0 * np.sqrt(period[frm] / period[to])


def _momentum_block(hops, keep, n_outer, m):
    """Block of one hop table on the representatives ``keep`` at k = 2 pi m / N:
    the hop a -> b adds amplitude * e^{-ikl} to entry (b, a).  Real at k = 0, pi."""
    frm, to, shift, amp = hops
    pos = np.cumsum(keep) - 1
    inside = keep[frm] & keep[to]
    l = shift[inside]
    if (2 * m) % n_outer:
        phase = np.exp(-2j * np.pi * m * l / n_outer)
    else:  # k = 0 or pi: e^{-ikl} is 1 or (-1)^l, so the block is real
        phase = 1.0 - 2.0 * (l % 2) if m else np.ones(l.size)
    block = np.zeros((int(keep.sum()),) * 2, dtype=phase.dtype)
    np.add.at(block, (pos[to[inside]], pos[frm[inside]]), amp[inside] * phase)
    return 0.5 * (block + block.conj().T)  # exactly Hermitian despite sqrt round-off


@lru_cache(maxsize=1)
def _momentum_blocks(system: SpinSystem):
    """The (Sz, k) blocks (J=1) as stacks ``[(ring, star, ids)]`` of equal-size
    blocks.  ``ids[i]`` numbers the blocks that ``ring[i]``, ``star[i]`` stand for:
    one at k = 0 or pi, where the blocks are real; else two, for k and for -k,
    whose block is the complex conjugate, with the same spectrum.

    k = 2 pi m / N is the momentum of the outer-ring translation T, which commutes
    with H_ring and, since the star couples every outer site equally, with H_star.
    In each Sz sector, rotating the N outer bits (central bit fixed) splits the
    states into cycles; the smallest state a of a cycle of period R_a represents
    |a(k)> = R_a^-1/2 sum_r e^{-ikr} T^r |a>, which exists when m R_a / N is an
    integer.  A bond taking a to T^-l b, with b a representative, adds
    2 sqrt(R_a / R_b) e^{-ikl} to <b(k)|H|a(k)> (Sandvik, arXiv:1101.3281, sec. 4).
    """
    n = system.n_outer
    outer = (1 << n) - 1
    ring, star = _bond_masks(system)
    grouped: dict[tuple, list] = {}
    block_id = count()
    for idx in popcount_sectors(system.dimension):
        o, rots = idx & outer, [idx]  # rots[r] = T^r applied to each state
        for _ in range(n - 1):
            o = ((o << 1) | (o >> (n - 1))) & outer
            rots.append((idx & ~outer) | o)
        rots = np.stack(rots)
        rep_state, shift_at = rots.min(axis=0), rots.argmin(axis=0)
        is_rep = rep_state == idx
        reps = idx[is_rep]
        period = n // np.count_nonzero(rots == idx, axis=0)[is_rep]
        rep_at = np.searchsorted(reps, rep_state)
        tables = [_momentum_hops(reps, period, rep_at, shift_at, idx, masks)
                  for masks in (ring, star)]
        for m in range(n // 2 + 1):
            keep = (m * period) % n == 0
            if not keep.any():
                continue
            r, s = (_momentum_block(t, keep, n, m) for t in tables)
            ids = [next(block_id) for _ in range(1 if 2 * m % n == 0 else 2)]
            grouped.setdefault((r.shape[0], r.dtype.kind), []).append((r, s, ids))
    stacks = []
    for entries in grouped.values():
        r, s, ids = (np.stack(x) for x in zip(*entries))
        for a in (r, s, ids):
            a.setflags(write=False)
        stacks.append((r, s, ids))
    return stacks


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
    """Refined interval where the set of ground (Sz, k) blocks changes."""

    c_lo: float
    c_hi: float
    labels: tuple[int, int]  # (outgoing ground label, incoming ground label)
    min_gap: float  # least gap between the two blocks' lowest levels at the midpoints


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


def _ground_blocks(system: SpinSystem, J: float, c: float):
    """The lowest eigenvalue of each (Sz, k) block at c, and the set of blocks
    whose lowest lies within ``ground_subspace``'s degeneracy threshold of the
    minimum, the range being that of the whole spectrum."""
    config = CouplingConfig(J=J, c=c)
    stacks = _momentum_blocks(system)
    lowest = np.empty(sum(ids.size for _, _, ids in stacks))
    top = -np.inf
    for ring, star, ids in stacks:
        vals = np.linalg.eigvalsh(config.J * (config.c * star + (1.0 - config.c) * ring))
        lowest[ids] = vals[:, :1]
        top = max(top, float(vals[:, -1].max()))
    e0 = float(lowest.min())
    thr = DEGENERACY_TOL * max(1.0, top - e0)
    return lowest, frozenset(np.flatnonzero(lowest <= e0 + thr).tolist())


def _refine_crossing(system, J, c_lo, c_hi):
    """Bisect [c_lo, c_hi] on the set of ground (Sz, k) blocks until its change
    lies within CROSSING_WIDTH.  Returns ``(c_lo, c_hi, min_gap)``, or None when
    no change of that set is found.

    Levels in different blocks cross without repelling, so a ground change is a
    change of the set of ground blocks, and each step reads only block
    eigenvalues: c_lo moves to the midpoint exactly when the midpoint's set is
    c_lo's, else c_hi does.  When both ends have the same set, the first
    midpoint with a different set takes the place of c_hi's; if no midpoint
    differs, there is no crossing.  ``min_gap`` is the least |E_a - E_b| over
    the midpoints (over the one midpoint of an interval already narrower than
    CROSSING_WIDTH), E the lowest eigenvalue of a block, with a the first block
    that leaves the ground set (else the first at c_lo) and b the first that
    enters it (else the first of the other set).
    """
    ground_lo = _ground_blocks(system, J, c_lo)[1]
    ground_hi = _ground_blocks(system, J, c_hi)[1]
    lowests = []
    while c_hi - c_lo > CROSSING_WIDTH:
        c_mid = 0.5 * (c_lo + c_hi)
        lowest, ground = _ground_blocks(system, J, c_mid)
        lowests.append(lowest)
        if ground == ground_lo:
            c_lo = c_mid
        else:
            if ground_hi == ground_lo:
                ground_hi = ground
            c_hi = c_mid
    if ground_hi == ground_lo:
        return None
    if not lowests:
        lowests.append(_ground_blocks(system, J, 0.5 * (c_lo + c_hi))[0])
    a, b = min(ground_lo - ground_hi or ground_lo), min(ground_hi - ground_lo or ground_hi)
    return c_lo, c_hi, float(min(abs(lowest[a] - lowest[b]) for lowest in lowests))


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
    ground level's continuation label changes is bisected to a width of 1e-6 in
    c on the set of ground (Sz, k) blocks, reading only block eigenvalues; it is
    a crossing only if that set changes in it.  The minimum gap seen between the
    two blocks' lowest levels is reported with each crossing.
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
    point in grid order, defaults to ``solve``; the tracker makes no other solve."""
    spectrum_at = spectrum_at or (lambda c: solve(system, J, c))
    tracked: dict[int, list] = {}
    crossings: list[Crossing] = []
    flagged: list[tuple[float, float]] = []

    prev_labeled: dict[int, np.ndarray] = {}
    prev_ground = None
    prev_c = None
    for c in c_grid.tolist():
        groups = _low_groups(spectrum_at(c), n_levels)
        labels = _match_groups(prev_labeled, groups)
        for lab, (energy, _) in zip(labels, groups):
            tracked.setdefault(lab, []).append((c, energy))
        ground = labels[0]
        if prev_labeled and ground not in prev_labeled:
            # the new ground matched nothing from the previous point
            flagged.append((prev_c, c))
        if prev_ground is not None and ground != prev_ground:
            refined = _refine_crossing(system, J, prev_c, c)
            if refined is not None:
                lo, hi, gap = refined
                crossings.append(Crossing(lo, hi, (prev_ground, ground), gap))
        prev_labeled = {lab: v for lab, (_, v) in zip(labels, groups)}
        prev_ground = ground
        prev_c = c

    return LevelTrack(c_grid, tracked, crossings, flagged)
