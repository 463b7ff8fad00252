"""Deterministic eigensolver, ground-subspace extraction and level tracking."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import count
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .hamiltonian import CouplingConfig, ring_bonds, star_bonds
from .operators import HermitianOperator, popcount_sectors, popcounts
from .states import QuantumState
from .system import SpinSystem

DEGENERACY_TOL = 1e-9
OVERLAP_THRESHOLD = 0.5
CROSSING_WIDTH = 1e-6  # bisection stops once a crossing lies in an interval this wide
GRID_CHUNK_BYTES = 1 << 20  # eigenvectors one chunk of ``solve_grid`` holds (>= 1 point)
CHORD_MARGIN = 1e-11  # round-off allowance of the bisection's chord bounds, relative to |H|


@dataclass(frozen=True)
class Spectrum:
    """Every eigenvalue, ascending, with eigenvector columns formed on request.

    ``vectors(stop)`` returns the leading orthonormal columns 0..stop-1, all of
    them without ``stop``, as a dim x stop array paired with ``eigenvalues[:stop]``.
    ``blocks[i]`` labels the invariant subspace that holds column i: columns with
    different labels are orthogonal, whatever c.  ``solve`` labels each level by
    the number of its (Sz, k) block's stored matrix (a complex matrix standing
    for the k, -k pair); the dense and Sz-block
    oracles label the whole space as one block.  ``extremes[0, m]`` and
    ``extremes[1, m]`` are the lowest and highest eigenvalue of label m, its first
    and last occurrence in ``eigenvalues``; ``solve`` sets them, the oracles leave
    them None.
    """

    eigenvalues: np.ndarray
    _columns: Callable[[slice], np.ndarray] = field(repr=False, compare=False)
    blocks: np.ndarray = field(repr=False, compare=False)
    extremes: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def vectors(self, stop: Optional[int] = None) -> np.ndarray:
        return self._columns(slice(stop))


def _dense_spectrum(vals: np.ndarray, vecs: np.ndarray) -> Spectrum:
    return Spectrum(vals, lambda columns: vecs[:, columns], np.zeros(vals.size, dtype=np.intp))


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
    return _dense_spectrum(vals[order], vecs)


def eigendecompose(H: HermitianOperator) -> Spectrum:
    """Eigendecompose a Hermitian operator deterministically, with a dense
    dim x dim eigenvector matrix; the tests' oracle for ``solve``.

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
    return _dense_spectrum(*np.linalg.eigh(m))


def _bond_masks(system: SpinSystem) -> tuple[list[int], list[int]]:
    """Site-bit masks of the ring bonds and of the star bonds."""
    def masks(bonds):
        return [system.site_mask(a) | system.site_mask(b) for a, b in bonds]

    return masks(ring_bonds(system)), masks(star_bonds(system))


@dataclass(frozen=True)
class _Blocks:
    """The (Sz, k) blocks of one system (J=1), as ``_momentum_blocks`` builds them.

    ``stacks[s] = (ring, star)`` holds equal-size blocks, real at k = 0 or pi,
    else complex: a complex block at k stands for itself and for -k, whose block
    is its complex conjugate.  The matrices are numbered stack by stack, stack s
    holding ``first[s]`` to ``first[s + 1] - 1``; a matrix number is a block's
    one name.  With ``maps[s][b] = (states, rows, amps)``, the eigenvector v of
    block b of stack s expands to the computational-basis vector with
    ``amps * v[rows]`` on ``states``.

    A solve concatenates the stacks' flattened eigenvalues and takes them in
    (Sz, k) order with ``gather``, which repeats a complex block's for -k.  Entry
    q of that order is level ``entries[q, 2]`` of block ``entries[q, 1]`` of stack
    ``entries[q, 0]``, and its column is part ``entries[q, 3]`` of the expanded v:
    0 the vector itself (real blocks), 1 its real and 2 its imaginary part.
    Entry q belongs to matrix ``matrix[q]``.
    """

    dim: int
    stacks: list
    maps: list
    gather: np.ndarray
    entries: np.ndarray
    matrix: np.ndarray
    first: np.ndarray


@lru_cache(maxsize=4)
def _momentum_blocks(system: SpinSystem) -> _Blocks:
    """The (Sz, k) blocks (J=1) of ``system``, their expansion maps and their
    eigenvalue order; built once per system and shared by ``solve`` and the
    crossing bisection.  The cache holds the last four systems, so a process
    that alternates a few N builds each once (the blocks take under 1 MiB at
    N <= 10 and 15 MiB at N = 12).

    k = 2 pi m / N is the momentum of the outer-ring translation T, which commutes
    with H_ring and, since the star couples every outer site equally, with H_star.
    In each Sz sector, rotating the N outer bits (central bit fixed) splits the
    states into cycles; the smallest state a of a cycle of period R_a represents
    |a(k)> = R_a^-1/2 sum_r e^{-ikr} T^r |a>, which exists when m R_a / N is an
    integer.  A bond taking a to T^-l b, with b a representative, adds
    2 sqrt(R_a / R_b) e^{-ikl} to <b(k)|H|a(k)> (Sandvik, arXiv:1101.3281, sec. 4).
    A state s with T^l s = a has amplitude e^{ikl} / sqrt(R_a) in |a(k)>.  For a
    complex block that amplitude carries a factor sqrt 2, so that the real and
    imaginary parts of an expanded eigenvector v are orthonormal (v is orthogonal
    to its conjugate, the -k eigenvector): two real columns for the k, -k pair.

    Built in one pass over all basis states: the blocks, numbered sector by
    sector with m ascending, are stacked by (size, kind) in order of first
    appearance, and ``np.bincount`` sums each entry from 0.0, in hop-table order
    (bond by bond, representatives ascending), straight into the stacks' storage.
    """
    n, dim = system.n_outer, system.dimension
    ring, star = _bond_masks(system)
    outer = (1 << n) - 1
    state, shifts = np.arange(dim), np.arange(n)[:, None]
    o = state & outer  # rots[r] = T^r applied to each state
    rots = (state & ~outer) | (((o << shifts) | (o >> (n - shifts))) & outer)
    rep_state, shift_at = rots.min(axis=0), rots.argmin(axis=0)
    pop = popcounts(dim)
    order = np.concatenate(popcount_sectors(dim))  # the states by (sector, state)
    reps = order[rep_state[order] == order]
    sector, period = pop[reps], n // np.count_nonzero(rots[:, reps] == reps, axis=0)
    rep_of = np.searchsorted(sector * dim + reps, pop * dim + rep_state)  # position in reps
    keep = np.arange(n // 2 + 1)[:, None] * period % n == 0  # [m, a]: |a(k)> exists
    before = np.cumsum(keep, axis=1) - keep
    local = before - before[:, np.searchsorted(sector, sector)]  # [m, a]: a's block row
    size = np.stack([np.bincount(sector[k], minlength=pop[-1] + 1) for k in keep], axis=1)
    where, m_of = np.nonzero(size)  # [sector, m] of each block
    block_at = np.cumsum(size > 0).reshape(size.shape) - 1
    k_size, cplx = size[where, m_of], (2 * m_of) % n != 0
    stack_of: dict[tuple, int] = {}  # (size, kind) -> stack, in order of first appearance
    stack = np.array([stack_of.setdefault(key, len(stack_of))
                      for key in zip(k_size.tolist(), cplx.tolist())])
    by_stack = np.concatenate([np.flatnonzero(stack == s) for s in range(len(stack_of))])
    matrix_of = np.empty_like(by_stack)  # the blocks numbered stack by stack
    matrix_of[by_stack] = np.arange(by_stack.size)
    start = np.searchsorted(stack[by_stack], np.arange(len(stack_of)))  # first matrices
    sq = np.where(cplx == [[False], [True]], k_size ** 2, 0)[:, by_stack]  # [kind, matrix]
    base = (np.cumsum(sq, axis=1) - sq)[cplx.astype(np.intp), matrix_of]  # storage offset
    length = sq.sum(axis=1)  # a kind's storage: its ring blocks, then its star blocks
    target = reps ^ np.array(ring + star)[:, None]  # a bond hops when it keeps the sector
    bond, frm = np.nonzero(pop[target] == sector)  # hop a -> T^-l b, a = reps[frm]
    target = target[bond, frm]
    to, shift, table = rep_of[target], shift_at[target], bond >= len(ring)
    amp = 2.0 * np.sqrt(period[frm] / period[to])
    flat, weight = ([], [np.empty(0, np.intp)]), ([], [np.empty(0)])  # hops, per kind
    expand, shifts = [None] * stack.size, shifts.ravel()
    for m in range(keep.shape[0]):
        kind = int((2 * m) % n != 0)
        bloch = (np.exp(-2j * np.pi * m * shifts / n) if kind  # e^{-ikl}
                 else 1.0 - 2.0 * (shifts % 2) if m else np.ones(n))
        inside = keep[m, frm] & keep[m, to]
        a, b = frm[inside], to[inside]
        block = block_at[sector[a], m]
        flat[kind].append(table[inside] * length[kind] + base[block]
                          + local[m, b] * k_size[block] + local[m, a])
        weight[kind].append(amp[inside] * bloch[shift[inside]])
        states = order[keep[m, rep_of[order]]]
        rep = rep_of[states]
        expansion = (states, local[m, rep],
                     bloch[shift_at[states]].conj() * np.sqrt((1 + kind) / period[rep]))
        for x in expansion:
            x.setflags(write=False)
        cut = np.searchsorted(pop[states], np.arange(pop[-1] + 2))
        for block in np.flatnonzero(m_of == m).tolist():
            expand[block] = tuple(x[cut[where[block]]:cut[where[block] + 1]] for x in expansion)
    (f, w), (fc, wc) = ((np.concatenate(x), np.concatenate(y)) for x, y in zip(flat, weight))
    storage = np.bincount(f, w, 2 * length[0]), np.empty(2 * length[1], dtype=complex)
    storage[1].real = np.bincount(fc, wc.real, 2 * length[1])
    storage[1].imag = np.bincount(fc, wc.imag, 2 * length[1])
    stacks, maps = [], []
    for blocks in np.split(by_stack, start[1:]):
        k, kind, at = int(k_size[blocks[0]]), int(cplx[blocks[0]]), base[blocks[0]]
        pair = storage[kind].reshape(2, -1)[:, at:at + blocks.size * k * k].reshape(2, -1, k, k)
        np.add(pair, pair.conj().transpose(0, 1, 3, 2), out=pair)  # (ring, star) stacks
        pair *= 0.5  # exactly Hermitian despite sqrt round-off
        pair.setflags(write=False)
        stacks.append(tuple(pair))
        maps.append(tuple(expand[b] for b in blocks.tolist()))
    id_block = np.repeat(np.arange(stack.size), 1 + cplx)  # (Sz, k) order: k, then -k
    k_id, id_matrix = k_size[id_block], matrix_of[id_block]
    part = cplx[id_block] * (np.arange(id_block.size) - np.searchsorted(id_block, id_block) + 1)
    entries = np.repeat(np.column_stack((stack[id_block], id_matrix - start[stack[id_block]],
                                         np.cumsum(k_id) - k_id, part)), k_id, axis=0)
    entries[:, 2] = np.arange(dim) - entries[:, 2]  # the level
    e_base = (np.cumsum(k_size[by_stack]) - k_size[by_stack])[matrix_of]  # first eigenvalue
    gather, matrix = np.repeat(e_base[id_block], k_id) + entries[:, 2], np.repeat(id_matrix, k_id)
    first = np.append(start, stack.size)
    for x in (gather, entries, matrix, first):
        x.setflags(write=False)
    return _Blocks(dim, stacks, maps, gather, entries, matrix, first)


def _columns(blocks: _Blocks, vecs: list[np.ndarray], order: np.ndarray,
             columns: slice) -> np.ndarray:
    """The real computational-basis columns of the entries ``order[columns]`` of
    the block order, one gather each from the stacks' eigenvectors ``vecs``."""
    picks = order[columns]
    out = np.zeros((blocks.dim, picks.size))
    for i, (s, b, level, part) in enumerate(blocks.entries[picks].tolist()):
        states, rows, amps = blocks.maps[s][b]
        v = amps * vecs[s][b, rows, level]
        out[states, i] = v.imag if part == 2 else v.real
    return out


def _checked_cs(J: float, cs) -> np.ndarray:
    """The c values of ``cs`` as a float array, each checked with ``J`` by
    ``CouplingConfig``."""
    cs = np.asarray(cs, dtype=float).ravel()
    for c in cs.tolist():
        CouplingConfig(J=J, c=c)
    return cs


def _solve_chunk(blocks: _Blocks, J: float, c: np.ndarray) -> list[Spectrum]:
    """Spectra at the c values of ``c`` (shape (points, 1, 1, 1)): one batched
    ``eigh`` per stack, each stack's matrices built just before it, and one
    stable argsort per point along axis 1."""
    vals, vecs, low, top = [], [], [], []
    for ring, star in blocks.stacks:
        w, u = np.linalg.eigh(J * (c * star + (1.0 - c) * ring))
        vals.append(w.reshape(c.shape[0], -1))
        vecs.append(u)
        low.append(w[..., 0])
        top.append(w[..., -1])
    extremes = np.stack((np.concatenate(low, axis=1), np.concatenate(top, axis=1)), axis=1)
    ev = np.concatenate(vals, axis=1)[:, blocks.gather]
    order = np.argsort(ev, axis=1, kind="stable")
    ev = np.take_along_axis(ev, order, axis=1)
    return [Spectrum(ev[i], partial(_columns, blocks, [u[i] for u in vecs], order[i]),
                     blocks.matrix[order[i]], extremes[i])
            for i in range(c.shape[0])]


def _grid_chunks(system: SpinSystem, J: float, cs):
    """Yield the spectra of the c values of ``cs``, in order, as one list per
    solve chunk: as many points as ``GRID_CHUNK_BYTES`` of eigenvectors hold, at
    least one.  Every c is checked, at the first ``next``, before any is solved."""
    cs = _checked_cs(J, cs)
    blocks = _momentum_blocks(system)
    step = max(1, GRID_CHUNK_BYTES // sum(ring.nbytes for ring, _ in blocks.stacks))
    for start in range(0, cs.size, step):
        yield _solve_chunk(blocks, J, cs[start:start + step, None, None, None])


def _hand_out(spectra: list):
    """Yield a chunk's spectra in order, popping each: the caller becomes its only
    owner, so the chunk's arrays go with the last one it drops, while a kept list
    (``yield from``) would pin every point through the tracker's bisection."""
    spectra.reverse()
    while spectra:
        yield spectra.pop()


def solve_grid(system: SpinSystem, J: float, cs):
    """Yield the ``Spectrum`` of J * [c * H_star + (1-c) * H_ring] for each c of
    ``cs``, in order, from the (Sz, k) blocks of ``_momentum_blocks``.

    The c values are solved in the chunks of ``_grid_chunks``: one batched
    ``eigh`` per stack on all the chunk's matrices, and one stable argsort.
    LAPACK factors each matrix of a batch as it would factor it alone, so every
    spectrum is bit for bit that of ``solve`` at its c.  A chunk's arrays live
    until its last spectrum is handed out and dropped; pull points with ``next()``
    rather than keep the previous one bound while the next is made, or two chunks
    are alive at once.
    """
    for spectra in _grid_chunks(system, J, cs):
        yield from _hand_out(spectra)


def solve(system: SpinSystem, J: float, c: float) -> Spectrum:
    """Spectrum of J * [c * H_star + (1-c) * H_ring]: the one-point case of
    ``solve_grid``, so one batched ``eigh`` per (Sz, k) stack and one stable argsort.

    The eigenvalues agree with ``eigendecompose(build_combined(...))`` to
    round-off (about 1e-14), not bit for bit.  Every column is real and lies in
    one Sz sector; a k, -k pair of levels gives the two columns sqrt 2 Re v and
    sqrt 2 Im v, with exactly equal eigenvalues.  Columns are formed only when
    ``Spectrum.vectors`` asks for them.
    """
    return next(solve_grid(system, J, [c]))


@dataclass(frozen=True)
class GroundSubspace:
    """Lowest eigenvalue, its degeneracy, a basis, and the projector mixture."""

    energy: float
    degeneracy: int
    basis: np.ndarray  # dim x degeneracy, orthonormal columns
    density: QuantumState


def _degeneracy_tol(span):
    """How far apart two levels may lie and still count as degenerate, for a
    spectrum (or an array of spectra) whose eigenvalues span ``span``: relative
    to the span alone, so the groups do not change when J scales the spectrum."""
    return DEGENERACY_TOL * span


def ground_subspace(spec: Spectrum) -> GroundSubspace:
    """Extract the (possibly degenerate) ground subspace of a spectrum.

    Degeneracy counts eigenvalues up to ``_ground_bound``; the density is the
    normalized projector onto their span, which is independent of the basis
    choice, stored as the factor B/sqrt(deg).
    """
    ev = spec.eigenvalues
    if ev.size == 0:
        raise DomainError("empty spectrum")
    deg = int(np.count_nonzero(ev <= _ground_bound(ev[0], ev[-1])))
    basis = spec.vectors(deg)
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
    tracked_levels: dict[int, list[tuple[float, float]]]  # label -> [(c, energy)]
    crossings: list[Crossing]
    flagged_intervals: list[tuple[float, float]] = field(default_factory=list)


def _low_groups(spec: Spectrum, n_levels: int):
    """Cluster the lowest eigenvalues into degenerate groups.

    Each group is the lowest ungrouped level and every level at most
    ``_degeneracy_tol(span)`` above it, so the ground group is the one that
    ``_ground_bound`` counts.  Returns [(energy, basis, blocks)] covering at
    least n_levels eigenstates, ground group first, ``blocks`` being the set of
    the group's block labels; the bases are copies, so they do not pin the
    spectrum.
    """
    ev = spec.eigenvalues
    thr = _degeneracy_tol(float(ev[-1] - ev[0]))
    bounds = [0]
    while bounds[-1] < min(n_levels, ev.size):
        bounds.append(int(np.searchsorted(ev, ev[bounds[-1]] + thr, side="right")))
    vecs = spec.vectors(bounds[-1])
    return [(float(ev[start:stop].mean()), vecs[:, start:stop].copy(),
             frozenset(spec.blocks[start:stop].tolist()))
            for start, stop in zip(bounds, bounds[1:])]


def _match_groups(prev_labeled: dict[int, tuple], groups) -> list[int]:
    """Greedy assignment of new groups to previous labels by subspace overlap.

    ``prev_labeled`` maps each previous label to its group's (basis, blocks).
    The score is the largest principal-angle cosine between subspaces, one SVD
    of the dim-space overlap per pair of groups that share a block label.  A
    pair that shares none lies in orthogonal blocks: its overlap is 0, or
    round-off far below ``OVERLAP_THRESHOLD``, so it is not scored and can be
    assigned no more than before.  A group left unmatched is a level entering
    the tracked window from above; it gets a fresh label, larger than every
    previous one.
    """
    scores = []
    for gi, (_, v, blocks) in enumerate(groups):
        for label, (v_prev, blocks_prev) in prev_labeled.items():
            if blocks.isdisjoint(blocks_prev):
                continue
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


def _extremes(blocks: _Blocks, J: float, c, picks: np.ndarray, low: np.ndarray,
              top: np.ndarray):
    """Write the lowest and highest eigenvalue of the stacked matrices ``picks``
    (ascending matrix numbers) into ``low[..., picks]`` and ``top[..., picks]``:
    one batched ``eigvalsh`` per stack touched.  ``c`` is a float, or an array of
    shape (points, 1, 1, 1) with ``low`` and ``top`` of shape (points, matrices).
    This is the one place that reads block eigenvalues without vectors."""
    cut = np.searchsorted(picks, blocks.first)
    for s, (ring, star) in enumerate(blocks.stacks):
        part = picks[cut[s]:cut[s + 1]]
        if part.size:
            at = part - blocks.first[s]
            vals = np.linalg.eigvalsh(J * (c * star[at] + (1.0 - c) * ring[at]))
            low[..., part], top[..., part] = vals[..., 0], vals[..., -1]


def _ground_bound(e0: np.ndarray, top: np.ndarray) -> np.ndarray:
    """The highest energy in the ground level when the spectrum spans [e0, top],
    for floats or arrays alike: ``_degeneracy_tol`` of the span above e0.  This
    is the ground rule of ``ground_subspace``, the sweep records and the
    bisection's block sets."""
    return e0 + _degeneracy_tol(top - e0)


def _ground_set(low: np.ndarray, top: np.ndarray) -> frozenset:
    """The matrices whose lowest eigenvalue (``low``, by matrix number) is in the
    ground level of a spectrum spanning [low.min(), top.max()]; a complex matrix
    stands for k and -k together."""
    return frozenset(np.flatnonzero(low <= _ground_bound(low.min(), top.max())).tolist())


def _grid_ground_blocks(system: SpinSystem, J: float, cs):
    """For each c of ``cs``: the lowest and highest eigenvalue of each stacked
    matrix, as a (points, 2, matrices) array in the form of ``Spectrum.extremes``,
    and the set of ground matrices of ``_ground_set``, the range being that of
    the whole spectrum.  One ``_extremes`` call on every matrix at every c."""
    blocks, cs = _momentum_blocks(system), _checked_cs(J, cs)
    extremes = np.empty((cs.size, 2, blocks.first[-1]))
    _extremes(blocks, J, cs[:, None, None, None], np.arange(blocks.first[-1]),
              extremes[:, 0], extremes[:, 1])
    return extremes, [_ground_set(low, top) for low, top in extremes]


def _refine_crossing(system, J, c_lo, c_hi, ends):
    """Bisect [c_lo, c_hi] on the set of ground (Sz, k) blocks until its change
    lies within CROSSING_WIDTH.  Returns ``(c_lo, c_hi, min_gap)``, or None when
    no change of that set is found.  ``ends`` holds ``Spectrum.extremes`` at c_lo
    and at c_hi, as the tracker's grid pass or ``n4``'s region scan has them.  A
    grid pass's extremes come from ``eigh`` and may differ from ``eigvalsh``'s in
    the last bits, which changes an end's ground set only if a block's lowest
    eigenvalue lies within round-off of the degeneracy bound.

    Levels in different blocks cross without repelling, so a ground change is a
    change of the set of ground blocks, and each step reads only block
    eigenvalues: c_lo moves to the midpoint exactly when the midpoint's set is
    c_lo's, else c_hi does.  The sets hold matrix numbers, a complex matrix
    standing for k and -k together.  When both ends have the same set, the first
    midpoint with a different set takes the place of c_hi's; if no midpoint
    differs, there is no crossing.  ``min_gap`` is the least |E_a - E_b| over
    the midpoints (over the one midpoint of an interval already narrower than
    CROSSING_WIDTH), E the lowest eigenvalue of a matrix, with a the
    lowest-numbered matrix that leaves the ground set (else the lowest at c_lo)
    and b the lowest-numbered that enters it (else the lowest of the other set).

    For the pencil J (c S + (1 - c) R) a block's lowest eigenvalue is a minimum
    of functions affine in c, so concave, and its highest is convex: inside the
    bracket the chord between its original ends bounds the lowest from below and
    the highest from above.  ``margin`` widens both bounds by round-off:
    CHORD_MARGIN times the largest |eigenvalue| at the ends (at least 1), which
    bounds |H| over the bracket.  No block is diagonalized at the ends.  A
    midpoint diagonalizes the blocks of both ends' ground sets and the one with
    the highest top chord, then every block whose lowest chord, less the margin,
    is within the ground bound of the evaluated minimum, or whose top chord, plus
    the margin, reaches the evaluated top, until none is: no other block holds
    the minimum, the top or a ground level.  Blocks a and b are added at the
    midpoints that skipped them.  LAPACK factors each matrix of a batch as it
    would factor it alone, so every eigenvalue read, and with it every set, c_lo,
    c_hi and ``min_gap``, equals that of diagonalizing every block at every midpoint.
    """
    blocks = _momentum_blocks(system)
    (low0, top0), (low1, top1) = ends
    c0, width = c_lo, c_hi - c_lo  # the chords stay anchored at the bracket's ends
    margin = CHORD_MARGIN * max(1.0, float(np.abs(ends).max()))

    def midpoint(c: float, seed: frozenset):  # lowest eigenvalue by matrix, ground set
        t = (c - c0) / width
        floor = low0 + t * (low1 - low0) - margin
        ceiling = top0 + t * (top1 - top0) + margin
        low, top = np.full(floor.size, np.inf), np.full(floor.size, -np.inf)
        picks = np.array(sorted(seed | {int(ceiling.argmax())}))
        while picks.size:
            _extremes(blocks, J, c, picks, low, top)
            e_top = top.max()
            bound = _ground_bound(low.min(), e_top)
            picks = np.flatnonzero(np.isinf(low) & ((floor <= bound) | (ceiling >= e_top)))
        return low, _ground_set(low, top)

    ground_lo, ground_hi = (_ground_set(low, top) for low, top in ends)
    visited = []  # (midpoint, lowest eigenvalue of each matrix, inf if not evaluated)
    while c_hi - c_lo > CROSSING_WIDTH:
        c_mid = 0.5 * (c_lo + c_hi)
        lowest, ground = midpoint(c_mid, ground_lo | ground_hi)
        visited.append((c_mid, lowest))
        if ground == ground_lo:
            c_lo = c_mid
        else:
            if ground_hi == ground_lo:
                ground_hi = ground
            c_hi = c_mid
    if ground_hi == ground_lo:
        return None
    if not visited:
        visited.append((0.5 * (c_lo + c_hi), np.full(low0.size, np.inf)))
    a, b = min(ground_lo - ground_hi or ground_lo), min(ground_hi - ground_lo or ground_hi)
    pair = np.array(sorted({a, b}))
    for c_mid, lowest in visited:
        missing = pair[np.isinf(lowest[pair])]
        if missing.size:
            _extremes(blocks, J, c_mid, missing, lowest, np.empty_like(lowest))
    return c_lo, c_hi, float(min(abs(lowest[a] - lowest[b]) for _, lowest in visited))


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
    two blocks' lowest levels is reported with each crossing (none on a grid of
    one point or none).
    """
    c_grid = _check_grid(c_grid)
    if n_levels < 2:
        raise DomainError("n_levels must be >= 2")
    return _track(system, J, c_grid, n_levels, solve_grid(system, J, c_grid))


def _track(system: SpinSystem, J: float, c_grid: np.ndarray, n_levels: int,
           spectra) -> LevelTrack:
    """The loop of ``track_levels``.  ``spectra`` is an iterator with one spectrum
    per grid point, in grid order; the tracker makes no other solve.  A bisection
    takes its two ends' block eigenvalues from the ``extremes`` of those spectra."""
    tracked: dict[int, list] = {}
    crossings: list[Crossing] = []
    flagged: list[tuple[float, float]] = []

    prev_labeled: dict[int, tuple] = {}
    prev_ground = None
    prev_c = prev_extremes = None
    for c in c_grid.tolist():
        spec = next(spectra)  # not zip: its reused tuple would pin the previous chunk
        groups, extremes = _low_groups(spec, n_levels), spec.extremes
        del spec  # a spectrum pins its whole solve chunk
        labels = _match_groups(prev_labeled, groups)
        for lab, (energy, _, _) in zip(labels, groups):
            tracked.setdefault(lab, []).append((c, energy))
        ground = labels[0]
        if prev_labeled and ground not in prev_labeled:
            # the new ground matched nothing from the previous point
            flagged.append((prev_c, c))
        if prev_ground is not None and ground != prev_ground:
            refined = _refine_crossing(system, J, prev_c, c, np.stack((prev_extremes, extremes)))
            if refined is not None:
                lo, hi, gap = refined
                crossings.append(Crossing(lo, hi, (prev_ground, ground), gap))
        prev_labeled = {lab: (v, blocks) for lab, (_, v, blocks) in zip(labels, groups)}
        prev_ground = ground
        prev_c, prev_extremes = c, extremes

    return LevelTrack(tracked, crossings, flagged)
