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
GRID_CHUNK_BYTES = 1 << 20  # eigenvectors one chunk of ``_grid_chunks`` holds (>= 1 point)
CHORD_MARGIN = 1e-11  # round-off allowance of the bisection's chord bounds, relative to |H|


@dataclass(frozen=True)
class Spectrum:
    """Every eigenvalue, ascending, with eigenvector columns formed on request.

    ``vectors(stop)`` returns the leading orthonormal columns 0..stop-1, all of
    them without ``stop``, as a dim x stop array paired with ``eigenvalues[:stop]``.
    ``eigendecompose`` holds the columns as one dense matrix; a spectrum of
    ``solve`` or ``_Chunk.spectrum`` forms them from its chunk's block eigenvectors.
    """

    eigenvalues: np.ndarray
    _columns: Callable[[slice], np.ndarray] = field(repr=False, compare=False)

    def vectors(self, stop: Optional[int] = None) -> np.ndarray:
        return self._columns(slice(stop))


@dataclass(frozen=True)
class _Chunk:
    """The one product of a solve: the spectra of consecutive grid points,
    point-major, row i of each array that of the point at c = ``c[i]``.

    ``eigenvalues[i]`` is ascending.  ``blocks[i, j]`` labels the invariant
    subspace of column j, orthogonal to every other label's at any c: the number
    of its (Sz, k) block's stored matrix (a complex one stands for the k, -k
    pair), or 0, the Sz-block oracle's one matrix.  ``levels[i, j]`` is the
    column's level in that matrix, 0 its lowest, shared by the two columns of a
    complex level.  ``extremes[i, :, m]`` holds label m's lowest and highest
    eigenvalue.  ``vectors[s][i, b]`` holds the eigenvectors of matrix
    ``first[s] + b``, ascending, level l in column l.  ``columns(counts)`` forms
    every point's leading ``counts[i]`` columns at once, zero-padded to (points,
    dim, max count).  ``spectrum(i)`` is point i's ``Spectrum``; it forms its
    columns with ``columns`` and pins the chunk.
    """

    c: np.ndarray
    eigenvalues: np.ndarray
    blocks: np.ndarray
    levels: np.ndarray
    extremes: np.ndarray
    vectors: list
    first: np.ndarray
    columns: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def spectrum(self, i: int) -> Spectrum:
        only_i = np.arange(self.c.size) == i  # k * only_i: k columns at point i alone
        return Spectrum(self.eigenvalues[i], lambda which: self.columns(
            only_i * len(range(self.eigenvalues.shape[1])[which]))[i])


def _dense_spectrum(vals: np.ndarray, vecs: np.ndarray) -> Spectrum:
    return Spectrum(vals, lambda columns: vecs[:, columns])


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
             counts) -> np.ndarray:
    """The real computational-basis columns of the first ``counts[i]`` entries of
    row i of the block order ``order`` (points x dim), from the stacks'
    eigenvectors ``vecs`` (points first), as a zero-padded (points, dim, max
    count) array: one ``amps * v[rows]`` gather per stack touched, each value the
    product, and the real or imaginary part, that its column alone would take."""
    counts = np.asarray(counts)
    point = np.repeat(np.arange(counts.size), counts)
    column = np.arange(point.size) - np.repeat(np.cumsum(counts) - counts, counts)
    out = np.zeros((counts.size, blocks.dim, int(counts.max(initial=0))))
    entries = blocks.entries[order[point, column]]
    for s in set(entries[:, 0].tolist()):
        at = np.flatnonzero(entries[:, 0] == s)
        maps = [blocks.maps[s][b] for b in entries[at, 1].tolist()]
        states, rows, amps = (np.concatenate(x) for x in zip(*maps))
        pick = np.repeat(at, [m[0].size for m in maps])
        _, b, level, part = entries[pick].T
        v = amps * vecs[s][point[pick], b, rows, level]
        out[point[pick], states, column[pick]] = np.where(part == 2, v.imag, v.real)
    return out


def _checked_cs(J: float, cs) -> np.ndarray:
    """The c values of ``cs`` as a float array, checked by one ``CouplingConfig``:
    ``J``, even for no c, and the first c out of [0, 1] (or nan), if any."""
    cs = np.asarray(cs, dtype=float).ravel()
    bad = cs[~((cs >= 0.0) & (cs <= 1.0))]
    CouplingConfig(J=J, c=float(bad[0]) if bad.size else 0.0)
    return cs


def _solve_chunk(blocks: _Blocks, J: float, c: np.ndarray) -> _Chunk:
    """The chunk of the c values of ``c``: one batched ``eigh`` per stack, each
    stack's matrices built just before it, and one stable argsort per point."""
    x = c[:, None, None, None]
    vals, vecs, ends = [], [], []
    for ring, star in blocks.stacks:
        w, u = np.linalg.eigh(J * (x * star + (1.0 - x) * ring))
        vals.append(w.reshape(c.size, -1))
        vecs.append(u)
        ends.append(w[..., [0, -1]])
    ev = np.concatenate(vals, axis=1)[:, blocks.gather]
    order = np.argsort(ev, axis=1, kind="stable")
    return _Chunk(c, np.take_along_axis(ev, order, axis=1), blocks.matrix[order],
                  blocks.entries[order, 2], np.concatenate(ends, axis=1).swapaxes(1, 2),
                  vecs, blocks.first, partial(_columns, blocks, vecs, order))


def _grid_chunks(system: SpinSystem, J: float, cs):
    """Yield the ``_Chunk`` of J * [c * H_star + (1-c) * H_ring] for each run of
    consecutive c values of ``cs``, in order, from the (Sz, k) blocks of
    ``_momentum_blocks``: as many points as ``GRID_CHUNK_BYTES`` of eigenvectors
    hold, at least one.  Every c is checked, at the first ``next``, before any
    is solved.  LAPACK factors each matrix of a batch as it would factor it
    alone, so every point is bit for bit that of ``solve`` at its c.  A consumer
    that unbinds each chunk, and its spectra, before its next ``next`` holds one
    chunk at a time."""
    cs = _checked_cs(J, cs)
    blocks = _momentum_blocks(system)
    step = max(1, GRID_CHUNK_BYTES // sum(ring.nbytes for ring, _ in blocks.stacks))
    for start in range(0, cs.size, step):
        yield _solve_chunk(blocks, J, cs[start:start + step])


def solve(system: SpinSystem, J: float, c: float) -> Spectrum:
    """Spectrum of J * [c * H_star + (1-c) * H_ring] at one c: the one point of a
    ``_grid_chunks`` chunk, so one batched ``eigh`` per (Sz, k) stack and one
    stable argsort.

    The eigenvalues agree with ``eigendecompose(build_combined(...))`` to
    round-off (about 1e-14), not bit for bit.  Every column is real and lies in
    one Sz sector; a k, -k pair of levels gives the two columns sqrt 2 Re v and
    sqrt 2 Im v, with exactly equal eigenvalues.  Columns are formed only when
    ``Spectrum.vectors`` asks for them.
    """
    if np.ndim(c) != 0:
        raise DomainError(f"solve takes one c, got {c!r}")
    return next(_grid_chunks(system, J, [c])).spectrum(0)


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


def _low_groups(ev: np.ndarray, n_levels: int):
    """Cluster the lowest eigenvalues of each row of ``ev`` (points x levels,
    rows ascending) into degenerate groups, the rows of a solve chunk at once.

    Each group is the lowest ungrouped level and every level at most
    ``_degeneracy_tol(span)`` above it, so the ground group is the one that
    ``_ground_bound`` counts; a row's groups cover at least n_levels levels.
    Returns ``group``, the group of each level (-1 past a row's last group), and
    the groups' mean energies in one list, row by row and ground group first.
    Each mean is bit for bit ``ev[i, start:stop].mean()``: numpy sums fewer than
    8 terms one by one from -0.0, which is done here for every group at once.
    """
    points, dim = ev.shape
    thr = _degeneracy_tol(ev[:, -1] - ev[:, 0])
    starts = np.zeros((points, dim + 1), dtype=bool)  # [i, j]: level j starts a group
    starts[:, 0] = True
    end = np.empty(points, dtype=np.intp)
    rows, start = np.arange(points), np.zeros(points, dtype=np.intp)
    while rows.size:
        start = np.count_nonzero(ev[rows] <= (ev[rows, start] + thr[rows])[:, None], axis=1)
        starts[rows, start] = True
        done = start >= min(n_levels, dim)
        end[rows[done]] = start[done]
        rows, start = rows[~done], start[~done]
    inside = np.arange(dim) < end[:, None]
    group = np.where(inside, np.cumsum(starts[:, :dim], axis=1) - 1, -1)
    flat = ev[inside]
    begin = np.flatnonzero(starts[:, :dim][inside])
    size = np.diff(begin, append=flat.size)
    total = np.full(begin.size, -0.0)
    for j in range(min(int(size.max()), 7)):
        more = size > j
        total[more] += flat[begin[more] + j]
    mean = total / size
    for k in np.flatnonzero(size >= 8).tolist():  # numpy's pairwise sum
        mean[k] = flat[begin[k]:begin[k] + size[k]].mean()
    return group, mean.tolist()


def _scores(chunk: _Chunk, group: np.ndarray, last):
    """Score every pair of groups at consecutive points of ``chunk`` that share a
    matrix; the first point is paired with ``last``, the previous chunk's last
    point as this function returns it (None for the first chunk).

    A group is the set of its (matrix, level) pairs, read off ``_Chunk.blocks``
    and ``levels``; a complex matrix's level, two columns, counts once.  For each
    stack, one batched product U[i-1][..., :L]^H U[i][..., :L] over the chunk's
    points, L the deepest level of the stack in any group, and one with ``last``'s
    columns give every overlap read.  A pair's score is the largest principal-
    angle cosine of the two groups' subspaces: columns of different matrices are
    orthogonal and a block's expansion is an isometry (for a complex matrix, the
    k and -k parts give each singular value twice), so it is the largest
    sigma_max of the overlap sub-blocks of the matrices both groups hold.  That
    is a table entry when each group holds one level of the matrix, else one SVD.

    Returns ``(scores, last)``: ``scores[i]`` lists (score, group, previous group)
    of point i for each pair that scores above ``OVERLAP_THRESHOLD``, and ``last``
    holds the chunk's last point, its entries and the low columns they use.
    """
    point, col = np.nonzero(group >= 0)
    matrix, level = chunk.blocks[point, col], chunk.levels[point, col]
    n_matrices, first, dim = int(chunk.first[-1]), chunk.first, group.shape[1]
    key = (point * n_matrices + matrix) * dim + level
    order = np.argsort(key, kind="stable")
    one = order[np.diff(key[order], prepend=-1) != 0]
    skip = int(last is not None)  # the point of an entry: 0 is ``last``'s, if any
    entries = point[one] + skip, matrix[one], level[one], group[point[one], col[one]]
    if last is not None:
        entries = tuple(np.concatenate(x) for x in zip(last[0], entries))
    at, matrix, level, group = entries  # in (point, matrix, level) order
    points = chunk.c.size + skip
    stack = np.searchsorted(first, matrix, side="right") - 1
    depth = np.zeros(len(first) - 1, dtype=np.intp)
    np.maximum.at(depth, stack, level + 1)
    tables, columns = {}, {}  # tables[s][i]: the overlaps of points i and i + 1
    for s in np.flatnonzero(depth).tolist():
        u = chunk.vectors[s][..., :depth[s]]
        table = np.empty((points - 1, *u.shape[1:2], depth[s], depth[s]), dtype=u.dtype)
        np.matmul(u[:-1].conj().swapaxes(-1, -2), u[1:], out=table[skip:])
        if skip and s in last[1]:
            prev = last[1][s][..., :depth[s]]
            table[0, :, :prev.shape[-1]] = prev.conj().swapaxes(-1, -2) @ u[0]
        tables[s], columns[s] = table, u[-1].copy()
    # every (a, b) of an entry a and an entry b of the same matrix at the next point
    key = at * n_matrices + matrix
    lo = np.searchsorted(key, key + n_matrices)
    n = np.searchsorted(key, key + n_matrices, side="right") - lo
    a = np.repeat(np.arange(key.size), n)
    b = lo[a] + np.arange(a.size) - np.repeat(np.cumsum(n) - n, n)
    score = np.empty(a.size)
    for s, table in tables.items():
        sel = np.flatnonzero(stack[a] == s)
        i, j = a[sel], b[sel]
        score[sel] = np.abs(table[at[i], matrix[i] - first[s], level[i], level[j]])
    # a run is the levels one group holds of one matrix
    new = np.ones(at.size, dtype=bool)
    new[1:] = (np.diff(at) != 0) | (np.diff(matrix) != 0) | (np.diff(group) != 0)
    run = np.cumsum(new) - 1
    begin = np.flatnonzero(new)
    size = np.diff(begin, append=at.size)
    sigma = {}  # (run, run) -> the largest singular value of its overlap sub-block
    for k in np.flatnonzero(size[run[a]] * size[run[b]] > 1).tolist():
        ra, rb = run[a[k]], run[b[k]]
        if (ra, rb) not in sigma:
            i, j = begin[ra], begin[rb]
            block = tables[stack[i]][at[i], matrix[i] - first[stack[i]]]
            sub = block[np.ix_(level[i:i + size[ra]], level[j:j + size[rb]])]
            sigma[ra, rb] = np.linalg.svd(sub, compute_uv=False)[0]
        score[k] = sigma[ra, rb]
    # each pair of groups: the best of its matrices, if above the threshold
    pair = (at[b] * dim + group[b]) * dim + group[a]
    order = np.argsort(pair, kind="stable")
    pair = pair[order]
    head = np.flatnonzero(np.diff(pair, prepend=-1))
    best, pair = np.maximum.reduceat(score[order], head), pair[head]
    keep = best > OVERLAP_THRESHOLD
    best, pair = best[keep].tolist(), pair[keep]
    to, cur, prev = pair // (dim * dim), pair // dim % dim, pair % dim
    cut = np.searchsorted(to, np.arange(skip, points + 1)).tolist()
    cur, prev = cur.tolist(), prev.tolist()
    scores = [list(zip(best[p:q], cur[p:q], prev[p:q])) for p, q in zip(cut, cut[1:])]
    tail = at == points - 1
    return scores, ((np.zeros_like(at[tail]), matrix[tail], level[tail], group[tail]), columns)


def _match_groups(scores: list, n_groups: int, prev_labels: list[int]) -> list[int]:
    """Greedy assignment of a point's ``n_groups`` groups to the previous point's
    labels (``prev_labels[g]`` that of its group g) by subspace overlap.

    ``scores`` holds (score, group, previous group) for each pair of groups whose
    score, from ``_scores``, is above ``OVERLAP_THRESHOLD``; pairs that share no
    matrix lie in orthogonal blocks and are not scored.  The highest score is
    assigned first, ties going to the higher group, then the higher label.  A
    group left unmatched is a level entering the tracked window from above; it
    gets a fresh label, larger than every previous one.
    """
    assigned: dict[int, int] = {}
    used = set()
    for _, gi, label in sorted(((s, gi, prev_labels[g]) for s, gi, g in scores), reverse=True):
        if gi not in assigned and label not in used:
            assigned[gi] = label
            used.add(label)
    fresh = count(max(prev_labels, default=-1) + 1)
    return [assigned[gi] if gi in assigned else next(fresh) for gi in range(n_groups)]


def _extremes(blocks: _Blocks, J: float, c: np.ndarray, picks: np.ndarray):
    """The lowest and highest eigenvalue of stacked matrix ``picks[i]`` at
    c = ``c[i]``, for every i, as two arrays shaped like ``picks``: one batched
    ``eigvalsh`` per stack touched, split where its matrices would pass
    ``GRID_CHUNK_BYTES``.  This is the one place that reads block eigenvalues
    without vectors."""
    order = np.argsort(picks, kind="stable")
    cut = np.searchsorted(picks[order], blocks.first).tolist()
    low, top = np.empty(picks.shape), np.empty(picks.shape)
    for s in np.flatnonzero(np.diff(cut)).tolist():
        ring, star = blocks.stacks[s]
        step = max(1, GRID_CHUNK_BYTES // ring[0].nbytes)
        for start in range(cut[s], cut[s + 1], step):
            at = order[start:min(start + step, cut[s + 1])]
            x, m = c[at, None, None], picks[at] - blocks.first[s]
            h, r = star[m], ring[m]  # J (x S + (1 - x) R) in place: two copies, not four
            h *= x
            r *= 1.0 - x
            h += r
            del r
            h *= J
            vals = np.linalg.eigvalsh(h)
            low[at], top[at] = vals[:, 0], vals[:, -1]
    return low, top


def _ground_bound(e0: np.ndarray, top: np.ndarray) -> np.ndarray:
    """The highest energy in the ground level when the spectrum spans [e0, top],
    for floats or arrays alike: ``_degeneracy_tol`` of the span above e0.  This
    is the ground rule of ``ground_subspace``, the sweep records and the
    bisection's block sets."""
    return e0 + _degeneracy_tol(top - e0)


def _ground_mask(low: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Whether each matrix's lowest eigenvalue (``low``, by matrix number along
    the last axis) is in the ground level of a spectrum spanning [low.min(),
    top.max()] along that axis; a complex matrix stands for k and -k together."""
    return low <= _ground_bound(low.min(axis=-1, keepdims=True), top.max(axis=-1, keepdims=True))


def _grid_ground_blocks(system: SpinSystem, J: float, cs):
    """For each c of ``cs``: the lowest and highest eigenvalue of each stacked
    matrix, as a (points, 2, matrices) array in the form of ``_Chunk.extremes``,
    and the set of ground matrices of ``_ground_mask``, the range being that of
    the whole spectrum.  One ``_extremes`` call on every matrix at every c."""
    blocks, cs = _momentum_blocks(system), _checked_cs(J, cs)
    n = int(blocks.first[-1])
    extremes = np.stack([x.reshape(cs.size, n) for x in _extremes(
        blocks, J, np.repeat(cs, n), np.tile(np.arange(n), cs.size))], axis=1)
    ground = _ground_mask(extremes[:, 0], extremes[:, 1])
    matrices, cut = np.nonzero(ground)[1].tolist(), np.cumsum(ground.sum(axis=1)).tolist()
    return extremes, [frozenset(matrices[start:stop]) for start, stop in zip([0, *cut], cut)]


def _halving_path(c_lo: float, c_hi: float, depth: int, k: int) -> list:
    """The midpoints that bisecting [c_lo, c_hi] ``depth`` times passes on its way
    to cell k of the 2**depth cells it can end in, then that cell's two ends: the
    lattice point k, the cell's lower end, is bit for bit the float that
    bisection holds there."""
    path = []
    for bit in range(depth - 1, -1, -1):
        path.append(0.5 * (c_lo + c_hi))
        c_lo, c_hi = (path[-1], c_hi) if k >> bit & 1 else (c_lo, path[-1])
    return [*path, c_lo, c_hi]


def _midpoint_blocks(blocks: _Blocks, J: float, c: np.ndarray, seed: np.ndarray,
                     floor: np.ndarray, ceiling: np.ndarray):
    """The lowest eigenvalue of each matrix (inf where not evaluated), the top of
    the spectrum and the ground mask at each probe ``c[i]`` of a refinement
    round, from its seed matrices ``seed[i]`` and its chord bounds ``floor[i]`` and
    ``ceiling[i]`` (each points x matrices), by ``_refine_crossing``'s closure
    rule; each step of the closure is one ``_extremes`` call on what it adds at
    every probe."""
    low, top = np.full(floor.shape, np.inf), np.full(floor.shape, -np.inf)
    pick = seed.copy()
    pick[np.arange(c.size), ceiling.argmax(axis=1)] = True
    while pick.any():
        point, matrix = np.nonzero(pick)
        low[point, matrix], top[point, matrix] = _extremes(blocks, J, c[point], matrix)
        e_top = top.max(axis=1, keepdims=True)
        bound = _ground_bound(low.min(axis=1, keepdims=True), e_top)
        pick = np.isinf(low) & ((floor <= bound) | (ceiling >= e_top))
    return low, e_top[:, 0], _ground_mask(low, top)


def _refine_crossing(system, J, brackets) -> list:
    """Narrow each bracket ``(c_lo, c_hi, ends)`` of ``brackets`` to the cell, at
    most CROSSING_WIDTH wide, in which bisecting it on the set of ground (Sz, k)
    blocks ends.  Returns, bracket by bracket, ``(c_lo, c_hi, min_gap)``, or None
    when no change of that set is found.  ``ends`` holds ``_Chunk.extremes`` at
    c_lo and at c_hi, as the tracker's grid pass or ``n4``'s region scan has
    them.  A grid pass's extremes come from ``eigh`` and may differ from
    ``eigvalsh``'s in the last bits, which changes an end's ground set only if a
    block's lowest eigenvalue lies within round-off of the degeneracy bound.

    Levels in different blocks cross without repelling, so a ground change is a
    change of the set of ground blocks, and each step reads only block
    eigenvalues: c_lo moves to a probe exactly when the probe's set is c_lo's,
    else c_hi does.  The sets hold matrix numbers, a complex matrix standing for
    k and -k together.  Bisection halves a bracket ``depth`` times, by its own
    stop test; the ends of the 2**depth cells it can end in are the bracket's
    lattice, each point the float bisection holds there (``_halving_path``).
    Every probe is a lattice point, so the cell left between adjacent ends is
    bisection's wherever the points that keep c_lo's set form an interval at the
    bracket's bottom.  While both ends have the same set the probe is the
    lattice midpoint, bisection's own, and the first probe with another set
    takes the place of c_hi's; if none differs, there is no crossing.  Then,
    with a the lowest-numbered matrix that leaves the ground set (else the
    lowest at c_lo) and b the lowest-numbered that enters it (else the lowest of
    the other set), the probe is the regula falsi point, rounded, of a margin g
    that is positive on c_lo's side: E_b - E_a, E the lowest eigenvalue of a
    matrix, less the degeneracy tolerance of top - E_a when b enters, else plus
    that of top - E_b.  When one end moves twice in a row, the other end's g is
    halved (Illinois: Dowell and Jarratt, BIT 11, 168 (1971)).  The probe is the
    lattice midpoint instead where g does not change sign across the ends, or
    when the last two probes did not halve the bracket.  ``min_gap`` is the
    least |E_a - E_b| over bisection's midpoints, those on the halving path to
    the cell (the one midpoint of a bracket already narrower than
    CROSSING_WIDTH), read for every bracket in one ``_extremes`` call on a and b.

    For the pencil J (c S + (1 - c) R) a block's lowest eigenvalue is a minimum
    of functions affine in c, so concave, and its highest is convex: inside the
    bracket the chord between its original ends bounds the lowest from below and
    the highest from above.  ``margin`` widens both bounds by round-off:
    CHORD_MARGIN times the largest |eigenvalue| at the ends (at least 1), which
    bounds |H| over the bracket.  No block is diagonalized at the ends.  A probe
    diagonalizes the blocks of both ends' ground sets and the one with the
    highest top chord, then every block whose lowest chord, less the margin, is
    within the ground bound of the evaluated minimum, or whose top chord, plus
    the margin, reaches the evaluated top, until none is: no other block holds
    the minimum, the top or a ground level.  Each round takes one probe of every
    open bracket, all in one closure pass (``_midpoint_blocks``).  LAPACK factors
    each matrix of a batch as it would factor it alone, so every eigenvalue
    read, set, c_lo, c_hi and ``min_gap`` equals that of bisecting each bracket
    alone with every block diagonalized at every midpoint.
    """
    blocks = _momentum_blocks(system)
    ends = np.array([e for _, _, e in brackets], dtype=float).reshape(-1, 2, 2, blocks.first[-1])
    lo_hi = [(float(lo), float(hi)) for lo, hi, _ in brackets]
    c0, c1 = np.array(lo_hi).reshape(-1, 2).T  # the chords stay anchored at these ends
    (low0, top0), (low1, top1) = ends.transpose(1, 2, 0, 3)  # each (brackets, matrices)
    margin = CHORD_MARGIN * np.maximum(1.0, np.abs(ends).max(axis=(1, 2, 3)))
    ground_lo, ground_hi = _ground_mask(ends[:, :, 0], ends[:, :, 1]).swapaxes(0, 1).copy()
    depth, upper = np.zeros(len(brackets), dtype=int), c1.copy()  # halvings bisection makes
    while (wide := upper - c0 > CROSSING_WIDTH).any():
        upper[wide], depth[wide] = 0.5 * (c0 + upper)[wide], depth[wide] + 1
    # per bracket and end: [lattice point, Illinois weight, lowest eigenvalue of
    # each matrix (inf if not evaluated), top]; the end that moved last; the span
    # at each probe, after two spans that never force a midpoint
    side = [[[0, 1.0, low0[i], top0[i].max()], [1 << depth[i], 1.0, low1[i], top1[i].max()]]
            for i in range(len(brackets))]
    moved, spans = [None] * len(brackets), [[np.inf, np.inf] for _ in brackets]

    def pair(i: int):  # matrices a and b of bracket i, whose ends' sets differ
        leaves, enters = ground_lo[i] & ~ground_hi[i], ground_hi[i] & ~ground_lo[i]
        return (int(np.flatnonzero(leaves if leaves.any() else ground_lo[i])[0]),
                int(np.flatnonzero(enters if enters.any() else ground_hi[i])[0]))

    pairs = {i: pair(i) for i in range(len(brackets)) if (ground_lo[i] != ground_hi[i]).any()}

    def g(i: int, low: np.ndarray, top: float) -> float:  # > 0 on c_lo's side
        a, b = pairs[i]
        if ground_hi[i, b] > ground_lo[i, b]:  # b enters the ground set
            return low[b] - low[a] - _degeneracy_tol(top - low[a])
        return low[b] - low[a] + _degeneracy_tol(top - low[b])

    def probe(i: int) -> int:  # the lattice point bracket i evaluates next
        (lo, w_lo, *at_lo), (hi, w_hi, *at_hi) = side[i]
        spans[i].append(hi - lo)
        if i in pairs and 2 * spans[i][-1] <= spans[i][-3]:
            g_lo, g_hi = w_lo * g(i, *at_lo), w_hi * g(i, *at_hi)
            if 0 < g_lo < np.inf and g_hi < 0:
                return min(max(lo + round((hi - lo) * g_lo / (g_lo - g_hi)), lo + 1), hi - 1)
        return (lo + hi) // 2

    while todo := [i for i in range(len(brackets)) if side[i][1][0] - side[i][0][0] > 1]:
        probes, owner = [probe(i) for i in todo], np.array(todo)
        c = np.array([_halving_path(*lo_hi[i], depth[i], p)[-2] for i, p in zip(todo, probes)])
        t = ((c - c0[owner]) / (c1 - c0)[owner])[:, None]
        low, top, ground = _midpoint_blocks(
            blocks, J, c, ground_lo[owner] | ground_hi[owner],
            low0[owner] + t * (low1 - low0)[owner] - margin[owner, None],
            top0[owner] + t * (top1 - top0)[owner] + margin[owner, None])
        changed = (ground != ground_lo[owner]).any(axis=1).tolist()  # c_hi's end moves
        for r, (i, p, end) in enumerate(zip(todo, probes, changed)):
            if end and i not in pairs:
                ground_hi[i] = ground[r]
                pairs[i] = pair(i)
            if moved[i] == end:  # Illinois: the end that stayed weighs half
                side[i][1 - end][1] *= 0.5
            moved[i], side[i][end] = end, [p, 1.0, low[r], top[r]]

    cells = {i: _halving_path(*lo_hi[i], depth[i], side[i][0][0]) for i in pairs}
    mids = [(i, c) for i, cell in cells.items() for c in cell[:-2] or [0.5 * sum(cell)]]
    low = _extremes(blocks, J, np.repeat([c for _, c in mids], 2),
                    np.array([pairs[i] for i, _ in mids], dtype=np.intp).ravel())[0]
    gaps = np.full(len(brackets), np.inf)
    np.minimum.at(gaps, [i for i, _ in mids], np.abs(low[::2] - low[1::2]))
    return [(*cells[i][-2:], float(gaps[i])) if i in pairs else None for i in range(len(brackets))]


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
    keeps its identity through a crossing.  The overlaps come from the (Sz, k)
    block eigenvectors of each solve chunk, one batched product per stack (see
    ``_scores``); no dense column is formed.  Every grid interval where the
    ground level's continuation label changes is bisected, all of them together
    after the grid pass, to a width of 1e-6 in c on the set of ground (Sz, k)
    blocks, reading only block eigenvalues; it is a crossing only if that set
    changes in it.  The minimum gap seen between the two blocks' lowest levels
    is reported with each crossing (none on a grid of one point or none).
    """
    c_grid = _check_grid(c_grid)
    if n_levels < 2:
        raise DomainError("n_levels must be >= 2")
    return _track(system, J, n_levels, _grid_chunks(system, J, c_grid))


def _track(system: SpinSystem, J: float, n_levels: int, chunks) -> LevelTrack:
    """The loop of ``track_levels``.  ``chunks`` yields the ``_Chunk``s of the
    grid, in grid order, each carrying its c values; the tracker makes no other
    solve, and keeps of a chunk only its ``extremes`` and its last point's low
    block columns.  After the grid pass, one ``_refine_crossing`` call bisects
    every interval where the ground label changed, its ends' block eigenvalues
    taken from those ``extremes``."""
    tracked: dict[int, list] = {}
    brackets, changes = [], []  # per ground label change: (c_lo, c_hi, ends), (from, to)
    flagged: list[tuple[float, float]] = []

    last, labels, prev_c, prev_extremes = None, [], None, None
    for chunk in chunks:
        group, energies = _low_groups(chunk.eigenvalues, n_levels)
        scores, last = _scores(chunk, group, last)
        cs, extremes = chunk.c.tolist(), chunk.extremes
        del chunk  # unbound before the next chunk is solved
        energies = iter(energies)
        for c, point_scores, n_groups, point_extremes in zip(
                cs, scores, (group.max(axis=1) + 1).tolist(), extremes):
            prev_labels, labels = labels, _match_groups(point_scores, n_groups, labels)
            for label in labels:
                tracked.setdefault(label, []).append((c, next(energies)))
            if prev_labels and labels[0] not in prev_labels:
                # the new ground matched nothing from the previous point
                flagged.append((prev_c, c))
            if prev_labels and labels[0] != prev_labels[0]:
                brackets.append((prev_c, c, np.stack((prev_extremes, point_extremes))))
                changes.append((prev_labels[0], labels[0]))
            prev_c, prev_extremes = c, point_extremes

    crossings = [Crossing(x[0], x[1], change, x[2])
                 for change, x in zip(changes, _refine_crossing(system, J, brackets)) if x]
    return LevelTrack(tracked, crossings, flagged)
