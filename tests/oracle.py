"""The tests' oracles for ``spectral``.

The total-Sz block solver is the oracle of the (Sz, k) solver: ``spectral.solve``
and the chunks of ``spectral._grid_chunks``.  Each popcount sector's ring and
star blocks are built from bit flips and diagonalized whole, and the
eigenvectors are written into one dense dim x dim matrix; the result equals
``eigendecompose(build_combined(...))`` bit for bit.  ``momentum_blocks``
builds the (Sz, k) blocks sector by sector and momentum by momentum, the
reference of the one-pass ``spectral._momentum_blocks``.
``full_refine_crossing`` is the crossing bisection with nothing pruned, and
``dense_track`` the level tracker with dense group bases and an SVD score for
every pair of groups (``all_pairs_match_groups``); ``bracket_ends`` gives a
bisection that has no grid pass its ends.  ``record`` builds one sweep record from the
public per-state functions, the reference of the batched record builder.
``free_fermion_ring`` is the exact c = 0 ground level (energy, degeneracy and
pair observables) at any N, and ``star_energy`` the closed-form c = 1 ground energy.
"""

from functools import lru_cache
from itertools import combinations, count

import numpy as np

from spinweb import CouplingConfig, DomainError, SpinSystem, correlation, spectral, sweep
from spinweb.operators import popcount_sectors


def bond_block(idx: np.ndarray, masks: list[int]) -> np.ndarray:
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
def sector_blocks(system: SpinSystem):
    """Total-Sz sectors and the (ring, star) blocks (J=1) on each, from bit flips;
    equal, entry for entry, to slices of ``build_ring``/``build_star``."""
    ring, star = spectral._bond_masks(system)
    sectors = popcount_sectors(system.dimension)
    return sectors, [(bond_block(idx, ring), bond_block(idx, star)) for idx in sectors]


def _bloch(m: int, l: np.ndarray, n_outer: int) -> np.ndarray:
    """e^{-ikl} at k = 2 pi m / N; real (1 or (-1)^l) at k = 0 and pi."""
    if (2 * m) % n_outer:
        return np.exp(-2j * np.pi * m * l / n_outer)
    return 1.0 - 2.0 * (l % 2) if m else np.ones(l.size)


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
    phase = _bloch(m, shift[inside], n_outer)
    block = np.zeros((int(keep.sum()),) * 2, dtype=phase.dtype)
    np.add.at(block, (pos[to[inside]], pos[frm[inside]]), amp[inside] * phase)
    return 0.5 * (block + block.conj().T)  # exactly Hermitian despite sqrt round-off


def momentum_blocks(system: SpinSystem) -> spectral._Blocks:
    """Reference for ``spectral._momentum_blocks``: the same ``_Blocks``, built one
    popcount sector at a time, one block per (sector, momentum) with ``np.add.at``,
    and the stacks gathered with ``np.stack``."""
    n = system.n_outer
    outer = (1 << n) - 1
    ring, star = spectral._bond_masks(system)
    grouped: dict[tuple, list] = {}
    layout = []  # (stack key, position in the stack, part), one per (Sz, k), k and -k apart
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
            parts = (1, 2) if np.iscomplexobj(r) else (0,)
            inside = keep[rep_at]
            rep = rep_at[inside]
            amps = _bloch(m, shift_at[inside], n).conj() * np.sqrt(len(parts) / period[rep])
            expand = (idx[inside], (np.cumsum(keep) - 1)[rep], amps)
            for a in expand:
                a.setflags(write=False)
            key = (r.shape[0], r.dtype.kind)
            group = grouped.setdefault(key, [])
            layout += [(key, len(group), part) for part in parts]
            group.append(((r, s), expand))
    stacks, maps = [], []
    for group in grouped.values():
        blocks, expands = zip(*group)
        r, s = (np.stack(x) for x in zip(*blocks))
        for a in (r, s):
            a.setflags(write=False)
        stacks.append((r, s))
        maps.append(expands)
    stack_of = {key: i for i, key in enumerate(grouped)}
    entries = np.array([(stack_of[key], b, level, part)
                        for key, b, part in layout for level in range(key[0])])
    sizes = np.array([ring.shape[1] for ring, _ in stacks])
    offsets = np.concatenate(([0], np.cumsum([ring.shape[0] * ring.shape[1]
                                              for ring, _ in stacks])))
    stack, b, level = entries[:, 0], entries[:, 1], entries[:, 2]
    gather = offsets[stack] + b * sizes[stack] + level
    first = np.cumsum([0] + [ring.shape[0] for ring, _ in stacks])
    matrix = first[stack] + b
    for a in (gather, entries, matrix, first):
        a.setflags(write=False)
    return spectral._Blocks(system.dimension, stacks, maps, gather, entries, matrix, first)


def sz_block_solve(system: SpinSystem, J: float, c: float) -> spectral.Spectrum:
    """Spectrum of J * [c * H_star + (1-c) * H_ring] from the Sz blocks, with a
    dense eigenvector matrix; equal, bit for bit, to the dense path."""
    config = CouplingConfig(J=J, c=c)
    sectors, pairs = sector_blocks(system)
    return spectral._solve_blocks((config.J * (config.c * s + (1.0 - config.c) * r)
                                   for r, s in pairs), sectors, system.dimension)


def bracket_ends(system: SpinSystem, J: float, c_lo: float, c_hi: float) -> np.ndarray:
    """Every (Sz, k) block's lowest and highest eigenvalue at c_lo and at c_hi, the
    ``ends`` of a bracket of ``spectral._refine_crossing``: one ``eigvalsh`` of
    every block at both ends."""
    return spectral._grid_ground_blocks(system, J, [c_lo, c_hi])[0]


def sz_block_grid_chunks(system: SpinSystem, J: float, cs):
    """``sz_block_solve`` at each c of ``cs`` in turn, in the form of
    ``spectral._grid_chunks`` with one point per chunk: the dense spectrum is one
    stack of one matrix, which labels every level 0 and column j its level j.
    Each chunk carries the (Sz, k) blocks' extremes from ``eigvalsh``, which the
    tracker's bisection reads and the Sz-block solve does not give."""
    for c in np.asarray(cs, dtype=float).ravel().tolist():
        spec = sz_block_solve(system, J, c)
        dim = spec.eigenvalues.size
        yield spectral._Chunk(np.array([c]), spec.eigenvalues[None], np.zeros((1, dim), np.intp),
                              np.arange(dim)[None], spectral._grid_ground_blocks(system, J, [c])[0],
                              [spec.vectors()[None, None]], np.array([0, 1]),
                              lambda counts, spec=spec: spec.vectors(counts[0])[None])


def ground_blocks(system: SpinSystem, J: float, c: float):
    """Every (Sz, k) block's lowest eigenvalue at c, by matrix number, and the set
    of ground matrices, those within ``ground_subspace``'s degeneracy threshold of
    the minimum; every block diagonalized, one ``eigvalsh`` per stack."""
    config = CouplingConfig(J=J, c=c)
    vals = [np.linalg.eigvalsh(config.J * (config.c * star + (1.0 - config.c) * ring))
            for ring, star in spectral._momentum_blocks(system).stacks]
    lowest = np.concatenate([v[:, 0] for v in vals])
    top = max(v[:, -1].max() for v in vals)
    e0 = lowest.min()
    thr = spectral.DEGENERACY_TOL * (top - e0)
    return lowest, frozenset(np.flatnonzero(lowest <= e0 + thr).tolist())


def full_refine_crossing(system: SpinSystem, J: float, c_lo: float, c_hi: float,
                         midpoints=None):
    """Reference for one bracket of ``spectral._refine_crossing``: the same
    bisection rule, one midpoint at a time, with every (Sz, k) block diagonalized
    at every midpoint.  Each c between the ends at which it reads block
    eigenvalues is appended to ``midpoints``, when given."""
    midpoints = [] if midpoints is None else midpoints
    ground_lo = ground_blocks(system, J, c_lo)[1]
    ground_hi = ground_blocks(system, J, c_hi)[1]
    lowests = []
    while c_hi - c_lo > spectral.CROSSING_WIDTH:
        c_mid = 0.5 * (c_lo + c_hi)
        midpoints.append(c_mid)
        lowest, ground = ground_blocks(system, J, c_mid)
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
        midpoints.append(0.5 * (c_lo + c_hi))
        lowests.append(ground_blocks(system, J, midpoints[-1])[0])
    a, b = min(ground_lo - ground_hi or ground_lo), min(ground_hi - ground_lo or ground_hi)
    return c_lo, c_hi, float(min(abs(lowest[a] - lowest[b]) for lowest in lowests))


def group_bounds(spec: spectral.Spectrum, n_levels: int) -> list[int]:
    """Reference for ``spectral._low_groups`` at one point: the column bounds of
    the groups, each the lowest ungrouped level and every level within the
    degeneracy tolerance above it, until n_levels levels are covered."""
    ev = spec.eigenvalues
    thr = spectral._degeneracy_tol(float(ev[-1] - ev[0]))
    bounds = [0]
    while bounds[-1] < min(n_levels, ev.size):
        bounds.append(int(np.searchsorted(ev, ev[bounds[-1]] + thr, side="right")))
    return bounds


def dense_groups(spec: spectral.Spectrum, n_levels: int):
    """The groups of ``group_bounds`` as [(mean energy, dense basis)], the bases
    formed by ``Spectrum.vectors``."""
    bounds = group_bounds(spec, n_levels)
    vecs = spec.vectors(bounds[-1])
    return [(float(spec.eigenvalues[start:stop].mean()), vecs[:, start:stop])
            for start, stop in zip(bounds, bounds[1:])]


TIE = 1e-12  # two scores this close are a tie that round-off may decide either way


def all_pairs_match_groups(prev_labeled, groups):
    """Reference for ``spectral._match_groups``: the same greedy assignment, with
    an SVD of the dense overlap for every pair of groups, whatever their
    matrices.  ``prev_labeled`` maps each previous label to its group's basis.
    Returns the labels, and whether two scores above the threshold
    that compete for a group or a label lie within ``TIE``."""
    scores = []
    for gi, (_, v) in enumerate(groups):
        for label, v_prev in prev_labeled.items():
            s = np.linalg.svd(v_prev.conj().T @ v, compute_uv=False)
            scores.append((float(s.max(initial=0.0)), gi, label))
    scores.sort(reverse=True)
    above = [x for x in scores if x[0] > spectral.OVERLAP_THRESHOLD]
    tied = any(s - t <= TIE and (g == h or k == m)
               for i, (s, g, k) in enumerate(above) for t, h, m in above[i + 1:])
    assigned = {}
    for _, gi, label in above:
        if gi not in assigned and label not in assigned.values():
            assigned[gi] = label
    fresh = count(max(prev_labeled, default=-1) + 1)
    return [assigned[gi] if gi in assigned else next(fresh) for gi in range(len(groups))], tied


def dense_track(system: SpinSystem, J: float, c_grid, n_levels: int):
    """Reference for ``spectral.track_levels``: the same loop one grid point at a
    time, on ``dense_groups`` matched by ``all_pairs_match_groups``, with the
    tracker's bisection.  Returns the ``LevelTrack`` and the c values at which
    the matching met a tie."""
    tracked, crossings, flagged, ties = {}, [], [], []
    prev_labeled, prev_ground, prev_c, prev_extremes = {}, None, None, None
    points = ((c, chunk.spectrum(i), chunk.extremes[i])
              for chunk in spectral._grid_chunks(system, J, c_grid)
              for i, c in enumerate(chunk.c.tolist()))
    for c, spec, extremes in points:
        groups = dense_groups(spec, n_levels)
        labels, tied = all_pairs_match_groups(prev_labeled, groups)
        if tied:
            ties.append(c)
        for label, (energy, _) in zip(labels, groups):
            tracked.setdefault(label, []).append((c, energy))
        ground = labels[0]
        if prev_labeled and ground not in prev_labeled:
            flagged.append((prev_c, c))
        if prev_ground is not None and ground != prev_ground:
            refined, = spectral._refine_crossing(
                system, J, [(prev_c, c, np.stack((prev_extremes, extremes)))])
            if refined is not None:
                lo, hi, gap = refined
                crossings.append(spectral.Crossing(lo, hi, (prev_ground, ground), gap))
        prev_labeled = {label: v for label, (_, v) in zip(labels, groups)}
        prev_ground, prev_c, prev_extremes = ground, c, extremes
    return spectral.LevelTrack(tracked, crossings, flagged), ties


def record(config, system, refs, c, spec):
    """Reference for ``sweep._chunk_records``: the SweepRecord of the grid point c
    from its spectrum, one point at a time, through ``ground_subspace``,
    ``pair_concurrence``, ``correlation`` and ``reference_overlaps``."""
    try:
        gs = spectral.ground_subspace(spec)
        rho = gs.density
        nn, nnn = config.nn_pair, config.resolved_nnn_pair
        o_r, o_s, o_p = sweep.reference_overlaps(rho, refs)
        return sweep.SweepRecord(
            c=c,
            ground_energy=gs.energy,
            ground_degeneracy=gs.degeneracy,
            low_energies=tuple(float(e) for e in spec.eigenvalues[:config.n_levels]),
            C_nn=sweep.pair_concurrence(rho, system, nn),
            C_nnn=sweep.pair_concurrence(rho, system, nnn),
            XX_nn=correlation(rho, system, "x", *nn),
            XX_nnn=correlation(rho, system, "x", *nnn),
            ZZ_nn=correlation(rho, system, "z", *nn),
            ZZ_nnn=correlation(rho, system, "z", *nnn),
            O_r=o_r, O_s=o_s, O_p=o_p,
        )
    except DomainError as exc:
        raise DomainError(f"sweep failed at c={c}: {exc}") from exc


def free_fermion_ring(n_outer, J):
    """The c = 0 ground level from free fermions (Lieb, Schultz and Mattis, Ann.
    Phys. 16, 407 (1961)): (E0, degeneracy, {pair: (C, XX, ZZ)}) of the ground
    projector mixture, for the pairs (1, 2) and (1, 3).

    Jordan-Wigner along sites 1..N, a particle being bit 1, turns J H_ring into
    hopping with modes eps = 4J cos q, q = 2 pi (j + 1/2 [M even]) / N for M
    particles (boundary sign (-1)^(M+1)).  The ground level holds every lowest
    filling over all M, with every choice from a partly filled shell: one Slater
    determinant each, twice over for the free central spin.  Per determinant,
    with G_ij = <c_i^dagger c_j> and Wick's theorem, the pair RDM has
    v = 1 - G_ii - G_jj + <n_i n_j>, y = <n_i n_j> and z = G_ij, less
    2 (G_ij G_ss - G_is G_sj) with a site s between; the mixture averages them.
    """
    n, sites, tol = n_outer, np.arange(n_outer), 1e-9
    fillings = []  # (energy, momenta of the occupied modes)
    for m in range(n + 1):
        q = 2.0 * np.pi * (sites + 0.5 * (m % 2 == 0)) / n
        eps = 4.0 * J * np.cos(q)
        fermi = np.sort(eps)[m - 1] if m else -np.inf
        below, shell = eps < fermi - tol, np.flatnonzero(np.abs(eps - fermi) <= tol)
        for pick in combinations(shell.tolist(), m - int(below.sum())):
            occupied = np.flatnonzero(below).tolist() + list(pick)
            fillings.append((float(eps[occupied].sum()), q[occupied]))
    e0 = min(e for e, _ in fillings)
    ground = [q for e, q in fillings if e <= e0 + tol]
    entries = {pair: np.zeros(4, dtype=complex) for pair in ((1, 2), (1, 3))}  # v, y, z, ZZ
    for q in ground:
        phi = np.exp(1j * np.outer(sites, q)) / np.sqrt(n)
        G = phi.conj() @ phi.T
        for (a, b), sums in entries.items():
            i, j = a - 1, b - 1
            nn = G[i, i] * G[j, j] - G[i, j] * G[j, i]
            z = G[i, j]
            if j - i == 2:
                s = i + 1
                z -= 2.0 * (G[i, j] * G[s, s] - G[i, s] * G[s, j])
            sums += (1.0 - G[i, i] - G[j, j] + nn, nn, z,
                     1.0 - 2.0 * G[i, i] - 2.0 * G[j, j] + 4.0 * nn)
    observables = {}
    for pair, sums in entries.items():
        v, y, z, zz = sums / len(ground)
        conc = 2.0 * max(0.0, abs(z) - np.sqrt(max(v.real, 0.0) * max(y.real, 0.0)))
        observables[pair] = (conc, 2.0 * z.real, zz.real)
    return e0, 2 * len(ground), observables


def star_energy(n_outer, J):
    """Star ground energy: -2J max_m sqrt(S(S+1) - m(m+1)) with S = N/2."""
    S = n_outer / 2
    m = np.arange(-S, S)
    return float(-2.0 * J * np.sqrt(S * (S + 1) - m * (m + 1)).max())
