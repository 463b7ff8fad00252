"""The tests' oracles for ``spectral``.

The total-Sz block solver is the oracle of the (Sz, k) solvers ``spectral.solve``
and ``spectral.solve_grid``.  Each popcount sector's ring and star blocks are
built from bit flips and diagonalized whole, and the eigenvectors are written
into one dense dim x dim matrix; the result equals
``eigendecompose(build_combined(...))`` bit for bit.  ``full_refine_crossing``
and ``all_pairs_match_groups`` are the crossing bisection and the level
matching with nothing pruned.  ``record`` builds one sweep record from the
public per-state functions, the reference of the batched record builder.
"""

from functools import lru_cache
from itertools import count

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


def sz_block_solve(system: SpinSystem, J: float, c: float) -> spectral.Spectrum:
    """Spectrum of J * [c * H_star + (1-c) * H_ring] from the Sz blocks, with a
    dense eigenvector matrix; equal, bit for bit, to the dense path."""
    config = CouplingConfig(J=J, c=c)
    sectors, pairs = sector_blocks(system)
    return spectral._solve_blocks((config.J * (config.c * s + (1.0 - config.c) * r)
                                   for r, s in pairs), sectors, system.dimension)


def sz_block_solve_grid(system: SpinSystem, J: float, cs):
    """``sz_block_solve`` at each c of ``cs`` in turn, in the form of ``solve_grid``."""
    for c in np.asarray(cs, dtype=float).ravel().tolist():
        yield sz_block_solve(system, J, c)


def ground_blocks(system: SpinSystem, J: float, c: float):
    """Every (Sz, k) block's lowest eigenvalue at c, by block id, and the set of
    ground block ids, those within ``ground_subspace``'s degeneracy threshold of
    the minimum; every block diagonalized, one ``eigvalsh`` per stack."""
    config = CouplingConfig(J=J, c=c)
    stacks = spectral._momentum_blocks(system).stacks
    lowest = np.empty(sum(ids.size for _, _, ids in stacks))
    top = -np.inf
    for ring, star, ids in stacks:
        vals = np.linalg.eigvalsh(config.J * (config.c * star + (1.0 - config.c) * ring))
        lowest[ids] = vals[:, :1]
        top = max(top, vals[:, -1].max())
    e0 = lowest.min()
    thr = spectral.DEGENERACY_TOL * max(1.0, top - e0)
    return lowest, frozenset(np.flatnonzero(lowest <= e0 + thr).tolist())


def full_refine_crossing(system: SpinSystem, J: float, c_lo: float, c_hi: float):
    """Reference for ``spectral._refine_crossing``: the same bisection rule, with
    every (Sz, k) block diagonalized at every midpoint."""
    ground_lo = ground_blocks(system, J, c_lo)[1]
    ground_hi = ground_blocks(system, J, c_hi)[1]
    lowests = []
    while c_hi - c_lo > spectral.CROSSING_WIDTH:
        c_mid = 0.5 * (c_lo + c_hi)
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
        lowests.append(ground_blocks(system, J, 0.5 * (c_lo + c_hi))[0])
    a, b = min(ground_lo - ground_hi or ground_lo), min(ground_hi - ground_lo or ground_hi)
    return c_lo, c_hi, float(min(abs(lowest[a] - lowest[b]) for lowest in lowests))


def all_pairs_match_groups(prev_labeled, groups):
    """Reference for ``spectral._match_groups``: the same greedy assignment, with
    an SVD score for every pair of groups, whatever their block labels."""
    scores = []
    for gi, (_, v, _) in enumerate(groups):
        for label, (v_prev, _) in prev_labeled.items():
            s = np.linalg.svd(v_prev.conj().T @ v, compute_uv=False)
            scores.append((float(s.max(initial=0.0)), gi, label))
    scores.sort(reverse=True)
    assigned = {}
    for s, gi, label in scores:
        if s <= spectral.OVERLAP_THRESHOLD:
            break
        if gi not in assigned and label not in assigned.values():
            assigned[gi] = label
    fresh = count(max(prev_labeled, default=-1) + 1)
    return [assigned[gi] if gi in assigned else next(fresh) for gi in range(len(groups))]


def record(config, system, refs, c, spec):
    """Reference for ``sweep._chunk_records``: the SweepRecord of the grid point c
    from its spectrum, one point at a time, through ``ground_subspace``,
    ``pair_concurrence``, ``correlation`` and ``reference_overlaps``."""
    try:
        gs = spectral.ground_subspace(spec)
        rho = gs.density
        nn, nnn = config.nn_pair, config.resolved_nnn_pair
        o_r, o_s, o_p = sweep.reference_overlaps(rho, refs, system)
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
