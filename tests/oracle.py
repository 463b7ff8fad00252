"""Total-Sz block solver: the tests' oracle for the (Sz, k) solvers
``spectral.solve`` and ``spectral.solve_grid``.

Each popcount sector's ring and star blocks are built from bit flips and
diagonalized whole, and the eigenvectors are written into one dense
dim x dim matrix; the result equals ``eigendecompose(build_combined(...))``
bit for bit.
"""

from functools import lru_cache

import numpy as np

from spinweb import CouplingConfig, SpinSystem, spectral
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
