"""
Star versus ring: the two limiting geometries
=============================================

N outer spins coupled by XX interactions, either to each other around a ring
(c = 0) or each to one central spin (c = 1).  The pure star has a simple
closed form for the concurrence between any two outer spins, and the pure
ring carries no next-to-nearest-neighbour entanglement at all.  Both facts
are checked here against the full diagonalization pipeline.
"""

import numpy as np

from spinweb import SpinSystem, ground_subspace, star_concurrence_closed_form
from spinweb.spectral import solve
from spinweb.sweep import pair_concurrence

print("outer-pair concurrence of the star ground state")
print(f"{'N':>3} {'pipeline':>12} {'closed form':>12}")
for n in range(2, 9):
    system = SpinSystem(n, has_central=True)
    gs = ground_subspace(solve(system, 1.0, 1.0))
    value = pair_concurrence(gs.density, system, (1, 2))
    print(f"{n:>3} {value:>12.8f} {star_concurrence_closed_form(n):>12.8f}")

# The closed form alternates between 1/N (odd N, unique ground state) and
# 1/N - 1/(N^2 - N) (even N, two-fold degenerate ground level).

print()
print("next-to-nearest-neighbour concurrence of the pure ring (c = 0)")
for n in (4, 5, 6, 7):
    system = SpinSystem(n, has_central=True)
    gs = ground_subspace(solve(system, 1.0, 0.0))
    c_nnn = pair_concurrence(gs.density, system, (1, 3))
    print(f"  N={n}: C_nnn = {c_nnn:.2e}  (degeneracy {gs.degeneracy})")

print()
print("ground energy of the N=4 ring:",
      ground_subspace(solve(SpinSystem(4), 1.0, 0.0)).energy,
      "= -4*sqrt(2) =", -4 * np.sqrt(2))
