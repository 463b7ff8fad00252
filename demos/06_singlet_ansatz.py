"""
The singlet-covering ansatz
===========================

XX bonds favour singlet pairing.  For even N the outer ring admits two
nearest-neighbour dimer coverings (the central spin stays unpaired); for odd
N one spin is frustrated on the pure ring, and pairing it with the *central*
spin -- in a superposition over the N rotations of that pattern -- captures
how the star coupling relieves the frustration.

The overlap is the best one over the span of the covering terms, in closed
form: deg * sigma_max(Q^dagger F)^2, with Q an orthonormal basis of the span
and F the ground factor (for even N, the factor of the outer-spin density).
One small SVD per c, and no optimizer.  On N = 4..6 this equals the optimum
over unit-modulus term phases (``optimize_ansatz_phases``).
"""

import numpy as np

from spinweb import SpinSystem, ground_subspace, singlet_coverings
from spinweb.spectral import solve
from spinweb.sweep import ansatz_overlap

print("coverings for N = 4 (outer sites only):", singlet_coverings(4))
print("coverings for N = 5 (0 = central site):")
for cov in singlet_coverings(5):
    print("   ", cov)

for n, c_values in ((4, [0.02, 0.05, 0.2]), (6, [0.0, 0.05, 0.2]),
                    (5, [0.1, 0.4, 0.65, 0.69])):
    system = SpinSystem(n, has_central=True)
    print(f"\nN = {n}: best ansatz overlap with the ground state")
    for c in c_values:
        gs = ground_subspace(solve(system, 1.0, c))
        f = ansatz_overlap(n, gs.density)
        print(f"  c = {c:<5} F = {f:.6f}")

# For N = 5 the overlap climbs steadily and peaks just below the ground-level
# change near c = 0.694 -- the paired-singlet picture is nearly exact there.
