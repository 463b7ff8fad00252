"""
Extracting a GHZ state by one local measurement
===============================================

In the N = 4 intermediate region the two-fold-degenerate ground level has the
form  gamma' |0>|C3'> + alpha' |1>|D>  (and its Sz mirror), where |D> is the
four-qubit GHZ state (|0101> - |1010>)/sqrt(2).  A weak uniform sigma_z field
picks out one member of the doublet; measuring the *central* spin afterwards
projects the outer spins either onto |D> (probability alpha'^2) or onto the
still-entangled |C3'> (probability gamma'^2).
"""

from spinweb import ground_subspace, n4
from spinweb.spectral import solve

lo, hi = n4.intermediate_region()
c = 0.5 * (lo + hi)
print(f"intermediate region ({lo:.5f}, {hi:.5f}); working at its midpoint c = {c:.5f}")

coeffs = n4.extract_coefficients(ground_subspace(solve(n4.FULL, 1.0, c)), c)
print(f"level {coeffs.level} coefficients: alpha' = {coeffs.alpha_p:+.5f}, "
      f"gamma' = {coeffs.gamma_p:+.5f}")

for o in n4.ghz_protocol(c, region=(lo, hi)):
    print(f"\ncentral spin measured as |{o.central_result}>  ->  {o.outcome}"
          f"  (probability {o.probability:.5f})")
    print("  bipartition entropies:",
          " ".join(f"{s:.4f}" for s in o.bipartition_entropies))
    print("  pairwise concurrences:",
          " ".join(f"{x:.4f}" for x in o.pairwise_concurrences))

# The |D> branch shows exactly one ebit across all seven bipartitions -- the
# GHZ signature -- while its pairwise concurrences are all zero.  The same
# procedure in the star region (level I ground state) instead yields |C3>
# with probability gamma^2, about 0.49 near c = 1:

print("\nstar region, c = 0.95:")
for o in n4.star_region_protocol(0.95, region=(hi, 1.0)):
    print(f"  |{o.central_result}> -> {o.outcome}  (probability {o.probability:.5f})")
