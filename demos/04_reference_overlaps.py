"""
Reference-state overlaps across the sweep
=========================================

Three fidelities locate the ground state relative to known anchors as c
varies: O_r against the ring ground state, O_s against the star ground state,
and O_p against the best state in the span of the singlet coverings.  O_r stays near one on
the ring side and O_s near one on the star side; the switch happens around
the level crossings.

For odd N the c = 0 ring ground level is highly degenerate, so the
regularized reference at a small positive c ("ring_eps") is the useful one.
"""

import numpy as np

from spinweb import SweepConfig, run_sweep

config = SweepConfig(n_outer=4, c_grid=np.linspace(0.0, 1.0, 21),
                     references=("ring", "star", "singlet_ansatz"))
print("N = 4")
print(f"{'c':>5} {'O_r':>8} {'O_s':>8} {'O_p':>8}")
for r in run_sweep(config):
    print(f"{r.c:>5.2f} {r.O_r:>8.4f} {r.O_s:>8.4f} {r.O_p:>8.4f}")

config = SweepConfig(n_outer=5, c_grid=np.linspace(0.02, 1.0, 15),
                     references=("ring_eps", "star", "singlet_ansatz"),
                     ring_eps=0.02)
print("\nN = 5 (ring reference regularized at c = 0.02)")
print(f"{'c':>5} {'O_r':>8} {'O_s':>8} {'O_p':>8}")
for r in run_sweep(config):
    print(f"{r.c:>5.2f} {r.O_r:>8.4f} {r.O_s:>8.4f} {r.O_p:>8.4f}")

# O_p for N = 5 climbs towards 1 as c approaches the level change near 0.69,
# where the paired-singlet picture almost exactly captures the ground state.
