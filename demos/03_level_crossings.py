"""
Tracking energy levels through crossings
========================================

Ground-state observables jump where the identity of the lowest level changes.
Levels are continued between grid points by eigenvector-subspace overlap (not
by energy order), so a level keeps its label through a crossing.  A grid
interval where the ground label changes is bisected to a width of 1e-6 in c on
the (total Sz, ring momentum k) blocks that hold the ground level; it is a
crossing only if that set of blocks changes.

For N = 4 there are exactly two such crossings.  They bound the intermediate
region in which a different level -- carrying no two-qubit entanglement at
all -- is the ground level.
"""

import numpy as np

from spinweb import SpinSystem, track_levels

system = SpinSystem(4, has_central=True)
track = track_levels(system, 1.0, np.linspace(0.0, 1.0, 101), n_levels=4)

print("refined ground-level crossings for N = 4:")
for x in track.crossings:
    print(f"  c in ({x.c_lo:.7f}, {x.c_hi:.7f})"
          f"  labels {x.labels[0]} -> {x.labels[1]}  min gap {x.min_gap:.2e}")

lo = track.crossings[0].c_hi
hi = track.crossings[1].c_lo
print(f"intermediate region: ({lo:.6f}, {hi:.6f})  (contains c = 0.7)")

# A larger even network for comparison: a single crossing, no re-entry.
track6 = track_levels(SpinSystem(6, has_central=True), 1.0,
                      np.linspace(0.0, 1.0, 101), n_levels=4)
print("\ncrossings for N = 6:")
for x in track6.crossings:
    print(f"  c in ({x.c_lo:.7f}, {x.c_hi:.7f})")
