"""spinweb: ground-state entanglement of XX spin networks between ring and star.

Exact diagonalization of the Hamiltonian J * [c * H_star + (1 - c) * H_ring]
for N outer spins plus a central spin, with concurrence sweeps, level-crossing
detection, reference-state fidelities, the N=4 analytic layer, and the
GHZ-state extraction protocol.

``SPINWEB_THREADS=k`` caps the BLAS thread pool: importing the package copies
a positive decimal integer ``k`` into ``OMP_NUM_THREADS``,
``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` (values already set take
precedence) and ignores any other value, which the command line rejects.  It
takes effect only if numpy has not been imported earlier in the process.
"""

import os as _os


def _is_thread_count(value: str) -> bool:
    """The rule for ``SPINWEB_THREADS``: a positive decimal integer."""
    return value.isascii() and value.isdigit() and int(value) > 0


# must land in the environment before the imports below load numpy's BLAS
_threads = _os.environ.get("SPINWEB_THREADS")
if _threads and _is_thread_count(_threads):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from .entanglement import (
    concurrence_symmetric,
    concurrence_wootters,
    correlation,
    entanglement_of_formation,
    star_concurrence_closed_form,
)
from .errors import DomainError, ResourceLimitError, SpinwebError
from .hamiltonian import CouplingConfig, build_combined, build_ring, build_star
from .operators import (
    HermitianOperator,
    SzSectorDecomposition,
    pauli_pair,
    pauli_site,
    total_sz,
    total_sz_sectors,
    xx_coupling,
)
from .spectral import (
    Crossing,
    GroundSubspace,
    LevelTrack,
    Spectrum,
    eigendecompose,
    ground_subspace,
    track_levels,
)
from .states import QuantumState, TwoQubitRDM, fidelity, mix, partial_trace
from .sweep import (
    ReferenceSet,
    SweepConfig,
    SweepRecord,
    build_singlet_ansatz,
    make_references,
    optimize_ansatz_phases,
    reference_overlaps,
    run_sweep,
    singlet_coverings,
)
from .system import SpinSystem
from . import n4

__version__ = "0.1.0"

__all__ = [
    "concurrence_symmetric", "concurrence_wootters",
    "correlation", "entanglement_of_formation", "star_concurrence_closed_form",
    "DomainError", "ResourceLimitError", "SpinwebError",
    "CouplingConfig", "build_combined", "build_ring", "build_star",
    "HermitianOperator", "SzSectorDecomposition", "pauli_pair", "pauli_site",
    "total_sz", "total_sz_sectors", "xx_coupling",
    "Crossing", "GroundSubspace", "LevelTrack", "Spectrum",
    "eigendecompose", "ground_subspace", "track_levels",
    "QuantumState", "TwoQubitRDM", "fidelity", "mix", "partial_trace",
    "ReferenceSet", "SweepConfig", "SweepRecord", "build_singlet_ansatz",
    "make_references", "optimize_ansatz_phases", "reference_overlaps",
    "run_sweep", "singlet_coverings",
    "SpinSystem", "n4",
]
