"""Two-qubit entanglement measures and spin-spin correlations."""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .operators import PAULI, _check_pair
from .states import QuantumState, TwoQubitRDM
from .system import SpinSystem

_SY_SY = np.kron(PAULI["y"], PAULI["y"])


def concurrence_wootters(rho: TwoQubitRDM) -> float:
    """Wootters concurrence C = max{0, l1 - l2 - l3 - l4}.

    The l_i are the descending square roots of the eigenvalues of
    rho (sy x sy) rho* (sy x sy), i.e. the singular values of A = sqrt(rho)
    (sy x sy) sqrt(rho)*, which avoids the square-root amplification of eigenvalue
    noise near zero.  The validated factor F of rho = F F-dagger gives sqrt(rho) =
    F V-dagger, V-dagger an isometry, so A has the singular values of
    F^T (sy x sy) F, padded with zeros to four.
    """
    f = QuantumState.mixed(rho.matrix).factor
    lam = np.zeros(4)
    lam[:f.shape[1]] = np.linalg.svd(f.T @ _SY_SY @ f, compute_uv=False)
    return float(min(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]), 1.0))


def concurrence_symmetric(rho: TwoQubitRDM) -> float:
    """Concurrence shortcut C = 2 max{|z| - sqrt(v*y), 0} for Sz-block RDMs."""
    blocks = rho.sz_blocks
    if blocks is None:
        raise DomainError(
            "RDM is not Sz-block-diagonal; use concurrence_wootters"
        )
    v, _, _, y, z = blocks
    return float(min(2.0 * max(abs(z) - np.sqrt(max(v, 0.0) * max(y, 0.0)), 0.0), 1.0))


def star_concurrence_closed_form(n_outer: int) -> float:
    """Outer-pair concurrence of the pure star ground state.

    1/N for odd N; 1/N - 1/(N^2 - N) for even N.
    """
    if n_outer < 2:
        raise DomainError(f"n_outer must be >= 2, got {n_outer}")
    n = n_outer
    if n % 2 == 1:
        return 1.0 / n
    return 1.0 / n - 1.0 / (n * n - n)


def entanglement_of_formation(concurrence: float) -> float:
    """Entanglement of formation h((1 + sqrt(1 - C^2)) / 2), h binary entropy."""
    if not 0.0 <= concurrence <= 1.0:
        raise DomainError(f"concurrence must lie in [0,1], got {concurrence}")
    x = 0.5 * (1.0 + np.sqrt(1.0 - concurrence ** 2))
    if x in (0.0, 1.0):
        return 0.0
    return float(-x * np.log2(x) - (1 - x) * np.log2(1 - x))


def correlation(state: QuantumState, system: SpinSystem, axis: str,
                site_i: int, site_j: int) -> float:
    """Two-point correlator <sigma_axis(i) sigma_axis(j)>, on the factor F with m
    the two sites' bits: XX = Re vdot(F, F[b ^ m]), YY that gather signed -1 where
    the bits agree, ZZ = sum(sign |F|^2) with sign -1 where the bits differ."""
    _check_pair(system, site_i, site_j, axis)
    system.validate_state(state)
    m = system.site_mask(site_i) | system.site_mask(site_j)
    b = np.arange(system.dimension)
    f = state.factor
    t = b & m
    differ = ((t != 0) & (t != m))[:, None]
    g = f if axis == "z" else f[b ^ m]
    if axis != "x":  # sign -1 where the bits differ (z) or agree (y)
        g = np.where(differ == (axis == "z"), -g, g)
    val = float(np.real(np.vdot(f, g)))
    if abs(val) > 1.0 + 1e-10:
        raise DomainError(f"correlator {val} outside [-1, 1]")
    return val
