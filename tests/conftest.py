"""Shared fixtures: ground-state solves are cached across the suite."""

import os
import sys
from functools import lru_cache

import numpy as np
import pytest

sys.dont_write_bytecode = True  # before spinweb is imported: no .pyc lands in src/

import spinweb
from spinweb import (
    CouplingConfig,
    SpinSystem,
    build_combined,
    eigendecompose,
    ground_subspace,
)

# source root of the spinweb under test; children get it on PYTHONPATH so they
# import it whether or not the package is installed, and write no bytecode into it
SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(spinweb.__file__)))


def child_env():
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
            "PYTHONPATH": SRC_ROOT + (os.pathsep + path if path else "")}


def bare_env(**extra):
    """An environment with nothing of the caller's but ``PATH``: no BLAS or
    ``SPINWEB_THREADS`` variables, the spinweb under test on ``PYTHONPATH`` and
    no bytecode written, plus ``extra``."""
    return {"PATH": "/usr/bin:/bin:/usr/local/bin", "PYTHONPATH": SRC_ROOT,
            "PYTHONDONTWRITEBYTECODE": "1", **extra}


@lru_cache(maxsize=None)
def _ground(n_outer: int, c: float, J: float = 1.0):
    system = SpinSystem(n_outer, has_central=True)
    h = build_combined(system, CouplingConfig(J=J, c=c))
    return ground_subspace(eigendecompose(h))


@pytest.fixture
def ground():
    """ground(n_outer, c, J=1.0) -> GroundSubspace, memoized."""
    return _ground


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)


def random_sz_block_rdm(rng):
    """Random two-qubit density matrix with the Sz-conserving block form."""
    v, w, x, y = rng.dirichlet(np.ones(4))
    z = (rng.normal() + 1j * rng.normal()) * 0.5
    lim = np.sqrt(w * x)
    if abs(z) > lim:
        z *= lim / abs(z) * rng.uniform(0.0, 1.0)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0], rho[3, 3] = v, y
    rho[1, 1], rho[2, 2] = w, x
    rho[1, 2], rho[2, 1] = z, np.conj(z)
    return rho
