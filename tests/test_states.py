"""States, partial trace, mixing and fidelity."""

from itertools import permutations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from spinweb import (
    DomainError,
    QuantumState,
    SpinSystem,
    TwoQubitRDM,
    fidelity,
    mix,
    partial_trace,
)

from conftest import random_sz_block_rdm


def _random_pure(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return QuantumState.pure(v / np.linalg.norm(v))


def _random_rank(rng, dim, rank):
    """Random density matrix of the given rank."""
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _dense_partial_trace(rho, system, keep):
    """Oracle: einsum over the full density, kept factors in ``keep`` order."""
    q = system.n_qubits
    rows = [chr(ord("a") + p) for p in range(q)]
    cols = [chr(ord("A") + p) for p in range(q)]
    keep_pos = [system.tensor_position(s) for s in keep]
    for p in range(q):
        if p not in keep_pos:
            cols[p] = rows[p]
    out = "".join(rows[p] for p in keep_pos) + "".join(cols[p] for p in keep_pos)
    red = np.einsum("".join(rows) + "".join(cols) + "->" + out,
                    rho.reshape((2,) * (2 * q)))
    return red.reshape(2 ** len(keep), 2 ** len(keep))


def _uhlmann(rho1, rho2):
    """Oracle: F = [tr sqrt(sqrt(rho1) rho2 sqrt(rho1))]^2 with dense sqrtm."""
    s = scipy.linalg.sqrtm(rho1)
    return np.trace(scipy.linalg.sqrtm(s @ rho2 @ s)).real ** 2


# ---------------------------------------------------------------------------
# QuantumState invariants
# ---------------------------------------------------------------------------

def test_pure_state_normalization_enforced():
    with pytest.raises(DomainError):
        QuantumState.pure([1.0, 1.0])
    s = QuantumState.pure([1.0, 0.0])
    assert s.kind == "pure"
    np.testing.assert_allclose(s.density(), np.diag([1.0, 0.0]))


def test_mixed_state_invariants_enforced():
    with pytest.raises(DomainError):
        QuantumState.mixed(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(DomainError):
        QuantumState.mixed(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(DomainError):
        QuantumState.mixed(np.diag([1.5, -0.5]))  # negative eigenvalue
    # the state keeps only its support factor; density() rebuilds the input
    rng = np.random.default_rng(7)
    for rank in (1, 2, 5):
        rho = _random_rank(rng, 5, rank)
        np.testing.assert_allclose(QuantumState.mixed(rho).density(), rho,
                                   atol=1e-12)


def test_mix_weights_validated():
    up = QuantumState.pure([1.0, 0.0])
    dn = QuantumState.pure([0.0, 1.0])
    rho = mix([up, dn], [0.25, 0.75])
    np.testing.assert_allclose(rho.density(), np.diag([0.25, 0.75]))
    with pytest.raises(DomainError):
        mix([up, dn], [0.5, 0.6])
    with pytest.raises(DomainError):
        mix([up, QuantumState.pure([1.0, 0.0, 0.0, 0.0])], [0.5, 0.5])


# ---------------------------------------------------------------------------
# Partial trace
# ---------------------------------------------------------------------------

def test_partial_trace_of_product_state_factorizes():
    s = SpinSystem(2, has_central=True)
    # |0> (x) |1> (x) |0>
    vec = np.zeros(8)
    vec[0b010] = 1.0
    state = QuantumState.pure(vec)
    rho1 = partial_trace(state, s, [1])
    np.testing.assert_allclose(rho1.density(), np.diag([0.0, 1.0]), atol=1e-14)
    rho02 = partial_trace(state, s, [0, 2])
    np.testing.assert_allclose(rho02.density(), np.diag([1.0, 0, 0, 0]), atol=1e-14)


def test_partial_trace_bell_pair_is_maximally_mixed():
    s = SpinSystem(1, has_central=True)
    bell = QuantumState.pure(np.array([0, 1, -1, 0]) / np.sqrt(2))
    rho = partial_trace(bell, s, [1])
    np.testing.assert_allclose(rho.density(), np.eye(2) / 2, atol=1e-14)


def test_partial_trace_keep_order_swaps_factors(rng):
    s = SpinSystem(3, has_central=True)
    state = _random_pure(rng, s.dimension)
    r12 = partial_trace(state, s, [1, 2]).density()
    r21 = partial_trace(state, s, [2, 1]).density()
    swap = np.eye(4)[[0, 2, 1, 3]]
    np.testing.assert_allclose(r21, swap @ r12 @ swap, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 4), st.integers(1, 3))
def test_partial_trace_preserves_trace_and_positivity(seed, n_outer, rank):
    rng = np.random.default_rng(seed)
    s = SpinSystem(n_outer, has_central=True)
    state = _random_pure(rng, s.dimension)
    mixture = mix([_random_pure(rng, s.dimension) for _ in range(rank)],
                  rng.dirichlet(np.ones(rank)))
    keep = list(rng.choice(s.sites, size=2, replace=False))
    rho = partial_trace(state, s, keep).density()
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-12
    sites = list(rng.choice(s.sites, size=3, replace=False))
    for k in (1, 2, 3):
        for order in permutations(sites[:k]):
            for sample in (state, mixture):
                np.testing.assert_allclose(
                    partial_trace(sample, s, order).density(),
                    _dense_partial_trace(sample.density(), s, order), atol=1e-12)


def test_partial_trace_rejects_bad_keep():
    s = SpinSystem(2, has_central=True)
    state = QuantumState.pure(np.eye(8)[0])
    with pytest.raises(DomainError):
        partial_trace(state, s, [])
    with pytest.raises(DomainError):
        partial_trace(state, s, [1, 1])
    with pytest.raises(DomainError):
        partial_trace(state, s, [7])


# ---------------------------------------------------------------------------
# TwoQubitRDM block structure
# ---------------------------------------------------------------------------

def test_sz_blocks_detected(rng):
    rho = random_sz_block_rdm(rng)
    blocks = TwoQubitRDM(rho).sz_blocks
    assert blocks is not None
    v, w, x, y, z = blocks
    assert abs(v + w + x + y - 1.0) < 1e-12
    assert z == rho[1, 2]


def test_sz_blocks_none_for_generic_matrix():
    rho = np.full((4, 4), 0.25)
    assert TwoQubitRDM(rho).sz_blocks is None


# ---------------------------------------------------------------------------
# Fidelity
# ---------------------------------------------------------------------------

def test_fidelity_pure_pure_is_overlap_squared(rng):
    a = _random_pure(rng, 8)
    b = _random_pure(rng, 8)
    expected = abs(np.vdot(a.vector, b.vector)) ** 2
    assert abs(fidelity(a, b) - expected) < 1e-12


def test_fidelity_identical_states_is_one(rng):
    psi = _random_pure(rng, 8)
    assert abs(fidelity(psi, psi) - 1.0) < 1e-12
    rho = QuantumState.mixed(np.eye(4) / 4)
    assert abs(fidelity(rho, rho) - 1.0) < 1e-12


def test_fidelity_orthogonal_states_is_zero():
    a = QuantumState.pure([1.0, 0.0])
    b = QuantumState.pure([0.0, 1.0])
    assert fidelity(a, b) == pytest.approx(0.0, abs=1e-14)


def test_fidelity_classical_case_matches_bhattacharyya(rng):
    # for commuting (diagonal) states F = (sum_i sqrt(p_i q_i))^2
    p = rng.dirichlet(np.ones(6))
    q = rng.dirichlet(np.ones(6))
    f = fidelity(QuantumState.mixed(np.diag(p)), QuantumState.mixed(np.diag(q)))
    assert abs(f - np.sqrt(p * q).sum() ** 2) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_fidelity_symmetric_and_unitarily_invariant(seed):
    rng = np.random.default_rng(seed)
    d = 6
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho1 = a @ a.conj().T
    rho2 = b @ b.conj().T
    rho1 /= np.trace(rho1).real
    rho2 /= np.trace(rho2).real
    s1, s2 = QuantumState.mixed(rho1), QuantumState.mixed(rho2)
    f = fidelity(s1, s2)
    assert 0.0 <= f <= 1.0
    assert abs(f - fidelity(s2, s1)) < 1e-10
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    f_rot = fidelity(QuantumState.mixed(u @ rho1 @ u.conj().T),
                     QuantumState.mixed(u @ rho2 @ u.conj().T))
    assert abs(f - f_rot) < 1e-10


def test_fidelity_mixed_pure_consistency(rng):
    # the pure/mixed fast path must agree with the general formula
    psi = _random_pure(rng, 4)
    rho = QuantumState.mixed(np.eye(4) / 4)
    f_fast = fidelity(psi, rho)
    f_general = fidelity(QuantumState.mixed(psi.density()), rho)
    assert abs(f_fast - f_general) < 1e-12
    assert abs(f_fast - 0.25) < 1e-12


# the oracle takes sqrtm of singular matrices on purpose; scipy's warning that the
# root may be inaccurate is what the 1e-7 tolerance below allows for
@pytest.mark.filterwarnings("ignore:Matrix is singular:scipy.linalg.LinAlgWarning")
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_fidelity_rank_deficient_matches_uhlmann_oracle(seed):
    rng = np.random.default_rng(seed)
    d = 6
    r1, r2 = (_random_rank(rng, d, int(r)) for r in rng.integers(1, 4, size=2))
    # sqrtm of a singular matrix turns round-off eigenvalues (~1e-16) into
    # ~1e-8 contributions, so the dense oracle is good to about 1e-7
    f = fidelity(QuantumState.mixed(r1), QuantumState.mixed(r2))
    assert abs(f - _uhlmann(r1, r2)) < 1e-7

    # projector mixtures B_i/sqrt(d_i): F = (sum of singular values of
    # B1-dagger B2)^2 / (d1 d2)
    d1, d2 = (int(x) for x in rng.integers(1, 4, size=2))
    b1, b2 = (np.linalg.qr(rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k)))[0]
              for k in (d1, d2))
    p1 = QuantumState.mixed(b1 @ b1.conj().T / d1)
    p2 = QuantumState.mixed(b2 @ b2.conj().T / d2)
    sigma = np.linalg.svd(b1.conj().T @ b2, compute_uv=False)
    f = fidelity(p1, p2)
    assert abs(f - sigma.sum() ** 2 / (d1 * d2)) < 1e-12
    assert abs(f - _uhlmann(p1.density(), p2.density())) < 1e-7
