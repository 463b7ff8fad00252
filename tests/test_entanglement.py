"""Concurrence, entanglement of formation and correlators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinweb import (
    DomainError,
    QuantumState,
    SpinSystem,
    TwoQubitRDM,
    concurrence_symmetric,
    concurrence_wootters,
    correlation,
    entanglement_of_formation,
    pauli_pair,
    star_concurrence_closed_form,
)

from conftest import random_sz_block_rdm


def _rdm(rho):
    return TwoQubitRDM.from_state(QuantumState.mixed(rho))


def test_bell_state_concurrence_is_one():
    psi = np.array([0, 1, -1, 0]) / np.sqrt(2)
    rho = np.outer(psi, psi)
    assert concurrence_wootters(_rdm(rho)) == pytest.approx(1.0, abs=1e-12)
    assert concurrence_symmetric(_rdm(rho)) == pytest.approx(1.0, abs=1e-12)


def test_product_state_concurrence_is_zero():
    rho = np.diag([1.0, 0.0, 0.0, 0.0])
    assert concurrence_wootters(_rdm(rho)) == 0.0


def test_maximally_mixed_concurrence_is_zero():
    assert concurrence_wootters(_rdm(np.eye(4) / 4)) == 0.0


def test_werner_state_concurrence():
    # p-mixture of a singlet with white noise: C = max{0, (3p-1)/2}
    psi = np.array([0, 1, -1, 0]) / np.sqrt(2)
    singlet = np.outer(psi, psi)
    for p, expected in ((0.8, 0.7), (0.5, 0.25), (1 / 3, 0.0), (0.2, 0.0)):
        rho = p * singlet + (1 - p) * np.eye(4) / 4
        got = concurrence_wootters(_rdm(rho))
        assert got == pytest.approx(expected, abs=1e-10)


def test_partially_entangled_pure_state():
    # |psi> = a|01> + b|10> has C = 2|ab|
    a, b = 0.6, 0.8
    psi = np.array([0, a, b, 0])
    c = concurrence_wootters(_rdm(np.outer(psi, psi)))
    assert c == pytest.approx(2 * a * b, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_symmetric_shortcut_equals_wootters_on_block_states(seed):
    rho = random_sz_block_rdm(np.random.default_rng(seed))
    rdm = _rdm(rho)
    w = concurrence_wootters(rdm)
    s = concurrence_symmetric(rdm)
    assert abs(w - s) < 1e-9


SY_SY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])


def _wootters_by_definition(rho):
    """max{0, l1 - l2 - l3 - l4}, the l_i the singular values of
    sqrt(rho) (sy x sy) sqrt(rho)*, with sqrt(rho) from an eigendecomposition."""
    evals, vecs = np.linalg.eigh(rho)
    root = (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.conj().T
    lam = np.linalg.svd(root @ SY_SY @ root.conj(), compute_uv=False)
    return max(0.0, lam[0] - lam[1:].sum())


def test_wootters_on_random_pure_states_is_the_spin_flip_overlap(rng):
    for _ in range(50):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        rdm = TwoQubitRDM(np.outer(psi, psi.conj()))
        assert rdm.sz_blocks is None
        assert abs(concurrence_wootters(rdm) - abs(psi @ SY_SY @ psi)) <= 1e-12


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_wootters_on_random_mixed_states_matches_its_definition(rng, rank):
    for _ in range(50):
        f = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        rho = f @ f.conj().T
        rho /= np.trace(rho).real
        assert TwoQubitRDM(rho).sz_blocks is None
        assert abs(concurrence_wootters(TwoQubitRDM(rho)) - _wootters_by_definition(rho)) <= 1e-12


def test_symmetric_shortcut_rejects_generic_rdm():
    rho = np.full((4, 4), 0.25)
    with pytest.raises(DomainError):
        concurrence_symmetric(_rdm(rho))


def test_star_closed_form_values():
    assert star_concurrence_closed_form(3) == pytest.approx(1 / 3)
    assert star_concurrence_closed_form(5) == pytest.approx(1 / 5)
    assert star_concurrence_closed_form(4) == pytest.approx(1 / 4 - 1 / 12)
    assert star_concurrence_closed_form(6) == pytest.approx(1 / 6 - 1 / 30)
    with pytest.raises(DomainError):
        star_concurrence_closed_form(1)


def test_entanglement_of_formation_endpoints_and_monotonicity():
    assert entanglement_of_formation(0.0) == 0.0
    assert entanglement_of_formation(1.0) == pytest.approx(1.0)
    assert entanglement_of_formation(0.5) == pytest.approx(0.35457890266527, abs=1e-10)
    grid = np.linspace(0.0, 1.0, 50)
    vals = [entanglement_of_formation(c) for c in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        entanglement_of_formation(1.2)


def test_correlation_on_product_basis_state():
    s = SpinSystem(2, has_central=False)
    up_dn = np.zeros(4)
    up_dn[0b01] = 1.0
    state = QuantumState.pure(up_dn)
    assert correlation(state, s, "z", 1, 2) == pytest.approx(-1.0)
    assert correlation(state, s, "x", 1, 2) == pytest.approx(0.0)


def test_correlation_on_bell_state():
    s = SpinSystem(2, has_central=False)
    bell = QuantumState.pure(np.array([0, 1, -1, 0]) / np.sqrt(2))
    for axis in "xyz":
        assert correlation(bell, s, axis, 1, 2) == pytest.approx(-1.0)


@pytest.mark.parametrize("has_central", [True, False])
@pytest.mark.parametrize("n_outer", range(2, 8))
def test_correlation_equals_dense_pauli_pair(n_outer, has_central):
    s = SpinSystem(n_outer, has_central=has_central)
    rng = np.random.default_rng(1000 * n_outer + has_central)
    factors = []
    for rank in (1, 2, 3):
        f = rng.normal(size=(s.dimension, rank)) + 1j * rng.normal(size=(s.dimension, rank))
        factors.append(f / np.linalg.norm(f))
    for i, a in enumerate(s.sites):  # site 0 is among them with the central spin
        for b in s.sites[i + 1:]:
            for axis in "xyz":
                op = pauli_pair(s, a, b, axis).matrix
                for f in factors:
                    got = correlation(QuantumState("mixed", f), s, axis, a, b)
                    assert abs(got - np.real(np.vdot(f, op @ f))) < 1e-12, (a, b, axis)


@pytest.mark.parametrize("axis, a, b", [("w", 1, 2), ("x", 2, 2), ("z", 1, 9), ("y", 0, 1)])
def test_correlation_raises_as_pauli_pair(axis, a, b):
    s = SpinSystem(3, has_central=False)
    state = QuantumState.pure(np.eye(s.dimension)[0])
    with pytest.raises(DomainError) as dense:
        pauli_pair(s, a, b, axis)
    with pytest.raises(DomainError) as fast:
        correlation(state, s, axis, a, b)
    assert str(fast.value) == str(dense.value)
