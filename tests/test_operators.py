"""Pauli embedding, Hermitian-operator arithmetic and Sz sectors."""

import numpy as np
import pytest

from spinweb import (
    DomainError,
    HermitianOperator,
    SpinSystem,
    pauli_pair,
    pauli_site,
    total_sz,
    total_sz_sectors,
    xx_coupling,
)
from spinweb import operators
from spinweb.operators import PAULI

I2 = np.eye(2)
SX, SY, SZ = PAULI["x"], PAULI["y"], PAULI["z"]


def test_pauli_site_against_explicit_kron():
    s = SpinSystem(2, has_central=True)  # qubits (0, 1, 2), dim 8
    np.testing.assert_allclose(
        pauli_site(s, 0, "z").matrix, np.kron(SZ, np.kron(I2, I2)))
    np.testing.assert_allclose(
        pauli_site(s, 1, "x").matrix, np.kron(I2, np.kron(SX, I2)))
    np.testing.assert_allclose(
        pauli_site(s, 2, "y").matrix, np.kron(I2, np.kron(I2, SY)))


def test_pauli_pair_against_explicit_kron():
    s = SpinSystem(2, has_central=True)
    np.testing.assert_allclose(
        pauli_pair(s, 0, 2, "x").matrix, np.kron(SX, np.kron(I2, SX)))
    # the yy product is real even though each factor is imaginary
    yy = pauli_pair(s, 1, 2, "y").matrix
    assert yy.dtype.kind == "f"
    np.testing.assert_allclose(yy, np.kron(I2, np.kron(SY, SY)).real)


def test_pauli_pair_is_symmetric_in_sites():
    s = SpinSystem(3, has_central=True)
    for axis in "xyz":
        np.testing.assert_allclose(pauli_pair(s, 1, 3, axis).matrix,
                                   pauli_pair(s, 3, 1, axis).matrix)


def test_xx_coupling_flips_antialigned_pair():
    # on two qubits: (sx sx + sy sy) |01> = 2 |10>, and |00> is annihilated
    s = SpinSystem(2, has_central=False)
    m = xx_coupling(s, 1, 2).matrix
    e01, e10, e00 = np.eye(4)[[1, 2, 0]]
    np.testing.assert_allclose(m @ e01, 2.0 * e10)
    np.testing.assert_allclose(m @ e00, np.zeros(4))


def test_total_sz_diagonal():
    s = SpinSystem(2, has_central=True)
    diag = np.diag(total_sz(s).matrix)
    expected = [s.n_qubits - 2 * int(b).bit_count() for b in range(8)]
    np.testing.assert_allclose(diag, expected)


def test_popcount_sectors_match_bit_count():
    for q in range(1, 14):
        pop = np.array([int(b).bit_count() for b in range(2 ** q)])
        got = operators.popcount_sectors(2 ** q)
        assert len(got) == q + 1
        for k, idx in enumerate(got):
            expected = np.flatnonzero(pop == k)
            assert (idx.dtype, idx.tobytes()) == (expected.dtype, expected.tobytes()), (q, k)


def test_sz_sectors_partition_the_basis():
    s = SpinSystem(3, has_central=True)
    dec = total_sz_sectors(s)
    mags = [m for m, _ in dec.sectors]
    assert mags == sorted(mags, reverse=True)
    all_indices = [b for _, idx in dec.sectors for b in idx]
    assert sorted(all_indices) == list(range(s.dimension))
    assert dec.indices(s.n_qubits) == (0,)
    with pytest.raises(DomainError):
        dec.indices(99)


def test_hermitian_operator_validation_and_arithmetic():
    with pytest.raises(DomainError):
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    a = HermitianOperator(np.diag([1.0, 2.0]))
    b = HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose((a + 2.0 * b).matrix,
                               np.array([[1.0, 2.0], [2.0, 2.0]]))


def test_invalid_axis_and_sites_rejected():
    s = SpinSystem(3, has_central=True)
    with pytest.raises(DomainError):
        pauli_site(s, 1, "w")
    with pytest.raises(DomainError):
        pauli_pair(s, 2, 2, "x")
    with pytest.raises(DomainError):
        pauli_pair(s, 1, 9, "z")
