"""Topology descriptor and basis-index bookkeeping."""

import pytest

from spinweb import DomainError, ResourceLimitError, SpinSystem
from spinweb.system import MAX_QUBITS


def test_sites_and_dimensions():
    s = SpinSystem(4, has_central=True)
    assert s.n_qubits == 5
    assert s.dimension == 32
    assert s.sites == (0, 1, 2, 3, 4)

    outer = SpinSystem(4, has_central=False)
    assert outer.n_qubits == 4
    assert outer.dimension == 16
    assert outer.sites == (1, 2, 3, 4)


def test_central_is_most_significant_bit():
    s = SpinSystem(3, has_central=True)
    # basis index 0b1000 = 8: central qubit set, outer qubits clear
    assert s.bit_of(8, 0) == 1
    assert [s.bit_of(8, k) for k in (1, 2, 3)] == [0, 0, 0]
    # outer qubit 1 sits just below the central bit
    assert s.bit_of(4, 1) == 1
    assert s.bit_of(1, 3) == 1


def test_tensor_positions():
    s = SpinSystem(3, has_central=True)
    assert [s.tensor_position(k) for k in s.sites] == [0, 1, 2, 3]
    outer = SpinSystem(3, has_central=False)
    assert [outer.tensor_position(k) for k in outer.sites] == [0, 1, 2]


def test_magnetization_counts_down_spins():
    s = SpinSystem(3, has_central=True)
    assert s.magnetization(0) == 4          # all spins up
    assert s.magnetization(0b1111) == -4    # all spins down
    assert s.magnetization(0b1000) == 2     # one spin down


def test_site_validation():
    s = SpinSystem(3, has_central=False)
    with pytest.raises(DomainError):
        s.validate_site(0)  # no central qubit
    with pytest.raises(DomainError):
        s.validate_site(4)


def test_invalid_sizes():
    with pytest.raises(DomainError):
        SpinSystem(0)
    # 2**20001 has too many digits for int-to-str conversion, and 2**(10**18)
    # cannot be allocated: the guard must never form the dimension
    for n in (14, 20000, 10 ** 18):
        with pytest.raises(ResourceLimitError):
            SpinSystem(n)
    assert SpinSystem(12).n_qubits == SpinSystem(13, has_central=False).n_qubits == MAX_QUBITS
