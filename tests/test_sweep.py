"""c-sweeps, singlet coverings and reference overlaps."""

import numpy as np
import pytest

from spinweb import (
    DomainError,
    QuantumState,
    SpinSystem,
    SweepConfig,
    build_singlet_ansatz,
    optimize_ansatz_phases,
    run_sweep,
    singlet_coverings,
)
from spinweb.sweep import ansatz_terms, default_c_grid


def test_default_grid():
    grid = default_c_grid()
    assert grid.shape == (401,)
    assert grid[0] == 0.0 and grid[-1] == 1.0


def test_config_validation():
    with pytest.raises(DomainError):
        SweepConfig(n_outer=4, c_grid=np.array([0.5, 0.2]))
    with pytest.raises(DomainError):
        SweepConfig(n_outer=4, c_grid=np.array([0.0, 1.2]))
    with pytest.raises(DomainError):
        SweepConfig(n_outer=4, references=("bogus",))
    cfg = SweepConfig(n_outer=4)
    assert cfg.resolved_nnn_pair == (1, 3)
    assert SweepConfig(n_outer=2, allow_double_bond=True).resolved_nnn_pair == (1, 2)


def test_singlet_coverings_structure():
    even = singlet_coverings(6)
    assert len(even) == 2
    for cov in even:
        sites = sorted(s for pair in cov for s in pair)
        assert sites == [1, 2, 3, 4, 5, 6]  # central stays unpaired

    odd = singlet_coverings(5)
    assert len(odd) == 5
    for cov in odd:
        sites = sorted(s for pair in cov for s in pair)
        assert sites == [0, 1, 2, 3, 4, 5]  # central paired with one outer
        assert any(0 in pair for pair in cov)


def test_covering_terms_are_singlet_products():
    # each term must be annihilated by the total spin lowering on its pairs:
    # check instead the simpler invariant <sz_a sz_b> = -1 contributions via
    # direct expansion: a two-site singlet has amplitude structure (|01>-|10>)/sqrt(2)
    terms = ansatz_terms(4, include_central=False)
    assert len(terms) == 2
    for t in terms:
        assert abs(np.linalg.norm(t) - 1.0) < 1e-12
    # first covering pairs (1,2),(3,4): the |0101> component carries +1/2
    t = terms[0]
    assert t[int("0101", 2)] == pytest.approx(0.5)
    assert t[int("1010", 2)] == pytest.approx(0.5)
    assert t[int("0110", 2)] == pytest.approx(-0.5)
    assert t[int("1001", 2)] == pytest.approx(-0.5)


def test_build_singlet_ansatz_validates_phases():
    with pytest.raises(DomainError):
        build_singlet_ansatz(4, [1.0])  # wrong count
    with pytest.raises(DomainError):
        build_singlet_ansatz(4, [1.0, 2.0])  # not unit modulus
    state = build_singlet_ansatz(4, [1.0, -1.0])
    assert abs(np.linalg.norm(state.vector) - 1.0) < 1e-12


def test_phase_optimization_recovers_member_of_family():
    # a state built from the ansatz family must be recovered with fidelity 1
    target = build_singlet_ansatz(5, np.exp(1j * np.array([0.0, 0.4, 1.1, 2.0, 3.0])))
    phases, fid = optimize_ansatz_phases(5, target, phase_steps=12)
    assert fid == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.abs(np.abs(phases) - 1.0) < 1e-9)


def test_run_sweep_records_and_overlaps():
    cfg = SweepConfig(n_outer=4, c_grid=np.linspace(0.0, 1.0, 5),
                      references=("ring", "star"))
    records = run_sweep(cfg)
    assert len(records) == 5
    r0, r1 = records[0], records[-1]
    assert r0.O_r == pytest.approx(1.0, abs=1e-10)
    assert r1.O_s == pytest.approx(1.0, abs=1e-10)
    assert r0.O_s < 0.5 and r1.O_r < 0.5
    assert r0.O_p is None
    for r in records:
        assert 0.0 <= r.C_nn <= 1.0 and 0.0 <= r.C_nnn <= 1.0
        assert len(r.low_energies) == cfg.n_levels
        assert r.low_energies[0] == pytest.approx(r.ground_energy)


def test_ring_eps_reference_replaces_plain_ring():
    # for odd N the c=0 ground level is highly degenerate, so the regularized
    # ring reference at small positive c is the useful one
    cfg = SweepConfig(n_outer=5, c_grid=np.array([0.02]),
                      references=("ring_eps",), ring_eps=0.02)
    (r,) = run_sweep(cfg)
    assert r.O_r == pytest.approx(1.0, abs=1e-10)
    assert r.O_s is None
    # both would fill the one O_r column
    with pytest.raises(DomainError):
        SweepConfig(n_outer=5, references=("ring", "ring_eps"))


def test_even_n_ansatz_overlap_high_near_ring():
    cfg = SweepConfig(n_outer=4, c_grid=np.array([0.05]),
                      references=("singlet_ansatz",))
    (r,) = run_sweep(cfg)
    assert r.O_p > 0.97


def test_odd_n_ansatz_overlap_rises_toward_level_change():
    cfg = SweepConfig(n_outer=5, c_grid=np.array([0.1, 0.65]),
                      references=("singlet_ansatz",), ansatz_phase_steps=8)
    lo, hi = run_sweep(cfg)
    assert hi.O_p > lo.O_p > 0.9
