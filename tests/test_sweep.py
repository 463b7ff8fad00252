"""c-sweeps, singlet coverings and reference overlaps."""

import csv
import io
import subprocess
import sys

import numpy as np
import pytest

from spinweb import (
    DomainError,
    QuantumState,
    SpinSystem,
    SweepConfig,
    TwoQubitRDM,
    build_singlet_ansatz,
    concurrence_symmetric,
    concurrence_wootters,
    correlation,
    ground_subspace,
    make_references,
    optimize_ansatz_phases,
    partial_trace,
    run_sweep,
    singlet_coverings,
    spectral,
    star_concurrence_closed_form,
    sweep,
)
from spinweb.spectral import solve
from spinweb.sweep import ansatz_overlap, ansatz_terms, default_c_grid

import oracle
from conftest import child_env, random_sz_block_rdm


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
    assert SweepConfig(n_outer=2).resolved_nnn_pair == (1, 2)


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


_RECORD_FIELDS = ("C_nn", "C_nnn", "XX_nn", "XX_nnn", "ZZ_nn", "ZZ_nnn", "O_r", "O_s", "O_p")


@pytest.mark.parametrize("n_outer", range(2, 9))
def test_chunk_records_equal_the_per_point_reference(n_outer):
    system = SpinSystem(n_outer, has_central=True)
    grid = np.linspace(0.0, 1.0, 401 if n_outer <= 7 else 41)
    if n_outer == 8:  # the grid spans two solve chunks
        assert len(list(spectral._grid_chunks(system, 1.0, grid))) == 2
    for J in (1.0, 0.7):
        for references in (("ring", "star"), ("ring_eps",), ("singlet_ansatz",)):
            config = SweepConfig(n_outer=n_outer, J=J, c_grid=grid, references=references)
            refs = make_references(config)
            points = (chunk.spectrum(i) for chunk in spectral._grid_chunks(system, J, grid)
                      for i in range(chunk.c.size))
            for got, c in zip(run_sweep(config), grid.tolist(), strict=True):
                want = oracle.record(config, system, refs, c, next(points))
                assert got.c == want.c
                assert got.ground_degeneracy == want.ground_degeneracy, c
                np.testing.assert_allclose([got.ground_energy, *got.low_energies],
                                           [want.ground_energy, *want.low_energies],
                                           rtol=0, atol=1e-12)
                for name in _RECORD_FIELDS:
                    a, b = getattr(got, name), getattr(want, name)
                    assert (a is None) == (b is None), (c, name)
                    assert a is None or abs(a - b) <= 1e-12, (c, name, a, b)


@pytest.mark.parametrize("n_outer, has_central, rank", [(2, True, 1), (3, True, 2),
                                                        (5, True, 3), (4, False, 2)])
def test_rdm_kernels_equal_the_public_functions(rng, n_outer, has_central, rank):
    system = SpinSystem(n_outer, has_central=has_central)
    factors = rng.normal(size=(6, system.dimension, rank)) \
        + 1j * rng.normal(size=(6, system.dimension, rank))
    factors /= np.linalg.norm(factors, axis=(1, 2), keepdims=True)
    sites = system.sites
    pairs = [(a, b) for a in sites for b in sites if a != b]  # central, adjacent, not
    for pair in pairs:
        rdms = sweep._pair_rdms(system, factors, pair)
        _, xx, zz = sweep._rdm_observables(rdms)
        for f, rho, x, z in zip(factors, rdms, xx, zz):
            state = QuantumState("mixed", f)
            np.testing.assert_allclose(rho, partial_trace(state, system, pair).density(),
                                       rtol=0, atol=1e-14)
            assert abs(x - correlation(state, system, "x", *pair)) <= 1e-14
            assert abs(z - correlation(state, system, "z", *pair)) <= 1e-14


def test_batched_concurrence_equals_both_public_forms(rng):
    blocks = np.array([random_sz_block_rdm(rng) for _ in range(20)])
    f = rng.normal(size=(20, 4, 3)) + 1j * rng.normal(size=(20, 4, 3))
    generic = f @ f.conj().swapaxes(1, 2)
    generic /= np.trace(generic, axis1=1, axis2=2).real[:, None, None]
    conc = sweep._rdm_observables(np.concatenate([blocks, generic]))[0]
    for rho, got in zip(blocks, conc[:20]):
        # numpy's complex abs may differ from Python's in the last bit
        assert abs(got - concurrence_symmetric(TwoQubitRDM(rho))) <= 1e-15
        assert abs(got - concurrence_wootters(TwoQubitRDM(rho))) <= 1e-10
    for rho, got in zip(generic, conc[20:]):
        assert TwoQubitRDM(rho).sz_blocks is None
        assert got == concurrence_wootters(TwoQubitRDM(rho))


def test_every_reader_refuses_a_nan_rdm():
    rho = np.diag(np.full(4, 0.25))
    rho[0, 3] = np.nan
    assert TwoQubitRDM(rho).sz_blocks is None
    for reader in (concurrence_symmetric, concurrence_wootters):
        with pytest.raises(DomainError):
            reader(TwoQubitRDM(rho))
    with pytest.raises(DomainError):
        sweep._rdm_observables(rho[None])


@pytest.mark.parametrize("n_outer", [2, 3, 4, 5])
@pytest.mark.parametrize("references", [("ring", "star"), ("ring_eps",), ("singlet_ansatz",)],
                         ids=",".join)
def test_overlap_kernel_equals_the_public_functions(rng, n_outer, references):
    # ranks a ground state never has, zero-padded to one width, as the records pad them
    system = SpinSystem(n_outer, has_central=True)
    refs = make_references(SweepConfig(n_outer=n_outer, c_grid=[0.5], references=references))
    ranks = np.array([1, 2, 3, 4, 2, 1])
    factors = np.zeros((ranks.size, system.dimension, ranks.max()), dtype=complex)
    for f, rank in zip(factors, ranks.tolist()):
        f[:, :rank] = rng.normal(size=(system.dimension, rank)) \
            + 1j * rng.normal(size=(system.dimension, rank))
        f /= np.linalg.norm(f)
    columns = sweep._overlaps(refs, factors, ranks)
    for i, (f, rank) in enumerate(zip(factors, ranks.tolist())):
        want = sweep.reference_overlaps(QuantumState("mixed", f[:, :rank]), refs)
        for got, value in zip(columns, want):
            assert (got is None) == (value is None)
            assert got is None or abs(got[i] - value) <= 1e-12, (i, got[i], value)


def test_references_at_one_c_are_solved_once(monkeypatch):
    # ``--refs ring-eps=1,star``: both references are the c = 1 ground
    solve_chunk, given = spectral._solve_chunk, []

    def counted(blocks, J, c):
        given.extend(c.tolist())
        return solve_chunk(blocks, J, c)

    monkeypatch.setattr(spectral, "_solve_chunk", counted)
    refs = make_references(SweepConfig(n_outer=4, c_grid=[0.5], references=("ring_eps", "star"),
                                       ring_eps=1.0))
    assert given == [1.0]
    assert refs.ring is refs.star


@pytest.mark.parametrize("n_outer", range(2, 13))
def test_star_endpoint_records_meet_the_closed_forms(n_outer):
    (r,) = run_sweep(SweepConfig(n_outer=n_outer, c_grid=[1.0], references=()))
    conc = star_concurrence_closed_form(n_outer)
    assert abs(r.C_nn - conc) <= 1e-12 and abs(r.C_nnn - conc) <= 1e-12
    assert r.ground_degeneracy == (2 if n_outer % 2 == 0 else 1)
    assert abs(r.ground_energy - oracle.star_energy(n_outer, 1.0)) <= 1e-10


@pytest.mark.parametrize("n_outer", range(3, 13))
@pytest.mark.parametrize("J", [1.0, -1.0, 0.7])
def test_ring_endpoint_records_meet_the_free_fermion_model(n_outer, J):
    (r,) = run_sweep(SweepConfig(n_outer=n_outer, J=J, c_grid=[0.0], references=()))
    energy, degeneracy, pairs = oracle.free_fermion_ring(n_outer, J)
    assert abs(r.ground_energy - energy) <= 1e-10
    assert r.ground_degeneracy == degeneracy
    for got, pair in (((r.C_nn, r.XX_nn, r.ZZ_nn), (1, 2)),
                      ((r.C_nnn, r.XX_nnn, r.ZZ_nnn), (1, 3))):
        np.testing.assert_allclose(got, pairs[pair], rtol=0, atol=1e-10, err_msg=str(pair))


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


@pytest.mark.parametrize("eps", [2.0, -0.1, float("nan")])
def test_out_of_range_ring_eps_is_refused_at_construction(eps):
    with pytest.raises(DomainError, match=r"ring_eps must lie in \[0, 1\]"):
        SweepConfig(n_outer=4, ring_eps=eps)


def test_even_n_ansatz_overlap_high_near_ring():
    cfg = SweepConfig(n_outer=4, c_grid=np.array([0.05]),
                      references=("singlet_ansatz",))
    (r,) = run_sweep(cfg)
    assert r.O_p > 0.97


def test_odd_n_ansatz_overlap_rises_toward_level_change():
    cfg = SweepConfig(n_outer=5, c_grid=np.array([0.1, 0.65]),
                      references=("singlet_ansatz",))
    lo, hi = run_sweep(cfg)
    assert hi.O_p > lo.O_p > 0.9


# ---------------------------------------------------------------------------
# Closed-form ansatz overlap against two independent oracles
# ---------------------------------------------------------------------------

def _ansatz_target(n_outer, c):
    """Ground density, and the (target, scale) the span is compared with."""
    system = SpinSystem(n_outer, has_central=True)
    rho = ground_subspace(solve(system, 1.0, float(c))).density
    if n_outer % 2 == 1:
        return rho, rho, rho.factor.shape[1]
    return rho, partial_trace(rho, system, list(range(1, n_outer + 1))), 1


@pytest.mark.parametrize("n_outer", [4, 5, 6])
def test_closed_form_equals_phase_optimum(n_outer):
    # the span maximum is reached by unit-modulus phases on these grids, so the
    # phase-constrained reading of the ansatz stays checked
    terms = ansatz_terms(n_outer, include_central=n_outer % 2 == 1)
    worst = 0.0
    for c in np.linspace(0.0, 1.0, 101):
        rho, target, scale = _ansatz_target(n_outer, c)
        _, fid = optimize_ansatz_phases(n_outer, target, phase_steps=24, terms=terms)
        worst = max(worst, abs(ansatz_overlap(n_outer, rho) - min(scale * fid, 1.0)))
    assert worst <= 1e-10


@pytest.mark.parametrize("n_outer", [3, 4, 5, 6, 7])
def test_closed_form_equals_projector_oracle(n_outer):
    # deg * lambda_max(F^dagger T T^+ F): T T^+ projects onto the covering span
    # whether or not the terms are independent (they are not at N=3)
    t = np.column_stack(ansatz_terms(n_outer, include_central=n_outer % 2 == 1))
    span = t @ np.linalg.pinv(t)
    worst = 0.0
    for c in np.linspace(0.0, 1.0, 41):
        rho, target, scale = _ansatz_target(n_outer, c)
        f = target.factor
        oracle = scale * np.linalg.eigvalsh(f.conj().T @ span @ f)[-1]
        worst = max(worst, abs(ansatz_overlap(n_outer, rho) - min(oracle, 1.0)))
    assert worst <= 1e-10


def _cli(*argv):
    return subprocess.run([sys.executable, "-m", "spinweb.cli", *argv],
                          capture_output=True, text=True, env=child_env())


def test_n3_ansatz_sweep_is_finite_and_quiet():
    # the three N=3 coverings are linearly dependent (Gram eigenvalues 0, 1.5, 1.5)
    proc = _cli("sweep", "--n", "3", "--c-steps", "40", "--refs", "ansatz")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    o_p = np.array([float(row["O_p"]) for row in csv.DictReader(io.StringIO(proc.stdout))])
    assert o_p.size == 41
    assert np.all(np.isfinite(o_p)) and np.all((o_p >= 0.0) & (o_p <= 1.0))


def test_n7_ansatz_sweep_runs():
    proc = _cli("sweep", "--n", "7", "--c-steps", "2", "--refs", "ansatz")
    assert proc.returncode == 0, proc.stderr
