"""Analytic layer for four outer spins: named states, operator-action oracle,
level coefficients and the measurement protocol."""

import numpy as np
import pytest

from spinweb import DomainError, n4


# ---------------------------------------------------------------------------
# Named states
# ---------------------------------------------------------------------------

def test_named_states_are_normalized():
    for label in n4.STATE_LABELS:
        v = n4.named_state(label).vector
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_named_states_orthogonality():
    # A, B, C1, C3, C1', C3', D are mutually orthogonal
    labels = ["A", "B", "C1", "C3", "C1p", "C3p", "D"]
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            ip = n4.named_state(a).vector @ n4.named_state(b).vector
            assert abs(ip) < 1e-12


def test_j2m0_composition():
    v = n4.named_state("j2m0").vector
    expected = (np.sqrt(2) * n4.named_state("A").vector
                + 2.0 * n4.named_state("B").vector) / np.sqrt(6)
    np.testing.assert_allclose(v, expected, atol=1e-12)


def test_unknown_label_rejected():
    with pytest.raises(DomainError):
        n4.named_state("E")


def test_with_central_places_most_significant_bit():
    v = n4.with_central(1, n4.named_state("ZERO4").vector)
    assert v[16] == pytest.approx(1.0)
    assert np.abs(v[:16]).max() == 0.0


# ---------------------------------------------------------------------------
# Operator-action oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("which", ["star", "ring"])
@pytest.mark.parametrize("key", sorted(n4.ACTION_TABLE))
def test_operator_actions_match_oracle(which, key):
    bit, label = key
    _, ok = n4.verify_table_action(which, bit, label, tol=1e-12)
    assert ok, f"{which} action on |{bit}>|{label}> deviates from the oracle"


def test_oracle_rejects_unknown_entry():
    with pytest.raises(DomainError):
        n4.verify_table_action("star", 0, "ZERO4")
    with pytest.raises(DomainError):
        n4.verify_table_action("neither", 0, "A")


# ---------------------------------------------------------------------------
# Level coefficients
# ---------------------------------------------------------------------------

def test_coefficients_at_ring_point(ground):
    coeffs = n4.extract_coefficients(ground(4, 0.0), 0.0)
    assert coeffs.level == "I"
    assert coeffs.alpha == pytest.approx(1 / np.sqrt(2), abs=1e-8)
    assert coeffs.beta == pytest.approx(-1 / np.sqrt(2), abs=1e-8)
    assert coeffs.gamma == pytest.approx(0.0, abs=1e-8)


def test_coefficients_at_star_point(ground):
    coeffs = n4.extract_coefficients(ground(4, 1.0), 1.0)
    assert coeffs.level == "I"
    assert coeffs.alpha == pytest.approx(-np.sqrt(1 / 6), abs=1e-8)
    assert coeffs.beta == pytest.approx(-np.sqrt(2 / 6), abs=1e-8)
    assert coeffs.gamma == pytest.approx(1 / np.sqrt(2), abs=1e-8)


def test_intermediate_region_is_level_two(ground):
    lo, hi = n4.intermediate_region()
    assert lo < 0.7 < hi
    c = 0.5 * (lo + hi)
    coeffs = n4.extract_coefficients(ground(4, c), c)
    assert coeffs.level == "II"
    assert coeffs.alpha_p ** 2 + coeffs.gamma_p ** 2 == pytest.approx(1.0)
    assert n4.level_II_concurrences(coeffs) == (0.0, 0.0)


def test_closed_form_concurrences_match_pipeline(ground):
    from spinweb.sweep import pair_concurrence
    for c in (0.0, 0.3, 0.9, 1.0):
        gs = ground(4, c)
        coeffs = n4.extract_coefficients(gs, c)
        c_nn, c_nnn = n4.level_I_concurrences(coeffs)
        assert c_nn == pytest.approx(
            pair_concurrence(gs.density, n4.FULL, (1, 2)), abs=1e-8)
        assert c_nnn == pytest.approx(
            pair_concurrence(gs.density, n4.FULL, (1, 3)), abs=1e-8)


def test_level_mismatch_raises(ground):
    gs_ring = ground(4, 0.0)
    coeffs = n4.extract_coefficients(gs_ring, 0.0)
    with pytest.raises(DomainError):
        n4.level_II_concurrences(coeffs)


def test_extract_rejects_wrong_degeneracy(ground):
    gs = ground(5, 1.0)  # odd-N star ground is unique and 64-dimensional
    with pytest.raises(DomainError):
        n4.extract_coefficients(gs, 1.0)


# ---------------------------------------------------------------------------
# Regions and the measurement protocol
# ---------------------------------------------------------------------------

def test_detect_regions_boundaries():
    (c1, c2) = n4.detect_regions()
    assert c1[1] - c1[0] <= 1e-6
    assert c2[1] - c2[0] <= 1e-6
    assert 0.52 < c1[0] < 0.54
    assert 0.75 < c2[0] < 0.77


def test_ghz_protocol_outcomes():
    lo, hi = n4.intermediate_region()
    c = 0.5 * (lo + hi)
    outcomes = n4.ghz_protocol(c, region=(lo, hi))
    by_name = {o.outcome: o for o in outcomes}
    assert set(by_name) == {"D_state", "C_state"}

    d = by_name["D_state"]
    assert d.central_result == 1
    assert 0.25 <= d.probability <= 0.36
    # |D> carries exactly one ebit across every bipartition
    for s in d.bipartition_entropies:
        assert s == pytest.approx(1.0, abs=1e-8)

    c_out = by_name["C_state"]
    assert d.probability + c_out.probability == pytest.approx(1.0, abs=1e-10)
    for conc in c_out.pairwise_concurrences:
        assert conc == pytest.approx(0.5, abs=1e-8)


def test_ghz_protocol_rejects_out_of_region():
    with pytest.raises(DomainError):
        n4.ghz_protocol(0.1, region=(0.53, 0.76))


def test_protocol_solves_its_own_ground_and_checks_coupling():
    # c = 0.9 lies inside the given region but its ground is level I
    with pytest.raises(DomainError, match="not level II"):
        n4.ghz_protocol(0.9, region=(0.53, 0.95))
    c = sum(n4.intermediate_region()) / 2
    for protocol in (n4.ghz_protocol, n4.star_region_protocol):
        with pytest.raises(DomainError,
                           match=r"^N=4 region detection needs J > 0, got 0$"):
            protocol(c, J=0)


def test_star_region_protocol():
    outcomes = n4.star_region_protocol(0.95, region=(0.77, 1.0))
    by_name = {o.outcome: o for o in outcomes}
    assert set(by_name) == {"C_state", "symmetric_state"}
    assert by_name["C_state"].probability == pytest.approx(0.49, abs=0.03)
    total = sum(o.probability for o in outcomes)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_protocol_probability_equals_level_coefficient(ground):
    lo, hi = n4.intermediate_region()
    c = 0.5 * (lo + hi)
    gs = ground(4, c)
    coeffs = n4.extract_coefficients(gs, c)
    outcomes = n4.ghz_protocol(c, region=(lo, hi))
    by_name = {o.outcome: o for o in outcomes}
    assert by_name["D_state"].probability == pytest.approx(
        coeffs.alpha_p ** 2, abs=1e-6)
    assert by_name["C_state"].probability == pytest.approx(
        coeffs.gamma_p ** 2, abs=1e-6)
