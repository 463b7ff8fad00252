"""Analytic verification layer for four outer spins plus the central spin.

Everything here is specific to N=4: the named rotationally invariant
outer-spin states, the operator-action oracle for the star and ring
Hamiltonians, the two-coefficient / three-coefficient forms of the two
competing low energy levels, and the field-plus-measurement protocol that
extracts a GHZ state from the ground state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional

import numpy as np

from .entanglement import concurrence_wootters
from .errors import DomainError
from .spectral import GroundSubspace, ground_subspace, solve, track_levels
from .states import QuantumState, TwoQubitRDM, partial_trace
from .system import SpinSystem

N_OUTER = 4
OUTER = SpinSystem(N_OUTER, has_central=False)
FULL = SpinSystem(N_OUTER, has_central=True)
_MAGS = np.array([FULL.magnetization(b) for b in range(FULL.dimension)])

_SQ2 = np.sqrt(2.0)
_SQ6 = np.sqrt(6.0)


def _outer(*weighted_kets) -> np.ndarray:
    v = np.zeros(16)
    for w, bits in weighted_kets:
        v[int(bits, 2)] += w
    return v


_NAMED = {
    "A": _outer((1 / _SQ2, "0101"), (1 / _SQ2, "1010")),
    "B": _outer((0.5, "0011"), (0.5, "0110"), (0.5, "1100"), (0.5, "1001")),
    "C1": _outer((0.5, "0001"), (0.5, "0010"), (0.5, "0100"), (0.5, "1000")),
    "C3": _outer((0.5, "0111"), (0.5, "1011"), (0.5, "1101"), (0.5, "1110")),
    "C1p": _outer((0.5, "0001"), (-0.5, "0010"), (0.5, "0100"), (-0.5, "1000")),
    "C3p": _outer((0.5, "0111"), (-0.5, "1011"), (0.5, "1101"), (-0.5, "1110")),
    "D": _outer((1 / _SQ2, "0101"), (-1 / _SQ2, "1010")),
    "ZERO4": _outer((1.0, "0000")),
    "ONE4": _outer((1.0, "1111")),
}
_NAMED["j2m0"] = (np.sqrt(2.0) * _NAMED["A"] + 2.0 * _NAMED["B"]) / _SQ6

STATE_LABELS = tuple(_NAMED)


@dataclass(frozen=True)
class NamedState:
    label: str
    vector: np.ndarray  # 16-dimensional outer-spin state


def named_state(label: str) -> NamedState:
    """One of the rotationally invariant outer-spin states used throughout."""
    if label not in _NAMED:
        raise DomainError(f"unknown state label {label!r}; valid: {STATE_LABELS}")
    return NamedState(label, _NAMED[label].copy())


def with_central(central_bit: int, outer_vector: np.ndarray) -> np.ndarray:
    """|central_bit> tensor |outer>, central as the most significant bit."""
    if central_bit not in (0, 1):
        raise DomainError(f"central bit must be 0 or 1, got {central_bit}")
    e = np.zeros(2)
    e[central_bit] = 1.0
    return np.kron(e, outer_vector)


# (central_bit, label) -> (star action, ring action); each action is either
# None (annihilated) or (coefficient, central_bit, label).
ACTION_TABLE = {
    (0, "A"): ((2 * _SQ2, 1, "C1"), (4 * _SQ2, 0, "B")),
    (1, "A"): ((2 * _SQ2, 0, "C3"), (4 * _SQ2, 1, "B")),
    (0, "B"): ((4.0, 1, "C1"), (4 * _SQ2, 0, "A")),
    (1, "B"): ((4.0, 0, "C3"), (4 * _SQ2, 1, "A")),
    (0, "C1"): ((4.0, 1, "ZERO4"), (4.0, 0, "C1")),
    (1, "C1"): ((2 * _SQ6, 0, "j2m0"), (4.0, 1, "C1")),
    (0, "C3"): ((2 * _SQ6, 1, "j2m0"), (4.0, 0, "C3")),
    (1, "C3"): ((4.0, 0, "ONE4"), (4.0, 1, "C3")),
    (0, "C1p"): (None, (-4.0, 0, "C1p")),
    (1, "C1p"): ((2 * _SQ2, 0, "D"), (-4.0, 1, "C1p")),
    (0, "C3p"): ((2 * _SQ2, 1, "D"), (-4.0, 0, "C3p")),
    (1, "C3p"): (None, (-4.0, 1, "C3p")),
    (0, "D"): ((2 * _SQ2, 1, "C1p"), (0.0, 0, "D")),
    (1, "D"): ((2 * _SQ2, 0, "C3p"), (0.0, 1, "D")),
}


def verify_table_action(which: str, central_bit: int, label: str,
                        tol: float = 1e-12):
    """Apply H_star or H_ring (J=1) to |central>|label> and check the oracle.

    H is U diag(E) U^T from ``solve`` at c = 1 (star) or 0 (ring), as sweeps use
    it.  Returns (result_vector, match).
    """
    if which not in ("star", "ring"):
        raise DomainError(f"which must be 'star' or 'ring', got {which!r}")
    key = (central_bit, label)
    if key not in ACTION_TABLE:
        raise DomainError(f"no oracle entry for central={central_bit}, label={label!r}")
    v = with_central(central_bit, named_state(label).vector)
    spec = solve(FULL, 1.0, 1.0 if which == "star" else 0.0)
    u = spec.eigenvectors
    result = u @ (spec.eigenvalues * (u.T @ v))
    action = ACTION_TABLE[key][0 if which == "star" else 1]
    if action is None:
        expected = np.zeros(32)
    else:
        coeff, out_bit, out_label = action
        expected = coeff * with_central(out_bit, named_state(out_label).vector)
    return result, bool(np.abs(result - expected).max() <= tol)


# ---------------------------------------------------------------------------
# Level coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelCoefficients:
    """Coefficients of the postulated ground-level forms.

    Level I:  gamma |0>|C3> + |1>(alpha |A> + beta |B>)   (and its Sz mirror)
    Level II: gamma' |0>|C3'> + alpha' |1>|D>             (and its Sz mirror)
    """

    level: str  # "I" or "II"
    alpha: Optional[float] = None
    beta: Optional[float] = None
    gamma: Optional[float] = None
    alpha_p: Optional[float] = None
    gamma_p: Optional[float] = None

    def __post_init__(self):
        if self.level == "I":
            norm = self.alpha ** 2 + self.beta ** 2 + self.gamma ** 2
        elif self.level == "II":
            norm = self.alpha_p ** 2 + self.gamma_p ** 2
        else:
            raise DomainError(f"level must be 'I' or 'II', got {self.level!r}")
        if abs(norm - 1.0) > 1e-10:
            raise DomainError(f"coefficients not normalized: sum of squares {norm}")


def _sector_member(basis: np.ndarray, magnetization: int) -> np.ndarray:
    """Unit vector in span(basis) supported on one Sz sector, or raise."""
    outside = basis[_MAGS != magnetization, :]
    _, s, vh = np.linalg.svd(outside)
    smin = s[-1] if s.size >= vh.shape[0] else 0.0
    if smin > 1e-8:
        raise DomainError(
            f"ground subspace has no member confined to the m={magnetization} sector"
        )
    u = basis @ vh[-1].conj()
    u = u / np.linalg.norm(u)
    if np.abs(u.imag).max() > 1e-10:
        # eigenvectors of the real Hamiltonian carry at most a global phase
        phase = u[np.argmax(np.abs(u))]
        u = u * (phase.conj() / abs(phase))
    return u.real


# level -> (m of the fitted member, its templates (central bit, label) by
# coefficient name, the templates of the -m partner).  The first coefficient
# fixes the sign gauge and the second breaks its tie.
_FORMS = {
    # m=+1: |0>(alpha A + beta B) + gamma |1>|C1>
    "I": (+1, {"gamma": (1, "C1"), "alpha": (0, "A"), "beta": (0, "B")},
          [(0, "C3"), (1, "A"), (1, "B")]),
    # m=-1: gamma' |0>|C3'> + alpha' |1>|D>
    "II": (-1, {"gamma_p": (0, "C3p"), "alpha_p": (1, "D")},
           [(0, "D"), (1, "C1p")]),
}


def _project(u: np.ndarray, templates) -> tuple[np.ndarray, float]:
    """Coefficients of ``u`` on orthonormal templates, and the norm of its rest."""
    t = np.column_stack([with_central(bit, _NAMED[label]) for bit, label in templates])
    coeffs = t.T @ u
    return coeffs, float(np.linalg.norm(u - t @ coeffs))


def extract_coefficients(ground: GroundSubspace, c: float) -> LevelCoefficients:
    """Fit the N=4 ground subspace to the level-I or level-II form.

    The two degenerate partners live in the m=+1 and m=-1 Sz sectors; the
    sector-resolved members are projected onto the named-state templates.  A
    residual above 1e-8 outside the template span means the state is not of
    the postulated form, which is reported as an error rather than silently
    truncated.  Sign gauge: gamma >= 0 (level I) and gamma' >= 0 (level II);
    when the gamma coefficient vanishes the alpha coefficient is made >= 0.
    """
    if ground.basis.shape[0] != FULL.dimension:
        raise DomainError("extract_coefficients requires the N=4 system (dim 32)")
    if ground.degeneracy != 2:
        raise DomainError(
            f"expected a 2-fold degenerate ground subspace, got {ground.degeneracy}"
        )
    members = {m: _sector_member(ground.basis, m) for m in (+1, -1)}
    for level, (m, fields, partner) in _FORMS.items():
        coeffs, residual = _project(members[m], fields.values())
        _, partner_res = _project(members[-m], partner)
        if residual < 1e-8 and partner_res < 1e-8:
            g, a = coeffs[:2]
            sign = -1.0 if g < -1e-10 or (abs(g) <= 1e-10 and a < 0) else 1.0
            return LevelCoefficients(
                level, **{name: sign * float(x) for name, x in zip(fields, coeffs)})

    raise DomainError(
        "ground subspace is not of the postulated level-I or level-II form "
        f"(residual {residual:.2e})"
    )


def level_I_concurrences(coeffs: LevelCoefficients) -> tuple[float, float]:
    """Closed-form (C_nn, C_nnn) of the level-I equal mixture."""
    if coeffs.level != "I":
        raise DomainError(f"expected level I coefficients, got level {coeffs.level}")
    a, b, g = coeffs.alpha, coeffs.beta, coeffs.gamma
    c_nn = 2.0 * max(0.0, abs(g * g / 4.0 + a * b / _SQ2) - (g * g + b * b) / 4.0)
    c_nnn = 2.0 * max(0.0, 0.5 * (b * b - a * a))
    return c_nn, c_nnn


def level_II_concurrences(coeffs: LevelCoefficients) -> tuple[float, float]:
    """Level II carries no two-qubit entanglement: both concurrences vanish."""
    if coeffs.level != "II":
        raise DomainError(f"expected level II coefficients, got level {coeffs.level}")
    return 0.0, 0.0


# ---------------------------------------------------------------------------
# Regions and the measurement protocol
# ---------------------------------------------------------------------------

def detect_regions():
    """Ground-level crossing boundaries of the N=4 sweep.

    Returns ((c1_lo, c1_hi), (c2_lo, c2_hi)): the two refined crossing
    intervals separating ring, intermediate and star regions, tracked on a
    201-point grid.  They hold for every J > 0: the spectrum scales with J and
    the eigenvectors do not, so the bounds are found once per process, at J = 1.
    """
    return _regions()


@lru_cache(maxsize=1)
def _regions():
    track = track_levels(FULL, 1.0, np.linspace(0.0, 1.0, 201), n_levels=4)
    if len(track.crossings) != 2:
        raise DomainError(
            f"expected 2 ground-level crossings for N=4, found {len(track.crossings)}"
        )
    (x1, x2) = track.crossings
    return (x1.c_lo, x1.c_hi), (x2.c_lo, x2.c_hi)


def intermediate_region() -> tuple[float, float]:
    """The open c-interval where level II is the ground level."""
    (c1, c2) = detect_regions()
    return c1[1], c2[0]


def _star_region() -> tuple[float, float]:
    """The star region (c2_hi, 1] as (lo, hi): level I is the ground level."""
    return detect_regions()[1][1], 1.0


@dataclass(frozen=True)
class GhzOutcome:
    """One branch of the central-spin measurement."""

    outcome: str  # "D_state", "C_state" or "symmetric_state"
    central_result: int
    probability: float
    post_state: QuantumState  # state of the four outer spins
    bipartition_entropies: tuple[float, ...]  # 7 bipartitions, base-2 ebits
    pairwise_concurrences: tuple[float, ...]  # 6 outer pairs


def _entropy(rho: np.ndarray) -> float:
    evals = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    evals = evals[evals > 1e-14]
    return float(-(evals * np.log2(evals)).sum())


def bipartition_entropies(outer_state: QuantumState) -> tuple[float, ...]:
    """Entanglement entropy across all 7 bipartitions of the 4 outer spins."""
    cuts = [[1], [2], [3], [4], [1, 2], [1, 3], [1, 4]]
    out = []
    for keep in cuts:
        rho = partial_trace(outer_state, OUTER, keep).density()
        out.append(_entropy(rho))
    return tuple(out)


def pairwise_concurrences(outer_state: QuantumState) -> tuple[float, ...]:
    """Wootters concurrence of all 6 outer pairs."""
    out = []
    for a, b in combinations(range(1, 5), 2):
        rdm = TwoQubitRDM.from_state(partial_trace(outer_state, OUTER, [a, b]))
        out.append(concurrence_wootters(rdm).value)
    return tuple(out)


def _classify(outer_vec: np.ndarray) -> str:
    for label, name in (("D", "D_state"), ("C1p", "C_state"), ("C3p", "C_state"),
                        ("C1", "C_state"), ("C3", "C_state")):
        if abs(np.vdot(_NAMED[label], outer_vec)) ** 2 > 1.0 - 1e-6:
            return name
    return "symmetric_state"


def _protocol(level: str, c: float, field_h: float, J: float,
              region: Optional[tuple[float, float]]):
    """The protocol body: check the input, make one solve at (J, c), check that
    its ground is ``level``, split it with h*sum(sigma_z), measure the central spin."""
    if not J > 0:
        raise DomainError(f"N=4 region detection needs J > 0, got {J}")
    # > 0 for the degeneracy check; the cap keeps h * sum(sigma_z) clear of overflow
    if not 0 < field_h <= 1e100:
        raise DomainError(f"field_h must be > 0 and <= 1e100, got {field_h}")
    star = level == "I"
    lo, hi = region or (_star_region() if star else intermediate_region())
    if not (lo < c <= hi if star else lo < c < hi):
        name, close = ("star", "]") if star else ("intermediate", ")")
        raise DomainError(
            f"c={c} is outside the {name} region ({lo:.6f}, {hi:.6f}{close}")
    spec = solve(FULL, J, c)
    unperturbed = ground_subspace(spec)
    if extract_coefficients(unperturbed, c).level != level:
        raise DomainError(f"ground subspace at this c is not level {level}")

    # each eigenvector lies in one Sz sector: the field shifts it by h * <sum(sigma_z)>
    shifted = spec.eigenvalues + field_h * (_MAGS @ np.abs(spec.eigenvectors) ** 2)
    lowest, second = np.argsort(shifted, kind="stable")[:2]
    if shifted[second] - shifted[lowest] < 0.1 * field_h:
        raise DomainError("field did not lift the ground degeneracy")
    v = spec.eigenvectors[:, lowest]
    # the perturbed ground must still live in the unperturbed subspace
    proj = unperturbed.basis @ (unperturbed.basis.conj().T @ v)
    if np.linalg.norm(proj) ** 2 < 1.0 - 1e-6:
        raise DomainError("field strength pushed the state out of the ground subspace")

    outcomes = []
    half = FULL.dimension // 2
    for bit, block in ((0, v[:half]), (1, v[half:])):
        p = float(np.linalg.norm(block) ** 2)
        if p < 1e-12:
            continue
        post = np.asarray(block, dtype=complex) / np.sqrt(p)
        state = QuantumState.pure(post)
        outcomes.append(GhzOutcome(
            outcome=_classify(post),
            central_result=bit,
            probability=p,
            post_state=state,
            bipartition_entropies=bipartition_entropies(state),
            pairwise_concurrences=pairwise_concurrences(state),
        ))
    return outcomes


def ghz_protocol(c: float, field_h: float = 1e-3, *, J: float = 1.0,
                 region: Optional[tuple[float, float]] = None):
    """GHZ extraction in the intermediate region.

    A uniform field h * sum_i sigma_z^i splits the two degenerate level-II
    states by magnetization; measuring the central spin of the now-unique
    ground state projects the outer spins onto |D> (the GHZ state, with
    probability alpha'^2) or onto |C3'> (probability gamma'^2).  The ground
    state comes from one ``solve`` at (J, c); ``region`` defaults to
    ``intermediate_region()``.
    """
    return _protocol("II", c, field_h, J, region)


def star_region_protocol(c: float, field_h: float = 1e-3, *, J: float = 1.0,
                         region: Optional[tuple[float, float]] = None):
    """The same field-plus-measurement procedure in the star region.

    Here the ground level is level I; the central-spin measurement projects
    the outer spins onto |C3> (probability gamma^2, about 0.49 near c=1) or
    onto the symmetric combination alpha |A> + beta |B>.  ``region`` defaults
    to the star region (c2_hi, 1] of ``detect_regions``.
    """
    return _protocol("I", c, field_h, J, region)
