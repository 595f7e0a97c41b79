"""Probabilistic teleportation through the prepared register states.

A single-rail qubit (0 or 1 photons in one mode) is teleported by mixing it
with the x register through a multimode discrete Fourier transform, counting
photons on those modes, and reading the output out of one y mode selected by
the measured total k.  Totals k = 0 and k = n+1 project the qubit onto a
basis state and are classified as failures; every other k succeeds after an
outcome-dependent phase correction.

The correction is known in closed form (the KLM feedforward).  With total k,
input 1 occupies Fourier inputs {0..k-1} and input 0 occupies {1..k}: a
cyclic shift by one mode, which multiplies each output photon in mode m by
w^m, w = exp(2 pi i/(n+1)).  So the two output amplitudes differ by the
factor w^r f(k)/f(k-1), with r = sum_m m*c_m mod (n+1).  The correction is
the phase 2 pi r/(n+1) on y mode k-1, and a sign where f(k) and f(k-1)
differ in sign (read off the ancilla's own amplitudes); for the constant
profile the weight ratio is 1, so the correction restores the qubit
exactly.  It is conditioned only on the measured counts, so it commutes
with their measurement: ``_feedforward`` applies it to each success term of
the mixed state, one unit factor per Fourier residue with the sign as an
exact negation, and the measurement then yields corrected residuals.

The controlled sign teleports two qubits at once through the entangled pair
ancilla, whose terms sit at the register patterns (j, j') with weights
w(j, j').  The two Fourier transforms never see the pair: each side mixes
its qubit with a unit-weight single register on its own 2n+1 modes and is
corrected by the same ``_feedforward``.  Only success terms are joined,
each product weighted by w(j, j') at the register weights its y modes show
and negated exactly for the cross corrections, so measuring the joint state
yields exactly the kept branches.  The success and failure totals come from
each side's mass per register weight, not from the branches.

Both routes enumerate every measurement outcome, so they refuse sizes whose
outcome bound exceeds :data:`OUTCOMES_GUARD` before doing any work.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
import operator
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InfeasibleParameters, InvalidState, OutOfRange, ShapeMismatch
from .fock import (
    PRUNE_TOLERANCE,
    Occupation,
    SparseState,
    _cis,
    _negated,
    _state,
    _sum_in_order,
    fidelity,
)
from .pipeline import pair_pattern, single_register_pattern

# Measurement outcomes one call may enumerate.  It admits the CZ up to n=5
# (about 1.7 s and 0.4 GB per call on |+> inputs) and teleport up to n=10;
# the CZ at n=6 and teleport from n=11 would run for minutes to hours.
OUTCOMES_GUARD = 1e6


@dataclass(frozen=True)
class InputQubit:
    """Single-rail qubit amplitudes: alpha |0 photons> + beta |1 photon>."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(norm - 1.0) <= 1e-12:  # NaN fails the comparison
            raise OutOfRange(f"|alpha|^2 + |beta|^2 = {norm}, expected 1")

    @classmethod
    def of(cls, alpha: complex, beta: complex) -> "InputQubit":
        try:
            norm2 = abs(alpha) ** 2 + abs(beta) ** 2
        except OverflowError:
            norm2 = math.inf
        if not sys.float_info.min <= norm2 < math.inf:  # NaN fails too
            # Squares that overflow or sink into subnormals: divide by the
            # largest component first.  Only such inputs take the detour, so
            # ordinary ones normalize bit for bit as before.
            peak = max(abs(alpha.real), abs(alpha.imag), abs(beta.real), abs(beta.imag))
            if 0.0 < peak < math.inf:
                alpha, beta = alpha / peak, beta / peak
                norm2 = abs(alpha) ** 2 + abs(beta) ** 2
        norm = math.sqrt(norm2)
        if not 0.0 < norm < math.inf:  # NaN fails both comparisons
            raise OutOfRange(
                f"qubit amplitudes must be finite and not both zero, got {alpha}, {beta}"
            )
        return cls(alpha / norm, beta / norm)

    @classmethod
    def zero(cls) -> "InputQubit":
        return cls(1.0 + 0j, 0j)

    @classmethod
    def one(cls) -> "InputQubit":
        return cls(0j, 1.0 + 0j)

    @classmethod
    def plus(cls) -> "InputQubit":
        s = 1.0 / math.sqrt(2.0)
        return cls(complex(s), complex(s))

    def state(self) -> SparseState:
        return SparseState(1, {(0,): self.alpha, (1,): self.beta})


class Classification(enum.Enum):
    SUCCESS = "success"
    FAILURE = "failure"


class TeleportOutcome(NamedTuple):
    """One enumerated measurement branch of a teleport run."""

    counts: Occupation
    k: int
    probability: float
    classification: Classification
    output_state: SparseState | None  # corrected residual over the y modes
    fidelity: float | None  # vs the ideal teleported residual


def qft_matrix(size: int) -> list[list[complex]]:
    """size x size discrete Fourier transform, unitary normalization."""
    if size < 1:
        raise OutOfRange("transform needs at least one mode")
    scale = 1.0 / math.sqrt(size)
    return [
        [cmath.exp(2j * math.pi * l * m / size) * scale for m in range(size)]
        for l in range(size)
    ]


def apply_qft(state: SparseState, modes: list[int]) -> SparseState:
    """Exact multimode Fourier mixing of the listed modes."""
    return state.apply_linear_transform(modes, qft_matrix(len(modes)))


def outcome_estimate(n: int) -> int:
    """Bound on the outcomes of one teleport's measurement: k photons over
    the n+1 Fourier modes fall into C(n+k, k) patterns, for k = 0..n+1."""
    return sum(math.comb(n + k, k) for k in range(n + 2))


def _check_cost(n: int, sides: int) -> None:
    """Refuse a run of ``sides`` simultaneous teleports whose outcome bound
    exceeds the guard."""
    estimate = outcome_estimate(n) ** sides
    if estimate > OUTCOMES_GUARD:
        raise InfeasibleParameters(
            f"n={n} gives up to {estimate} measurement outcomes, past the "
            f"{OUTCOMES_GUARD:.0e} guard",
            estimate=estimate,
        )


def _ideal_residual(qubit: InputQubit, n: int, k: int) -> SparseState:
    """The qubit teleported to slot k (1-based) of the y register: its 0 and 1
    ride on the y halves of the register patterns of weights k and k-1, which
    differ only at y mode k-1."""
    zero = single_register_pattern(n, k)[n:]
    one = single_register_pattern(n, k - 1)[n:]
    return SparseState(n, {zero: qubit.alpha, one: qubit.beta})


@functools.lru_cache(maxsize=None)
def feedforward_table(n: int) -> tuple[float, ...]:
    """Phase correction 2 pi r/(n+1) for each Fourier residue r in 0..n.

    A success outcome with counts c on the n+1 Fourier modes is corrected
    by the entry at ``_fourier_residue(c)``.  The table does not depend on
    the input qubit or the profile; the sign of f(k)/f(k-1) is added per
    call from the ancilla's amplitudes (see ``_sign_flips``).
    """
    return tuple(2 * math.pi * r / (n + 1) for r in range(n + 1))


def _fourier_residue(counts: Occupation) -> int:
    """sum_m m * c_m modulo the number of Fourier modes."""
    return sum(map(operator.mul, range(len(counts)), counts)) % len(counts)


def _sign_flips(weights: list[complex]) -> list[int]:
    """1 at each total k in 1..n where weights k and k-1 have opposite signs,
    else 0 (also at k = 0); a negation per flip completes the correction."""
    return [0] + [int((w * v.conjugate()).real < 0) for v, w in zip(weights, weights[1:])]


def _pattern_weights(
    ancilla: SparseState, patterns: list[Occupation], name: str, n: int
) -> list[complex]:
    """Amplitudes of ``ancilla`` at ``patterns``; a term elsewhere raises
    ``ShapeMismatch``.  A stored amplitude is never 0, so the terms not read
    here are the ones off the patterns."""
    weights = [ancilla.amplitude(p) for p in patterns]
    stray = len(ancilla) - sum(1 for w in weights if w)
    if stray:
        raise ShapeMismatch(f"{name} has {stray} terms off the register patterns for n={n}")
    return weights


def _feedforward(qubit: InputQubit, register: SparseState, n: int, flips: list[int]) -> SparseState:
    """Mix ``qubit`` with ``register`` and apply the KLM feedforward before
    the measurement.

    The state is modes [q, x, y]; the Fourier transform on q and x leaves
    keys c + y.  A success term (total k in 1..n) whose y mode k-1 holds the
    qubit's photon gains the unit factor of its counts' Fourier residue,
    negated where ``flips[k]``: the n+1 factors are formed once per call.
    Negating the factor negates each product exactly, where a float phase
    of pi would leave 1e-16 junk.  Terms a factor rounds below the prune
    tolerance are dropped.
    """
    units = [_cis(phi) for phi in feedforward_table(n)]
    state = apply_qft(qubit.state().tensor(register), list(range(n + 1)))
    terms = state.terms  # fresh from the transform, so corrected in place
    faint: list[Occupation] = []
    for key, a in terms.items():
        counts = key[: n + 1]
        k = sum(counts)
        if 1 <= k <= n and key[n + k]:
            factor = units[_fourier_residue(counts)]
            a *= -factor if flips[k] else factor
            if abs(a) >= PRUNE_TOLERANCE:
                terms[key] = a + 0j
            else:
                faint.append(key)
    for key in faint:
        del terms[key]
    return state


def teleport(qubit: InputQubit, ancilla: SparseState, n: int) -> list[TeleportOutcome]:
    """Enumerate every measurement branch of one teleport exactly.

    An ancilla with a term off the register patterns raises
    ``ShapeMismatch``: its sign flips are read off those patterns.
    """
    if ancilla.modes != 2 * n:
        raise ShapeMismatch(
            f"ancilla has {ancilla.modes} modes, expected {2 * n} for n={n}"
        )
    _check_cost(n, 1)
    patterns = [single_register_pattern(n, j) for j in range(n + 1)]
    weights = _pattern_weights(ancilla, patterns, "ancilla", n)
    state = _feedforward(qubit, ancilla, n, _sign_flips(weights))
    ideal = {k: _ideal_residual(qubit, n, k) for k in range(1, n + 1)}

    outcomes: list[TeleportOutcome] = []
    for counts, prob, residual in state.measure(range(n + 1)):
        k = sum(counts)
        if 1 <= k <= n:
            fid = fidelity(residual, ideal[k])
            outcomes.append(
                TeleportOutcome(counts, k, prob, Classification.SUCCESS, residual, fid)
            )
        else:
            outcomes.append(TeleportOutcome(counts, k, prob, Classification.FAILURE, None, None))
    return outcomes


def failure_probability(outcomes: list[TeleportOutcome]) -> float:
    failed = (o.probability for o in outcomes if o.classification is Classification.FAILURE)
    return _sum_in_order(failed)


def success_probability(outcomes: list[TeleportOutcome]) -> float:
    succeeded = (o.probability for o in outcomes if o.classification is Classification.SUCCESS)
    return _sum_in_order(succeeded)


# ----------------------------------------------------------------------
# controlled sign gate through two simultaneous teleports
# ----------------------------------------------------------------------


class CzBranch(NamedTuple):
    counts: Occupation  # side-1 then side-2 measured counts
    k: int
    kp: int
    probability: float
    fidelity: float


@dataclass(frozen=True)
class CzGateResult:
    """Post-selected controlled-sign gate statistics and output."""

    success_probability: float
    failure_probability: float
    min_fidelity: float | None
    output_qubits: SparseState | None  # reduced 2-mode post-selected output
    branches: tuple[CzBranch, ...]


def _ideal_cz_residual(
    q: InputQubit, qp: InputQubit, n: int, k: int, kp: int
) -> SparseState:
    # The controlled sign negates the term holding both photons.
    joint = _ideal_residual(q, n, k).tensor(_ideal_residual(qp, n, kp))
    return _negated(joint, [occ for occ in joint.terms if occ[k - 1] and occ[n + kp - 1]])


# One side's success terms by register weight j, then by (k, b): its photon
# total and whether y mode k-1 holds the qubit's photon.
_SideGroups = list[dict[tuple[int, int], list[tuple[Occupation, complex]]]]


def _corrected_side(
    qubit: InputQubit, register: SparseState, n: int, flips: list[int]
) -> tuple[_SideGroups, tuple[list[float], list[float]]]:
    """Mix and correct one CZ side (``_feedforward``) and group its terms.

    Returns the success terms grouped as ``_SideGroups`` and, per weight j,
    the masses sum |s|^2 of all its terms and of its failing ones.
    """
    groups: _SideGroups = [{} for _ in range(n + 1)]
    every: list[list[float]] = [[] for _ in range(n + 1)]
    failed: list[list[float]] = [[] for _ in range(n + 1)]
    for key, s in _feedforward(qubit, register, n, flips).terms.items():
        k = sum(key[: n + 1])
        j = n - sum(key[n + 1 :])
        mass = abs(s) ** 2
        every[j].append(mass)
        if not 1 <= k <= n:
            failed[j].append(mass)
            continue
        occupied = key[n + k]  # y mode k-1
        part = groups[j].get((k, occupied))
        if part is None:
            part = groups[j][k, occupied] = []
        part.append((key, s))
    return groups, ([_sum_in_order(m) for m in every], [_sum_in_order(m) for m in failed])


def _cz_totals(
    weights: list[list[complex]],
    masses1: tuple[list[float], list[float]],
    masses2: tuple[list[float], list[float]],
) -> tuple[float, float]:
    """Success and failure of the CZ from the two sides' masses per weight.

    Different register weights are orthogonal y patterns, so the joint
    terms at (j, j') carry |w(j, j')|^2 times the sides' masses at j and j'.
    With T the mass of all terms, F of the failing ones and S = T - F,
    success sums |w|^2 S1(j) S2(j') and failure |w|^2 (F1(j) T2(j') +
    S1(j) F2(j')).  A total past the float range raises ``InvalidState``.
    """
    (every1, failed1), (every2, failed2) = masses1, masses2
    kept1 = [t - f for t, f in zip(every1, failed1)]
    kept2 = [t - f for t, f in zip(every2, failed2)]
    try:
        pair_mass = [[abs(w) ** 2 for w in row] for row in weights]
    except OverflowError:  # a modulus squared past the float range
        pair_mass = [[math.inf] * len(row) for row in weights]
    success = _sum_in_order(
        m * kept1[j] * kept2[jp]
        for j, row in enumerate(pair_mass)
        for jp, m in enumerate(row)
    )
    failure = _sum_in_order(
        m * (failed1[j] * every2[jp] + kept1[j] * failed2[jp])
        for j, row in enumerate(pair_mass)
        for jp, m in enumerate(row)
    )
    # Each side has mass T(j) > 0 at every weight, so an infinite |w|^2
    # leaves an inf or NaN term in a total.
    if not math.isfinite(success + failure):
        raise InvalidState("pair ancilla weights give a norm^2 past the float range")
    return success, failure


def cz_via_double_teleportation(
    q: InputQubit, qp: InputQubit, ancilla_pair: SparseState, n: int
) -> CzGateResult:
    """Teleport both qubits through the entangled pair ancilla.

    Each side's Fourier transform acts on its own (2n+1)-mode state, the
    qubit tensored with the unit-weight single register sum_j |x_j y_j>,
    and each success term takes its feedforward there (``_corrected_side``),
    with the profile's sign flips read off the pair.  The joint state is the
    product of the two sides' success terms (both photon totals in 1..n)
    with each term reweighted by the pair's amplitude w(j, j') at the
    registers' weights, read off the y halves (j = n - |y|).  No sum is
    lost: a side's output key fixes its register weight, and its photon
    total then fixes the qubit count, so each joint key has one product
    s1 s2 w(j, j').  The join also applies the cross corrections, pi*k' on
    the unprimed output and pi*k on the primed one, as exact negations.
    Measuring the joint state then yields exactly the kept branches, already
    corrected; each is the controlled-sign image of the input product state.

    Failing terms never enter the joint state: the success and failure
    totals come from the sides' masses per weight (``_cz_totals``).  An
    ancilla with a term off the register patterns (j, j') raises
    ``ShapeMismatch``, and one with weights large enough to overflow the
    join or its totals ``InvalidState``.
    """
    if ancilla_pair.modes != 4 * n:
        raise ShapeMismatch(
            f"pair ancilla has {ancilla_pair.modes} modes, expected {4 * n} for n={n}"
        )
    _check_cost(n, 2)
    patterns = [pair_pattern(n, j, jp) for j in range(n + 1) for jp in range(n + 1)]
    flat = _pattern_weights(ancilla_pair, patterns, "pair ancilla", n)
    weights = [flat[j * (n + 1) : (j + 1) * (n + 1)] for j in range(n + 1)]
    # Each side has norm^2 n+1, so |s1 s2| <= n+1, and each part of s1 s2 w
    # adds two products of at most (n+1) times w's largest part.  Under the
    # bound below (2 for the sum, 2 for rounding and the modulus) no part
    # overflows to inf, or to NaN as inf - inf, which the join's prune would
    # drop silently.
    peak = max(max(abs(w.real), abs(w.imag)) for row in weights for w in row)
    if not math.isfinite(4 * (n + 1) * peak):
        raise InvalidState(f"pair ancilla amplitude parts up to {peak} overflow the join")
    # Both sides share the profile; read its signs off the row j' whose
    # diagonal amplitude f(j')^2 is largest, undoing the (-1)^(j j') factor.
    row = max(range(n + 1), key=lambda j: abs(weights[j][j]))
    flips = _sign_flips([weights[j][row] * (-1) ** (j * row) for j in range(n + 1)])

    register = SparseState(2 * n, {single_register_pattern(n, j): 1.0 for j in range(n + 1)})
    groups1, masses1 = _corrected_side(q, register, n, flips)
    groups2, masses2 = _corrected_side(qp, register, n, flips)
    total_success, total_failure = _cz_totals(weights, masses1, masses2)

    # The cross corrections, pi*k' on y mode k-1 when b1 and pi*k on y' mode
    # k'-1 when b2, give each pair of groups one sign.  Negating w negates
    # each product exactly, as -a would.
    terms: dict[Occupation, complex] = {}
    for j, parts1 in enumerate(groups1):
        for jp, parts2 in enumerate(groups2):
            w = weights[j][jp]
            if not w:
                continue
            for (k, b1), part1 in parts1.items():
                for (kp, b2), part2 in parts2.items():
                    v = -w if (b1 * kp + b2 * k) % 2 else w
                    for key1, s1 in part1:
                        for key2, s2 in part2:
                            a = s1 * s2 * v
                            if abs(a) >= PRUNE_TOLERANCE:
                                terms[key1 + key2] = a + 0j
    # Modes [q, x, y, q', x', y']: measuring both Fourier blocks leaves the
    # corrected residual on [y, y'] and the counts as side 1 then side 2.
    joint = _state(4 * n + 2, terms)
    measured = list(range(n + 1)) + list(range(2 * n + 1, 3 * n + 2))
    ideal = {
        (k, kp): _ideal_cz_residual(q, qp, n, k, kp)
        for k in range(1, n + 1)
        for kp in range(1, n + 1)
    }

    branches: list[CzBranch] = []
    best: tuple[float, SparseState, int, int] | None = None
    for mo in joint.measure(measured):
        k, kp = sum(mo.counts[: n + 1]), sum(mo.counts[n + 1 :])
        fid = fidelity(mo.residual, ideal[k, kp])
        branches.append(CzBranch(mo.counts, k, kp, mo.probability, fid))
        if best is None or mo.probability > best[0]:
            best = (mo.probability, mo.residual, k, kp)

    output = None
    if best is not None:
        # Each side's 0 and 1 differ only at its output mode, so the other
        # y modes carry no information and can be dropped.
        _, corrected, k, kp = best
        output = corrected.drop_modes(
            m for m in range(2 * n) if m not in (k - 1, n + kp - 1)
        ).normalized()

    return CzGateResult(
        success_probability=total_success,
        failure_probability=total_failure,
        min_fidelity=min((b.fidelity for b in branches), default=None),
        output_qubits=output,
        branches=tuple(branches),
    )
