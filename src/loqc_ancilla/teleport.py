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
with their measurement, and applied before the transform it is that same
shift, undone: the qubit's 1 moves onto the pattern {1..k} of its 0.

So after the correction both qubit values of total k sit on one Fourier
pattern, {1..k} (every mode for k = n+1, which holds only the 1; k = 0
holds only the 0), and the qubit photon b takes no part in the transform.
An ancilla term sits at a register pattern of weight j (``teleport``
refuses any other), and b = k - j is the one bit its y modes carry, the
photon y mode k-1 holds.  The corrected mixed state is therefore
sum_k (T_n |{1..k}>) (x) v_k, with T_n the Fourier transform and
v_k = (alpha f(k), +-beta f(k-1)) the corrected qubit of class k, its sign
from ``_sign_flips``.  ``_fourier_table`` transforms one term per total k,
weighted by the class norm |v_k|: the profile-free table T_n scaled by the
class masses.  Every outcome of total k has the residual v_k/|v_k| on one
mode, keys (0,) and (1,), scored against the input qubit's own state.

The controlled sign teleports two qubits at once through the entangled pair
ancilla, whose terms sit at the register patterns (j, j') with weights
w(j, j').  The two Fourier transforms never see the pair: each side's table
holds its own qubit's class norms through a unit-weight register.  The two
qubit photons fix the register weights, j = k - b and j' = k' - b', so the
branch of totals (k, k') carries the qubit pair
u(b, b') = r_k(b) r'_k'(b') w(j, j') (-1)^(b k' + b' k), r the sides' class
residuals and the sign the cross corrections.  The joint state on the two
count blocks [c, c'] holds one term per kept branch, a a' |u|, a and a' the
tables' amplitudes; measuring it yields the kept branches, each scored with
the residual u/|u| against the controlled-sign image of the input product
state.  The success and failure totals come from each side's mass per
register weight, not from the branches.

Both routes enumerate every measurement outcome, so they refuse sizes whose
outcome bound exceeds :data:`OUTCOMES_GUARD` before doing any work.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
import sys
from typing import NamedTuple

from .errors import InfeasibleParameters, InvalidState, OutOfRange, ShapeMismatch
from .fock import (
    _PRUNE_PROBABILITY,
    PRUNE_TOLERANCE,
    Occupation,
    SparseState,
    _Record,
    _negated,
    _state,
    _sum_in_order,
    fidelity,
)
from .pipeline import pair_pattern, single_register_pattern

# Measurement outcomes one call may enumerate.  It admits the CZ up to n=5
# (``czgate --n 5``, its four basis inputs in one process: about 3 s and
# 0.16 GB peak RSS on a 2-vCPU Xeon VM, CPython 3.11) and teleport up to
# n=10; the CZ at n=6 and teleport from n=11 would run for minutes to hours.
OUTCOMES_GUARD = 1e6


class InputQubit(_Record):
    """Single-rail qubit amplitudes: alpha |0 photons> + beta |1 photon>."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: complex, beta: complex):
        norm = abs(alpha) ** 2 + abs(beta) ** 2
        if not abs(norm - 1.0) <= 1e-12:  # NaN fails the comparison
            raise OutOfRange(f"|alpha|^2 + |beta|^2 = {norm}, expected 1")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

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
    output_state: SparseState | None  # the corrected qubit: keys (0,) and (1,)
    fidelity: float | None  # vs the input qubit's state


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


@functools.lru_cache(maxsize=None)
def feedforward_table(n: int) -> tuple[float, ...]:
    """Phase correction 2 pi r/(n+1) for each Fourier residue r in 0..n.

    The closed form of the feedforward, read by the reference route that
    corrects a success outcome with counts c on the n+1 Fourier modes by
    the entry at residue sum_m m*c_m mod (n+1), after the transform.  The
    package corrects before the transform, by the input shift these phases
    equal, and reads no entry; the table stays because the benchmark's
    set-up warms it and reports its cache.  It does not depend on the input
    qubit or the profile; the sign of f(k)/f(k-1) is added per call from the
    ancilla's amplitudes (see ``_sign_flips``).
    """
    return tuple(2 * math.pi * r / (n + 1) for r in range(n + 1))


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


def _classes(
    qubit: InputQubit, weights: list[complex], flips: list[int], n: int
) -> tuple[list[float], list[SparseState | None]]:
    """The corrected qubit v_k of each photon total k = 0..n+1.

    Through a register of ``weights`` f, class k holds the qubit's 0 at
    register weight k and its 1 at weight k-1: v_k = (alpha f(k),
    beta f(k-1)), the 1 negated where ``flips[k]``, and a part below the
    prune tolerance dropped, as the mixed state's term would be.  Returns
    each class mass |v_k|^2 and residual v_k/|v_k|, one mode keyed (0,) and
    (1,) and pruned as a measured residual.  A class of mass at most
    PRUNE_TOLERANCE^2 has no residual (None): for k >= 1 its table terms
    |v_k| T(c) fall below the tolerance, as every |T(c)| < 1, so no success
    outcome of it is kept.  A mass past the float range raises
    ``InvalidState``.
    """
    masses: list[float] = []
    residuals: list[SparseState | None] = []
    for k in range(n + 2):
        parts = {}
        if k <= n:
            parts[(0,)] = qubit.alpha * weights[k]
        if k:
            one = qubit.beta * weights[k - 1]
            parts[(1,)] = -one if k <= n and flips[k] else one
        try:
            parts = {b: a + 0j for b, a in parts.items() if abs(a) >= PRUNE_TOLERANCE}
            mass = _sum_in_order(abs(a) ** 2 for a in parts.values())
        except OverflowError:  # a modulus or its square past the float range
            mass = math.inf
        if not mass < math.inf:  # NaN fails too
            raise InvalidState("ancilla weights give a class norm^2 past the float range")
        masses.append(mass)
        residuals.append(_state(1, parts).normalized() if mass > _PRUNE_PROBABILITY else None)
    return masses, residuals


def _fourier_table(masses: list[float], n: int) -> SparseState:
    """The Fourier mixing of one input term per photon total k, at its
    corrected pattern {1..k} (every mode for k = n+1) with amplitude
    sqrt(masses[k]): the profile-free table T_n scaled by the class norms.
    Each input term is alone in its class, so the transform writes each
    product once and prunes it as it is written."""
    terms = {
        (1,) * (n + 1) if k > n else (0,) + (1,) * k + (0,) * (n - k): complex(math.sqrt(m))
        for k, m in enumerate(masses)
        if m
    }
    return apply_qft(_state(n + 1, terms), list(range(n + 1)))


def teleport(qubit: InputQubit, ancilla: SparseState, n: int) -> list[TeleportOutcome]:
    """Enumerate every measurement branch of one teleport exactly.

    Each success outcome's ``output_state`` is the corrected qubit of its
    total k on one mode, keys (0,) and (1,), one state shared by every
    outcome of that k, and its fidelity is taken against ``qubit.state()``.

    An ancilla with a term off the register patterns raises
    ``ShapeMismatch``: its sign flips are read off those patterns.  One
    whose class mass passes the float range raises ``InvalidState``.  Both
    are refused before the transform.
    """
    if ancilla.modes != 2 * n:
        raise ShapeMismatch(
            f"ancilla has {ancilla.modes} modes, expected {2 * n} for n={n}"
        )
    _check_cost(n, 1)
    patterns = [single_register_pattern(n, j) for j in range(n + 1)]
    weights = _pattern_weights(ancilla, patterns, "ancilla", n)
    masses, residuals = _classes(qubit, weights, _sign_flips(weights), n)
    ideal = qubit.state()
    # The table is measured as it is made, so it is freed before the
    # outcome records are built.  Every count is measured, so each measured
    # residual is the 0-mode unit phase and the class residual replaces it.
    measured = _fourier_table(masses, n).measure(range(n + 1))

    # Each outcome is built by tuple.__new__, as ``_state`` builds a state by
    # object.__new__: the named tuple's own __new__ is a Python-level call.
    outcomes: list[TeleportOutcome] = []
    for counts, prob, _ in measured:
        k = sum(counts)
        if 1 <= k <= n:
            residual = residuals[k]
            fid = fidelity(residual, ideal)
            row = (counts, k, prob, Classification.SUCCESS, residual, fid)
        else:
            row = (counts, k, prob, Classification.FAILURE, None, None)
        outcomes.append(tuple.__new__(TeleportOutcome, row))
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


class CzGateResult(_Record):
    """Post-selected controlled-sign gate statistics and output: the reduced
    2-mode post-selected ``output_qubits`` and every kept branch."""

    __slots__ = (
        "success_probability",
        "failure_probability",
        "min_fidelity",
        "output_qubits",
        "branches",
    )

    def __init__(
        self,
        success_probability: float,
        failure_probability: float,
        min_fidelity: float | None,
        output_qubits: SparseState | None,
        branches: tuple[CzBranch, ...],
    ):
        object.__setattr__(self, "success_probability", success_probability)
        object.__setattr__(self, "failure_probability", failure_probability)
        object.__setattr__(self, "min_fidelity", min_fidelity)
        object.__setattr__(self, "output_qubits", output_qubits)
        object.__setattr__(self, "branches", tuple(branches))


def _weight_masses(
    residuals: list[SparseState | None], masses: list[float], n: int
) -> tuple[list[float], list[float]]:
    """Per register weight j, the mass of a CZ side's terms and of its
    failing ones: the class mass of each total k shared out by its
    residual, |r_k(b)|^2 to the qubit photon b at weight j = k - b.  Each
    weight adds its 0 of total j, then its 1 of total j+1."""
    every, failed = [0.0] * (n + 1), [0.0] * (n + 1)
    for k, (residual, mass) in enumerate(zip(residuals, masses)):
        if residual is None:
            continue
        for (b,), r in residual.terms.items():
            part = abs(r) ** 2 * mass
            every[k - b] += part
            if not 1 <= k <= n:
                failed[k - b] += part
    return every, failed


def _cz_totals(
    pair_mass: list[list[float]],
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
    if not math.isfinite(success + failure):
        raise InvalidState("pair ancilla weights give a norm^2 past the float range")
    return success, failure


def cz_via_double_teleportation(
    q: InputQubit, qp: InputQubit, ancilla_pair: SparseState, n: int
) -> CzGateResult:
    """Teleport both qubits through the entangled pair ancilla.

    Each side's Fourier table (``_fourier_table``) holds its own qubit's
    class norms through a unit-weight register, with the profile's sign
    flips read off the pair.  A branch of side totals (k, k') in 1..n
    carries the corrected qubit pair u(b, b') = r_k(b) r'_k'(b') w(j, j'),
    r the sides' class residuals, at the register weights j = k - b and
    j' = k' - b', negated exactly for the cross corrections, pi*k' on the
    unprimed qubit photon and pi*k on the primed one.  The joint state,
    keyed by both sides' Fourier counts [c, c'], holds each pair of success
    terms once, as a a' |u|; measuring it yields exactly the kept branches,
    each scored with the residual u/|u|, one state per (k, k'), against the
    controlled-sign image of the input product state.  The likeliest one's
    residual is the output.

    Failing terms never enter the joint state: the success and failure
    totals come from the sides' masses per weight (``_cz_totals``), the
    class masses shared out by the residuals.  An ancilla with a term off
    the register patterns (j, j') raises ``ShapeMismatch``, and one with a
    weight whose |w|^2 overflows, or whose totals pass the float range,
    ``InvalidState``, all before either transform.
    """
    if ancilla_pair.modes != 4 * n:
        raise ShapeMismatch(
            f"pair ancilla has {ancilla_pair.modes} modes, expected {4 * n} for n={n}"
        )
    _check_cost(n, 2)
    patterns = [pair_pattern(n, j, jp) for j in range(n + 1) for jp in range(n + 1)]
    flat = _pattern_weights(ancilla_pair, patterns, "pair ancilla", n)
    weights = [flat[j * (n + 1) : (j + 1) * (n + 1)] for j in range(n + 1)]
    # Class residuals have unit norm, so a branch's |u|^2 is at most the
    # largest |w|^2: a finite |w|^2 keeps every joined term finite.
    try:
        pair_mass = [[abs(w) ** 2 for w in row] for row in weights]
    except OverflowError:  # a modulus or its square past the float range
        raise InvalidState("pair ancilla weights have a |w|^2 past the float range") from None
    # Both sides share the profile; read its signs off the row j' whose
    # diagonal amplitude f(j')^2 is largest, undoing the (-1)^(j j') factor.
    row = max(range(n + 1), key=lambda j: abs(weights[j][j]))
    flips = _sign_flips([weights[j][row] * (-1) ** (j * row) for j in range(n + 1)])

    unit = [1.0] * (n + 1)
    sides = [_classes(q, unit, flips, n), _classes(qp, unit, flips, n)]
    # The transforms keep each class's mass, so the totals come from the
    # class masses, and one past the float range is refused before either
    # transform.
    total_success, total_failure = _cz_totals(
        pair_mass, *(_weight_masses(r, m, n) for m, r in sides)
    )
    groups: list[list[list[tuple[Occupation, complex]]]] = []
    for masses, _ in sides:
        by_k: list[list[tuple[Occupation, complex]]] = [[] for _ in range(n + 2)]
        for c, a in _fourier_table(masses, n).terms.items():
            by_k[sum(c)].append((c, a))
        groups.append(by_k)

    (_, residuals1), (_, residuals2) = sides
    terms: dict[Occupation, complex] = {}
    pair_residuals: dict[tuple[int, int], SparseState] = {}
    for k in range(1, n + 1):
        for kp in range(1, n + 1):
            # Negating w negates the product exactly, as -a would.
            u = {}
            for (b1,), r1 in residuals1[k].terms.items():
                for (b2,), r2 in residuals2[kp].terms.items():
                    w = weights[k - b1][kp - b2]
                    if w:
                        u[b1, b2] = r1 * r2 * (-w if (b1 * kp + b2 * k) % 2 else w)
            # Table amplitudes are below 1, so a branch whose |u| is at most
            # PRUNE_TOLERANCE keeps no term.
            mass = _sum_in_order(abs(x) ** 2 for x in u.values())
            if mass <= _PRUNE_PROBABILITY:
                continue
            pair_residuals[k, kp] = _state(2, u).normalized()
            norm = math.sqrt(mass)
            for c1, a1 in groups[0][k]:
                for c2, a2 in groups[1][kp]:
                    a = a1 * a2 * norm
                    if abs(a) >= PRUNE_TOLERANCE:
                        terms[c1 + c2] = a + 0j
    # Every count is measured: each measured residual is the 0-mode unit
    # phase, and the branch's qubit pair is its class residual.  The joint
    # state and the tables are freed before the records.
    measured = _state(2 * n + 2, terms).measure(range(2 * n + 2))
    del terms, groups
    # The controlled sign negates the term holding both photons.
    ideal = q.state().tensor(qp.state())
    ideal = _negated(ideal, [occ for occ in ideal.terms if occ == (1, 1)])

    branches: list[CzBranch] = []
    best: tuple[float, SparseState] | None = None
    for counts, prob, _ in measured:
        k, kp = sum(counts[: n + 1]), sum(counts[n + 1 :])
        residual = pair_residuals[k, kp]
        fid = fidelity(residual, ideal)
        branches.append(tuple.__new__(CzBranch, (counts, k, kp, prob, fid)))
        if best is None or prob > best[0]:
            best = (prob, residual)

    return CzGateResult(
        success_probability=total_success,
        failure_probability=total_failure,
        min_fidelity=min((b.fidelity for b in branches), default=None),
        output_qubits=None if best is None else best[1],
        branches=tuple(branches),
    )
