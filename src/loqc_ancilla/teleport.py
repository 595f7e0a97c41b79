"""Probabilistic teleportation through the prepared register states.

A single-rail qubit (0 or 1 photons in one mode) is teleported by mixing it
with the x register through a multimode discrete Fourier transform, counting
photons on those modes, and reading the output out of one y mode selected by
the measured total k.  Totals k = 0 and k = n+1 project the qubit onto a
basis state and are classified as failures; every other k succeeds after an
outcome-dependent phase correction.

An ancilla term sits at a register pattern of weight j (``teleport``
refuses any other), so beside the Fourier counts c its y modes carry one
bit: the qubit photon b = k - j, which is 1 exactly when y mode k-1 is
occupied.  The Fourier state is therefore keyed c + (b,) on n+2 modes, and
each residual of the measurement is the corrected qubit itself, on one
mode, scored against the input qubit's own state.

The correction is known in closed form (the KLM feedforward).  With total k,
input 1 occupies Fourier inputs {0..k-1} and input 0 occupies {1..k}: a
cyclic shift by one mode, which multiplies each output photon in mode m by
w^m, w = exp(2 pi i/(n+1)).  So the two output amplitudes differ by the
factor w^r f(k)/f(k-1), with r = sum_m m*c_m mod (n+1).  The correction is
the phase 2 pi r/(n+1) on y mode k-1, and a sign where f(k) and f(k-1)
differ in sign (read off the ancilla's own amplitudes); for the constant
profile the weight ratio is 1, so the correction restores the qubit
exactly.  It is conditioned only on the measured counts, so it commutes
with their measurement, and the photon total and the qubit photon it reads
pass through the transform unchanged.  So ``_feedforward`` applies it
before the transform, as that same shift: each input term holding the
qubit's photon has its Fourier counts moved one mode up, cyclically, and
is negated where the sign flips.  The transform then yields each corrected
amplitude directly, with no phase factor rounded into it, and the
measurement yields corrected residuals.

The controlled sign teleports two qubits at once through the entangled pair
ancilla, whose terms sit at the register patterns (j, j') with weights
w(j, j').  The two Fourier transforms never see the pair: each side mixes
its qubit with a unit-weight single register, keyed c + (b,) on its own
n+2 modes, and is corrected by the same ``_feedforward``.  Only success
terms are joined, each product weighted by w(j, j') at the register
weights j = k - b and negated exactly for the cross corrections.  The
joint state is keyed on modes [c, c', b, b'], so measuring both count
blocks yields exactly the kept branches with the corrected qubit pair as
each residual.  The success and failure totals come from each side's mass
per register weight, not from the branches.

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
# (``czgate --n 5``, its four basis inputs in one process: about 5 s and
# 0.17 GB peak RSS on a 2-vCPU Xeon VM, CPython 3.11) and teleport up to
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
    equal (see ``_feedforward``), and reads no entry.  The table does not
    depend on the input qubit or the profile; the sign of f(k)/f(k-1) is
    added per call from the ancilla's amplitudes (see ``_sign_flips``).
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


def _feedforward(qubit: InputQubit, register: SparseState, n: int, flips: list[int]) -> SparseState:
    """Mix ``qubit`` with ``register``, the KLM feedforward applied to the
    mixing's input, so that measuring the result yields corrected residuals.

    The input is modes [q, x, y]; a term keeps its Fourier counts c (q and
    x) and its qubit photon b, the one bit its y modes carry, so the
    transform on c leaves keys c + (b,).  A term with photon total k <= n
    holding the qubit's photon (b = 1, which is y mode k-1 occupied) has
    its Fourier counts shifted cyclically by one mode (mode m to m+1, mode
    n to 0), which multiplies its output at counts c by exactly w^r, and is
    negated where ``flips[k]``.  The shift keeps k and b, so within one
    (k, b) class every term is shifted or none is, and no two keys merge:
    amplitudes only move and change sign before the one transform, which
    rounds and prunes them as any other.  A shifted term's Fourier pattern
    {1..k} is the one the qubit's empty term at weight k has, so the
    transform expands n fewer patterns.
    """
    terms: dict[Occupation, complex] = {}
    for key, a in qubit.state().tensor(register).terms.items():
        c, b = key[: n + 1], key[0]
        k = sum(c)
        if b and k <= n:
            c = c[n:] + c[:n]
            if flips[k]:
                a = -a + 0j
        terms[c + (b,)] = a
    return apply_qft(_state(n + 2, terms), list(range(n + 1)))


def teleport(qubit: InputQubit, ancilla: SparseState, n: int) -> list[TeleportOutcome]:
    """Enumerate every measurement branch of one teleport exactly.

    Each success outcome's ``output_state`` is the corrected qubit on one
    mode, keys (0,) and (1,), and its fidelity is taken against
    ``qubit.state()``.

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
    ideal = qubit.state()
    # The transformed state is measured as it is made, so it is freed before
    # the outcome records are built.
    measured = _feedforward(qubit, ancilla, n, _sign_flips(weights)).measure(range(n + 1))

    # Each outcome is built by tuple.__new__, as ``_state`` builds a state by
    # object.__new__: the named tuple's own __new__ is a Python-level call.
    outcomes: list[TeleportOutcome] = []
    for counts, prob, residual in measured:
        k = sum(counts)
        if 1 <= k <= n:
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


def _corrected_side(
    qubit: InputQubit, register: SparseState, n: int, flips: list[int]
) -> tuple[list[tuple[int, int, int, list]], tuple[list[float], list[float]]]:
    """Mix and correct one CZ side (``_feedforward``) and split its terms.

    A term's key is its Fourier counts c, of photon total k, and its qubit
    photon b, which fix its register weight j = k - b.  Returns the success
    terms (k in 1..n) as cells (j, k, b, terms), ordered by j and then b,
    each term its Fourier counts c and amplitude s, and, per weight j, the
    masses sum |s|^2 of all its terms and of its failing ones, each summed
    in output order.
    """
    halves: list[tuple[list, list]] = [([], []) for _ in range(n + 1)]
    every: list[list[float]] = [[] for _ in range(n + 1)]
    failed: list[list[float]] = [[] for _ in range(n + 1)]
    for key, s in _feedforward(qubit, register, n, flips).terms.items():
        c, b = key[: n + 1], key[n + 1]
        k = sum(c)
        j = k - b
        mass = abs(s) ** 2
        every[j].append(mass)
        if 1 <= k <= n:
            halves[j][b].append((c, s))
        else:
            failed[j].append(mass)
    cells = [(j, j + b, b, t) for j, half in enumerate(halves) for b, t in enumerate(half) if t]
    return cells, ([_sum_in_order(m) for m in every], [_sum_in_order(m) for m in failed])


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

    Each side's Fourier transform acts on its own (n+2)-mode state, the
    qubit tensored with the unit-weight single register sum_j |x_j y_j>
    and keyed by its Fourier counts c and qubit photon b, and each success
    term takes its feedforward there (``_corrected_side``), with the
    profile's sign flips read off the pair.  The joint state is the product
    of the two sides' success terms (both photon totals in 1..n) with each
    term reweighted by the pair's amplitude w(j, j') at the registers'
    weights j = k - b.  No sum is lost: a side's output key fixes its
    register weight, so each joint key has one product s1 s2 w(j, j').  The
    join runs over the sides' (j, k, b) cells and applies the cross
    corrections, pi*k' on the unprimed output and pi*k on the primed one,
    as exact negations.  A joint key keeps each side's Fourier counts and
    qubit photon, on modes [c, c', b, b'].  Measuring both count blocks
    then yields exactly the kept branches, already corrected, each residual
    a qubit pair on [b, b'] scored against the controlled-sign image of the
    input product state; the likeliest one, normalized, is the output.

    Failing terms never enter the joint state: the success and failure
    totals come from the sides' masses per weight (``_cz_totals``).  An
    ancilla with a term off the register patterns (j, j') raises
    ``ShapeMismatch`` and one with a weight whose |w|^2 overflows
    ``InvalidState``, both before either transform; one whose totals pass
    the float range raises ``InvalidState`` after them.
    """
    if ancilla_pair.modes != 4 * n:
        raise ShapeMismatch(
            f"pair ancilla has {ancilla_pair.modes} modes, expected {4 * n} for n={n}"
        )
    _check_cost(n, 2)
    patterns = [pair_pattern(n, j, jp) for j in range(n + 1) for jp in range(n + 1)]
    flat = _pattern_weights(ancilla_pair, patterns, "pair ancilla", n)
    weights = [flat[j * (n + 1) : (j + 1) * (n + 1)] for j in range(n + 1)]
    # Each side has norm^2 n+1, so |s1 s2| <= n+1: a finite |w|^2 bounds
    # every joined product s1 s2 w, each part included, far below inf.
    try:
        pair_mass = [[abs(w) ** 2 for w in row] for row in weights]
    except OverflowError:  # a modulus or its square past the float range
        raise InvalidState("pair ancilla weights have a |w|^2 past the float range") from None
    # Both sides share the profile; read its signs off the row j' whose
    # diagonal amplitude f(j')^2 is largest, undoing the (-1)^(j j') factor.
    row = max(range(n + 1), key=lambda j: abs(weights[j][j]))
    flips = _sign_flips([weights[j][row] * (-1) ** (j * row) for j in range(n + 1)])

    register = SparseState(2 * n, {single_register_pattern(n, j): 1.0 for j in range(n + 1)})
    cells1, masses1 = _corrected_side(q, register, n, flips)
    cells2, masses2 = _corrected_side(qp, register, n, flips)
    total_success, total_failure = _cz_totals(pair_mass, masses1, masses2)

    # The cross corrections, pi*k' on the qubit photon b1 and pi*k on b2,
    # give each pair of cells one sign.  Negating w negates each product
    # exactly, as -a would.
    terms: dict[Occupation, complex] = {}
    for j, k, b1, part1 in cells1:
        for jp, kp, b2, part2 in cells2:
            w = weights[j][jp]
            if not w:
                continue
            v = -w if (b1 * kp + b2 * k) % 2 else w
            bits = (b1, b2)
            for c1, s1 in part1:
                for c2, s2 in part2:
                    a = s1 * s2 * v
                    if abs(a) >= PRUNE_TOLERANCE:
                        terms[c1 + c2 + bits] = a + 0j
    # Modes [c, c', b, b']: measuring both Fourier blocks leaves the
    # corrected qubit pair as the residual, and the counts as side 1 then
    # side 2.  The joint state and the cells are freed before the records.
    measured = _state(2 * n + 4, terms).measure(range(2 * n + 2))
    del terms, cells1, cells2
    # The controlled sign negates the term holding both photons.
    ideal = q.state().tensor(qp.state())
    ideal = _negated(ideal, [occ for occ in ideal.terms if occ == (1, 1)])

    branches: list[CzBranch] = []
    best: tuple[float, SparseState] | None = None
    for counts, prob, residual in measured:
        k, kp = sum(counts[: n + 1]), sum(counts[n + 1 :])
        fid = fidelity(residual, ideal)
        branches.append(tuple.__new__(CzBranch, (counts, k, kp, prob, fid)))
        if best is None or prob > best[0]:
            best = (prob, residual)

    return CzGateResult(
        success_probability=total_success,
        failure_probability=total_failure,
        min_fidelity=min((b.fidelity for b in branches), default=None),
        output_qubits=None if best is None else best[1].normalized(),
        branches=tuple(branches),
    )
