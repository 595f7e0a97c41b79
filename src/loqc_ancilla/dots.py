"""Charge-register preparation in a tunnel-coupled quantum-dot array.

Each register pair lives on 2n dots holding 0 or 1 excited electrons:
dots 0..n-1 are the rotated x register (occupied sites accumulate at the
high end), dots n..2n-1 the rotated y register (occupied sites at the low
end), so the electrons form one contiguous block around the boundary.

The compiled schedule is: reset, fill the y side from the reservoir, then n
rounds of [one partial Rabi pulse at the moving block edge, n-1 complete
Rabi pulses walking the freed hole to the far end].  The partial pulses
need no conditioning: branches that already stopped present an empty dot
pair to them, and the round's no-transfer branch is shielded from the hole
walk, which only runs on branches where the transfer happened (its pulses
carry the condition explicitly; on a branch-blind device the same pulses
would be stopped by double-occupancy blockade on the no-transfer branch but
would disturb branches frozen in earlier rounds).

A pair schedule is one reset, the loads and rounds of the first pair, the
same pulses shifted by 2n dots for the second, then the interaction phase
and its u-gate correction.  :func:`execute` runs any schedule literally on all its dots;
:func:`prepare_pair` runs each pair's block on that pair's own 2n dots and
joins the two by a tensor product before the phases, the way
``pipeline.build_entangled_pair`` joins its register pairs.

Both routes run the two phase pulses as one diagonal pass, one unit factor
per pair of x-side counts (j, j'): the pi coupling as an exact -1 multiplied
j j' times, and the intra-register term and its correction summed into one
phase that cancels to exactly 0.0.  So the dot route's entangling sign
(-1)^(j j') is exact, as it is for every method of ``pipeline``.

Double occupancy is forbidden throughout; :func:`execute` checks the state
it is given once, and no pulse can create it.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Iterable, Sequence, Union

from .errors import (
    BlockadeViolation,
    DotOutOfRange,
    InvalidCoefficient,
    ShapeMismatch,
)
from .fock import Occupation, SparseState, _Record, _cis, _is_int, _sum_in_order
from .profiles import AmplitudeProfile, _require_n, schedule_from_profile


# ----------------------------------------------------------------------
# pulse grammar
# ----------------------------------------------------------------------


def _check_dots(dots: Iterable[int], count: int | None = None) -> None:
    """Refuse a dot index that is not an int, or, given ``count``, not in
    0..count-1.  A float or a bool is refused, not read as a dot: True
    would name dot 1."""
    for d in dots:
        if not _is_int(d):
            raise DotOutOfRange(f"dot index {d!r} is not an integer")
        if count is not None and not 0 <= d < count:
            raise DotOutOfRange(f"dot {d} not in 0..{count - 1}")


class Thermalize(_Record):
    """Reset: couple every dot to the reservoir and drain it to 0."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {"op": "thermalize", "args": []}


class LoadFromReservoir(_Record):
    """Deterministic 0 -> 1 fill of one dot; a second electron cannot enter."""

    __slots__ = ("dot",)

    def __init__(self, dot: int):
        _check_dots((dot,))
        object.__setattr__(self, "dot", dot)

    def to_json_dict(self) -> dict:
        return {"op": "load", "args": [self.dot]}


class RabiPulse(_Record):
    """Tunnel coupling between two dots for a pulse angle theta.

    theta = pi/2 is a complete oscillation (swap); smaller angles transfer
    with probability sin(theta)^2.  ``only_if`` names a dot whose occupancy
    gates the pulse at the state-vector level.
    """

    __slots__ = ("src", "dst", "theta", "only_if")

    def __init__(self, src: int, dst: int, theta: float, only_if: int | None = None):
        dots = (src, dst)
        _check_dots(dots if only_if is None else dots + (only_if,))
        if src == dst:
            raise DotOutOfRange("Rabi pulse needs two distinct dots")
        if not 0.0 <= theta <= math.pi / 2 + 1e-12:
            raise DotOutOfRange(f"pulse angle {theta} outside [0, pi/2]")
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "only_if", only_if)

    def to_json_dict(self) -> dict:
        d = {"op": "rabi", "args": [self.src, self.dst, self.theta]}
        if self.only_if is not None:
            d["only_if"] = self.only_if
        return d


class InteractionPhase(_Record):
    """Charge-charge phase between the two x-side registers.

    Applies exp(i * [coupling_angle * j * j' + intra_coefficient *
    (j(j-1)/2 + j'(j'-1)/2)]) per term, with j, j' the occupied x-side
    counts of the two register pairs.  The y sides are shielded and do not
    contribute.
    """

    __slots__ = ("coupling_angle", "intra_coefficient")

    def __init__(self, coupling_angle: float, intra_coefficient: float = 0.0):
        object.__setattr__(self, "coupling_angle", coupling_angle)
        object.__setattr__(self, "intra_coefficient", intra_coefficient)

    def to_json_dict(self) -> dict:
        return {
            "op": "interaction_phase",
            "args": [self.coupling_angle, self.intra_coefficient],
        }


class UGateCorrection(_Record):
    """Per-occupancy phase table cancelling the intra-register charging term."""

    __slots__ = ("phases",)

    def __init__(self, phases: tuple[float, ...]):
        object.__setattr__(self, "phases", tuple(phases))

    def to_json_dict(self) -> dict:
        return {"op": "u_gate_correction", "args": [list(self.phases)]}


Pulse = Union[Thermalize, LoadFromReservoir, RabiPulse, InteractionPhase, UGateCorrection]


class PulseSchedule(_Record):
    """Ordered pulse list over ``pairs`` register pairs of n dots each side."""

    __slots__ = ("n", "pairs", "pulses")

    def __init__(self, n: int, pairs: int, pulses: tuple[Pulse, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "pulses", tuple(pulses))

    @property
    def dots(self) -> int:
        return 2 * self.n * self.pairs

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(p.to_json_dict()) for p in self.pulses) + "\n"


# ----------------------------------------------------------------------
# elementary dynamics
# ----------------------------------------------------------------------


def _check_binary(state: SparseState) -> None:
    for occ in state.terms:
        if any(c > 1 for c in occ):
            raise BlockadeViolation(f"double occupancy in term {occ}")


def rabi(
    state: SparseState, dot_i: int, dot_j: int, theta: float, only_if: int | None = None
) -> SparseState:
    """Two-level mixing of dots (i, j) with blockade.

    On the single-electron subspace the pulse acts as the rotation
    | i occupied >  ->  cos(theta) |i> + sin(theta) |j>
    | j occupied >  -> -sin(theta) |i> + cos(theta) |j>
    (phase convention fixed so transfers in the i -> j direction come out
    real non-negative); doubly occupied and empty pairs are untouched, and
    so is every term whose ``only_if`` dot (when given) is empty.
    """
    _check_dots((dot_i, dot_j) if only_if is None else (dot_i, dot_j, only_if), state.modes)
    if dot_i == dot_j:
        raise DotOutOfRange("Rabi coupling needs two distinct dots")
    c, s = math.cos(theta), math.sin(theta)
    terms: dict[Occupation, complex] = {}
    for occ, a in state.terms.items():
        ci, cj = occ[dot_i], occ[dot_j]
        if ci > 1 or cj > 1:
            raise BlockadeViolation(f"double occupancy in term {occ}")
        if ci + cj != 1 or (only_if is not None and not occ[only_if]):
            terms[occ] = terms.get(occ, 0j) + a
            continue
        swapped = list(occ)
        swapped[dot_i], swapped[dot_j] = cj, ci
        swapped = tuple(swapped)
        terms[occ] = terms.get(occ, 0j) + a * c
        terms[swapped] = terms.get(swapped, 0j) + (a * s if ci else -a * s)
    return state._like(terms)


def load_from_reservoir(state: SparseState, dot: int) -> SparseState:
    """Set one dot to occupied; terms already holding an electron are unchanged.

    Refuses to load into a dot that is occupied on some branches but empty
    on others: the branches would collide onto one pattern even though the
    reservoir record keeps them physically distinguishable, so the classical
    reservoir model cannot represent that situation.
    """
    _check_dots((dot,), state.modes)
    occupancies = {occ[dot] for occ in state.terms}
    if occupancies == {0, 1}:
        raise BlockadeViolation(
            f"dot {dot} is occupied on some branches only; a reservoir load "
            "would merge distinguishable branches"
        )
    terms: dict[Occupation, complex] = {}
    for occ, a in state.terms.items():
        if occ[dot] == 0:
            new = list(occ)
            new[dot] = 1
            occ = tuple(new)
        terms[occ] = terms.get(occ, 0j) + a
    return state._like(terms)


def _x_side_counts(occ: Occupation, n: int) -> tuple[int, int]:
    # Dots hold 0 or 1 electrons, so a sum counts the occupied ones.
    return sum(occ[:n]), sum(occ[2 * n : 3 * n])


def _pair_phases(state: SparseState, n: int, pulses: Iterable[Pulse]) -> SparseState:
    """Run consecutive InteractionPhase and UGateCorrection pulses as one
    diagonal pass over a two-register-pair state of n dots per register.

    Each term is multiplied once by the unit factor of its x-side counts
    (j, j'): ``_cis`` of the per-register phases summed pulse by pulse (a
    coupling pulse's c j(j-1)/2 + c j'(j'-1)/2, a correction's phases[j] +
    phases[j']), times every coupling's ``_cis`` raised to j j' by repeated
    multiplication.  Complex ``**`` would not do: past exponent 100 it goes
    through polar form, and (-1+0j)**101 has an imaginary part of 8.8e-15.
    :func:`u_gate_corrections` writes exactly the negated intra terms, so
    the compiled pair schedule's per-register phases sum to 0.0 and its
    factor is the exact sign (-1)^(j j').
    """
    couplings, tables = [], []
    for pulse in pulses:
        if isinstance(pulse, InteractionPhase):
            couplings.append(_cis(pulse.coupling_angle))
            c = pulse.intra_coefficient
            tables.append([c * j * (j - 1) / 2 for j in range(n + 1)])
        elif len(pulse.phases) != n + 1:
            raise ShapeMismatch(
                f"u-gate correction has {len(pulse.phases)} phases, n={n} needs {n + 1}"
            )
        else:
            tables.append(pulse.phases)
    terms: dict[Occupation, complex] = {}
    for occ, a in state.terms.items():
        j, jp = _x_side_counts(occ, n)
        factor = _cis(_sum_in_order(table[j] + table[jp] for table in tables))
        for unit in couplings:
            for _ in range(j * jp):
                factor *= unit
        terms[occ] = a * factor
    return state._like(terms)


def u_gate_corrections(n: int, intra_coefficient: float) -> tuple[float, ...]:
    """Phase table cancelling the intra-register charging term."""
    return tuple(-intra_coefficient * j * (j - 1) / 2 for j in range(n + 1))


# ----------------------------------------------------------------------
# compilation and execution
# ----------------------------------------------------------------------


def _register_pulses(n: int, probabilities: Sequence[float], offset: int) -> list[Pulse]:
    """Loads plus n transfer rounds for one register pair at a dot offset."""
    pulses: list[Pulse] = [
        LoadFromReservoir(offset + d) for d in range(n, 2 * n)
    ]
    for k, p in enumerate(probabilities, start=1):
        theta = math.asin(math.sqrt(p))
        dst = offset + n - k  # edge dot the block grows into this round
        src = dst + 1
        pulses.append(RabiPulse(src, dst, theta))
        # Walk the hole left by the transfer to the far end of the block;
        # gated on the transfer having happened (dst occupied).
        for i in range(n - k + 1, 2 * n - k):
            pulses.append(
                RabiPulse(offset + i + 1, offset + i, math.pi / 2, only_if=dst)
            )
    return pulses


def _transfer_probabilities(n: int, profile: AmplitudeProfile) -> tuple[float, ...]:
    """Per-round transfer probabilities of one register pair of n dots."""
    _require_n(profile, n)
    return schedule_from_profile(profile).probabilities


def compile_schedule(n: int, profile: AmplitudeProfile) -> PulseSchedule:
    """Pulse program preparing one register pair; n^2 + n + 1 pulses.

    A signed profile is refused by :func:`schedule_from_profile`.
    """
    pulses = _register_pulses(n, _transfer_probabilities(n, profile), 0)
    return PulseSchedule(n, 1, (Thermalize(), *pulses))


def compile_pair_schedule(
    n: int, profile: AmplitudeProfile, intra_coefficient: float = 0.0
) -> PulseSchedule:
    """Pulse program for both register pairs plus the entangling interaction.

    Refuses an intra coefficient whose largest phase, |c| n(n-1) at
    j = j' = n, reaches 2**32 rad, where the float spacing is 2**-20 rad.
    The simulated pulses cancel the intra term against its u-gate
    correction exactly at any finite coefficient; the bound is on the
    phases a device applies one after the other.
    """
    if not abs(intra_coefficient) * n * (n - 1) < 2**32:  # NaN fails too
        raise InvalidCoefficient(
            f"intra coefficient {intra_coefficient} gives intra-register phases "
            f"past 2**32 rad at n={n}"
        )
    probabilities = _transfer_probabilities(n, profile)
    return PulseSchedule(
        n,
        2,
        (
            Thermalize(),
            *_register_pulses(n, probabilities, 0),
            *_register_pulses(n, probabilities, 2 * n),
            InteractionPhase(math.pi, intra_coefficient),
            UGateCorrection(u_gate_corrections(n, intra_coefficient)),
        ),
    )


def scheduled_pulse_count(n: int, pairs: int = 1) -> int:
    """Closed-form pulse count of the compiled schedules."""
    per_pair = n * n + n  # n loads + n rounds of (1 partial + n-1 walks)
    return 1 + pairs * per_pair + (2 if pairs == 2 else 0)


def execute(schedule: PulseSchedule, state: SparseState | None = None) -> SparseState:
    """Run a schedule from ``state`` (all dots empty when omitted).

    Every pulse acts on the whole state; each run of consecutive phase
    pulses is one diagonal pass (:func:`_pair_phases`).  With a full pair
    schedule this is the literal route, the oracle :func:`prepare_pair` is
    tested against.
    A given state is checked once for double occupancy; no pulse creates it:
    rabi moves a lone electron within its pair and refuses a doubly occupied
    pair, a load fills only an empty dot, phases keep the keys, thermalize
    resets.
    """
    if state is None:
        state = SparseState.vacuum(schedule.dots)
    elif state.modes != schedule.dots:
        raise ShapeMismatch(
            f"state has {state.modes} dots, schedule needs {schedule.dots}"
        )
    else:
        _check_binary(state)
    phase_kinds = (InteractionPhase, UGateCorrection)
    for is_phase, run in itertools.groupby(schedule.pulses, lambda p: isinstance(p, phase_kinds)):
        if not is_phase:
            for pulse in run:
                if isinstance(pulse, Thermalize):
                    state = SparseState.vacuum(state.modes)
                elif isinstance(pulse, LoadFromReservoir):
                    state = load_from_reservoir(state, pulse.dot)
                elif isinstance(pulse, RabiPulse):
                    state = rabi(state, pulse.src, pulse.dst, pulse.theta, pulse.only_if)
                else:
                    raise ValueError(f"unknown pulse {pulse!r}")
        elif schedule.pairs != 2 or schedule.n < 1:
            raise ShapeMismatch(f"{next(run)!r} needs two non-empty register pairs")
        else:
            state = _pair_phases(state, schedule.n, run)
    return state


def emit_photons(state: SparseState, n: int) -> SparseState:
    """Map dot occupancies to fiber-mode photons, undoing the 180 degree
    register rotation: each register, a block of n dots, is reversed."""
    if n < 1 or state.modes not in (2 * n, 4 * n):
        raise ShapeMismatch(
            f"{state.modes} dots is not one or two register pairs of n={n}"
        )
    perm = [m for start in range(0, state.modes, n) for m in reversed(range(start, start + n))]
    return state.permute_modes(perm)


def prepare_pair(
    n: int,
    profile: AmplitudeProfile,
    intra_coefficient: float = 0.0,
) -> tuple[SparseState, PulseSchedule]:
    """Compile the pair schedule and run it; returns the photonic state and
    the schedule.

    Each register pair runs the schedule's register block (reset, loads and
    n transfer rounds) on its own 2n dots; the compiler emits the second
    pair's block as the first's shifted by 2n dots, so the block runs once
    per pair and the device still applies 2n^2 Rabi pulses.  The exact
    tensor product of the two pairs then gets the interaction phase and its
    u-gate correction in one exact pass, which gives bit for bit the
    ``DIRECT_ORACLE`` sign of ``pipeline``.  No pulse of one pair touches
    the other's dots, so this is the state ``execute(schedule)`` gives, up
    to the last bits (each amplitude is now one product of the two pairs'
    amplitudes), with each pulse seeing at most n+1 terms instead of up to
    (n+1)^2.
    """
    schedule = compile_pair_schedule(n, profile, intra_coefficient=intra_coefficient)
    block = scheduled_pulse_count(n)
    register_block = PulseSchedule(n, 1, schedule.pulses[:block])
    first = execute(register_block)
    second = execute(register_block)
    final = _pair_phases(first.tensor(second), n, schedule.pulses[-2:])
    return emit_photons(final, n), schedule
