"""Construction of the single-register and entangled-pair ancilla states.

Two routes exist for every target and are kept deliberately independent:

* the *pipeline* route plays out the physical procedure (photon injection,
  chained conditional transfers, then one of two entangling-phase methods);
* the *direct oracle* route writes the target superposition down literally.

Tests and the CLI compare the two by fidelity.

A pair is built as the procedure prescribes: each register pair is prepared
by its own transfers on its own 2n modes, the two are joined by a tensor
product, and the entangling sign acts on the joint state.  The transfers of
one pair never touch the other's modes, so the tensor product is exact; it
also keeps each transfer on the n+1 terms of one pair instead of the up to
(n+1)^2 terms of the joint state.

Registers are blocks of n consecutive modes: register r is modes
r*n..(r+1)*n-1, in the order x, y for a single register and x, y, x', y'
for a pair.
"""

from __future__ import annotations

import enum

from .errors import AncillaNotDisentangled, ShapeMismatch
from .fock import Occupation, SparseState, _negated
from .gates import (
    cnot_logical,
    conditional_transfer,
    controlled_sign,
    toffoli_logical,
    transmission_for_probability,
)
from .profiles import AmplitudeProfile, _require_n, schedule_from_profile


class PhaseMethod(enum.Enum):
    """How the entangling sign between the two register pairs is applied."""

    PAIRWISE_GATES = "pairwise"
    PARITY_ANCILLA = "parity"
    DIRECT_ORACLE = "oracle"


def build_single_register(n: int, profile: AmplitudeProfile) -> SparseState:
    """Prepare the single-register superposition over registers (x, y).

    Chains the conditional transfers y_k -> x_k, x at modes 0..n-1 and y at
    modes n..2n-1.  The first transfer is unconditional; transfer k >= 2 is
    gated on x_{k-1} being occupied, which is what consumes one controlled
    sign gate each.
    """
    _require_n(profile, n)
    state = SparseState.basis(single_register_pattern(n, 0))
    for k, p in enumerate(schedule_from_profile(profile).probabilities, start=1):
        setting = transmission_for_probability(p)
        control = k - 2 if k >= 2 else None
        state = conditional_transfer(state, n + k - 1, k - 1, setting, control=control)
    return state


def single_register_pattern(n: int, j: int) -> Occupation:
    """Occupations for weight j: x = 1^j 0^(n-j), y = 0^j 1^(n-j)."""
    return tuple([1] * j + [0] * (n - j) + [0] * j + [1] * (n - j))


def direct_oracle_single(n: int, profile: AmplitudeProfile) -> SparseState:
    """The target single-register state written down literally."""
    _require_n(profile, n)
    terms = {
        single_register_pattern(n, j): complex(f) for j, f in enumerate(profile.f) if f != 0.0
    }
    return SparseState(2 * n)._like(terms).normalized()


def _occupied(occ: Occupation, modes: range | list[int]) -> int:
    return sum(1 for m in modes if occ[m] >= 1)


def apply_entangling_phase(state: SparseState, method: PhaseMethod) -> SparseState:
    """Multiply each term by (-1)^(j j') where j, j' count occupied x, x' modes.

    PAIRWISE_GATES uses n^2 controlled signs between the x and x' modes.
    PARITY_ANCILLA appends three helper qubit modes, computes both register
    parities with CNOT chains, applies the sign through a Toffoli pair plus
    one controlled sign on the first x mode, then uncomputes and verifies
    the helpers returned exactly to |000>.  DIRECT_ORACLE negates every
    term with odd j j' in one pass.  All three are exact: a sign is applied
    as ``-a + 0j``, never as a float phase, so on register states they
    return the same state bit for bit.
    """
    if state.modes == 0 or state.modes % 4 != 0:
        raise ShapeMismatch(f"{state.modes} modes is not a two-register-pair shape")
    n = state.modes // 4
    x_modes, xp_modes = range(n), range(2 * n, 3 * n)

    if method is PhaseMethod.DIRECT_ORACLE:
        odd = [occ for occ in state.terms if _occupied(occ, x_modes) * _occupied(occ, xp_modes) & 1]
        return _negated(state, odd)

    if method is PhaseMethod.PAIRWISE_GATES:
        for a in x_modes:
            for b in xp_modes:
                state = controlled_sign(state, {a}, b)
        return state

    if method is PhaseMethod.PARITY_ANCILLA:
        q_a, q_b, q_c = state.modes, state.modes + 1, state.modes + 2
        work = state.extend(3)
        for m in x_modes:
            work = cnot_logical(work, m, q_a)
        for m in xp_modes:
            work = cnot_logical(work, m, q_b)
        work = toffoli_logical(work, q_a, q_b, q_c)
        work = controlled_sign(work, {q_c}, x_modes[0])
        work = toffoli_logical(work, q_a, q_b, q_c)
        for m in x_modes:
            work = cnot_logical(work, m, q_a)
        for m in xp_modes:
            work = cnot_logical(work, m, q_b)
        for occ in work.terms:
            if occ[q_a] or occ[q_b] or occ[q_c]:
                raise AncillaNotDisentangled(
                    f"helper qubits left in {occ[q_a:]} on term {occ}"
                )
        return work.drop_modes((q_a, q_b, q_c))

    raise ValueError(f"unknown phase method {method!r}")


def build_entangled_pair(
    n: int,
    profile: AmplitudeProfile,
    method: PhaseMethod = PhaseMethod.PAIRWISE_GATES,
) -> SparseState:
    """Full pipeline for the entangled two-register-pair ancilla state.

    Each register pair gets its own n transfers on its own 2n modes; their
    exact tensor product, each amplitude one product a_j * b_j', then gets
    the entangling sign.
    """
    first = build_single_register(n, profile)
    second = build_single_register(n, profile)
    return apply_entangling_phase(first.tensor(second), method)


def pair_pattern(n: int, j: int, jp: int) -> Occupation:
    return single_register_pattern(n, j) + single_register_pattern(n, jp)


def direct_oracle_pair(n: int, profile: AmplitudeProfile) -> SparseState:
    """The entangled pair state written down literally, sign factor included.

    Each key joins two single-register patterns; the sign (-1)^(j j') is a
    negation, the same bits as a product with -1.0."""
    _require_n(profile, n)
    patterns = [single_register_pattern(n, j) for j in range(n + 1)]
    terms: dict[Occupation, complex] = {}
    for j, (first, f) in enumerate(zip(patterns, profile.f)):
        for jp, (second, fp) in enumerate(zip(patterns, profile.f)):
            amp = f * fp
            if amp != 0.0:
                terms[first + second] = complex(-amp if j * jp & 1 else amp)
    return SparseState(4 * n)._like(terms).normalized()
