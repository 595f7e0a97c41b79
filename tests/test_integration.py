"""Whole-system chains: states built by one route consumed by another."""

import math
import random

import pytest

from loqc_ancilla import (
    AmplitudeProfile,
    Classification,
    InputQubit,
    InvalidState,
    PhaseMethod,
    SparseState,
    build_entangled_pair,
    build_single_register,
    cz_via_double_teleportation,
    direct_oracle_single,
    failure_probability,
    teleport,
)
from loqc_ancilla.dots import InteractionPhase, PulseSchedule, execute, prepare_pair, rabi
from conftest import random_qubit


def test_teleport_through_pipeline_built_ancilla():
    # The gate-built register, not the oracle, feeds the teleporter.
    rng = random.Random(64)
    for n in (1, 2, 3):
        ancilla = build_single_register(n, AmplitudeProfile.constant(n))
        qubit = random_qubit(rng)
        outcomes = teleport(qubit, ancilla, n)
        assert failure_probability(outcomes) == pytest.approx(1 / (n + 1), abs=1e-10)
        for o in outcomes:
            if o.classification is Classification.SUCCESS:
                assert o.fidelity >= 1 - 1e-10


def test_cz_through_parity_built_pair():
    # The gate-built pairs, parity and pairwise, leave the pair on its
    # register patterns, so the CZ accepts them and succeeds with (n/(n+1))^2.
    for n in (1, 2, 3, 4):
        for method in (PhaseMethod.PARITY_ANCILLA, PhaseMethod.PAIRWISE_GATES):
            pair = build_entangled_pair(n, AmplitudeProfile.constant(n), method)
            result = cz_via_double_teleportation(InputQubit.one(), InputQubit.one(), pair, n)
            assert result.min_fidelity >= 1 - 1e-10
            assert result.success_probability == pytest.approx((n / (n + 1)) ** 2, abs=1e-12)


def test_cz_through_dot_prepared_pair():
    # Full hybrid chain: charge-register preparation, photon emission,
    # then the double-teleport gate on the emitted state.
    rng = random.Random(65)
    for n in (1, 2, 3, 4):
        photonic, _ = prepare_pair(n, AmplitudeProfile.constant(n), intra_coefficient=0.5)
        for _ in range(3 if n < 4 else 1):
            qa, qb = random_qubit(rng), random_qubit(rng)
            result = cz_via_double_teleportation(qa, qb, photonic, n)
            assert result.min_fidelity >= 1 - 1e-10
            assert result.failure_probability == pytest.approx(
                1 - (n / (n + 1)) ** 2, abs=1e-12
            )


def test_trusted_operations_refuse_nan_and_keep_valid_keys():
    # Internal operations skip key validation but must still refuse a NaN
    # instead of pruning it away into an emptied state.
    with pytest.raises(InvalidState):
        SparseState.basis((1, 0)).apply_phase(0, math.nan)
    with pytest.raises(InvalidState):
        rabi(SparseState.basis((1, 0)), 0, 1, math.nan)
    with pytest.raises(InvalidState):
        pulses = (InteractionPhase(math.pi, math.nan),)
        execute(PulseSchedule(1, 2, pulses), SparseState.basis((1, 0, 1, 0)))

    n = 3
    profile = AmplitudeProfile.constant(n)
    states = [
        build_entangled_pair(n, profile, PhaseMethod.PAIRWISE_GATES),
        build_entangled_pair(n, profile, PhaseMethod.PARITY_ANCILLA),
        prepare_pair(n, profile, intra_coefficient=0.3)[0],
    ]
    outcomes = teleport(InputQubit.plus(), direct_oracle_single(n, profile), n)
    states += [o.output_state for o in outcomes if o.output_state is not None]
    assert len(states) > 3
    for state in states:
        for occ, amp in state.terms.items():
            assert type(occ) is tuple and len(occ) == state.modes
            assert all(type(c) is int and c >= 0 for c in occ)
            assert type(amp) is complex
