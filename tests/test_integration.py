"""Whole-system chains: states built by one route consumed by another."""

import hashlib
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
    direct_oracle_pair,
    direct_oracle_single,
    failure_probability,
    teleport,
)
from loqc_ancilla.dots import InteractionPhase, PulseSchedule, execute, prepare_pair, rabi
from conftest import random_qubit
from invariants import check_state


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
        check_state(state)


def _feed_state(h, state):
    h.update(repr(state.modes).encode())
    for occ, a in state.terms.items():
        h.update(f"{occ}{a.real.hex()}{a.imag.hex()}".encode())


# sha256 over every key and amplitude bit, in dict order, of the builders'
# and the teleports' outputs on seeded inputs, so that no change to the
# kernels moves a bit of any of them (or the order of their terms) unseen.
# It reads the same on each supported Python version: every float the
# package sums is added left to right.
BUILD_AND_TELEPORT_DIGEST = "4cd603287d8b1021f8a2a0de07f5e7da31303ab213f1d6cf60d33223a47523ad"


def test_build_and_teleport_outputs_match_their_pinned_digest():
    rng = random.Random(2401)
    h = hashlib.sha256()

    def profile(n, signed=False):
        values = [rng.uniform(0.1, 1.0) * (rng.choice((-1, 1)) if signed else 1) for _ in range(n + 1)]
        return AmplitudeProfile.from_values(values)

    # Single and pair builds by each entangling-phase method, n = 1..8.
    for n in range(1, 9):
        p = profile(n)
        _feed_state(h, build_single_register(n, p))
        for method in PhaseMethod:
            _feed_state(h, build_entangled_pair(n, p, method))
    # Dot-array pairs with a random intra coefficient, n = 1..6.
    for n in range(1, 7):
        state, _ = prepare_pair(n, profile(n), rng.uniform(-1, 1))
        _feed_state(h, state)
    # Teleports through signed registers, n = 1..6: every outcome.
    for n in range(1, 7):
        for o in teleport(random_qubit(rng), direct_oracle_single(n, profile(n, True)), n):
            h.update(f"{o.counts}{o.k}{o.probability.hex()}{o.classification.value}".encode())
            if o.output_state is not None:
                h.update(o.fidelity.hex().encode())
                _feed_state(h, o.output_state)
    # CZs through signed pairs, n = 1..3: totals, output and every branch.
    for n in range(1, 4):
        qa, qb = random_qubit(rng), random_qubit(rng)
        r = cz_via_double_teleportation(qa, qb, direct_oracle_pair(n, profile(n, True)), n)
        probabilities = (r.success_probability, r.failure_probability, r.min_fidelity)
        h.update("".join(x.hex() for x in probabilities).encode())
        _feed_state(h, r.output_qubits)
        for b in r.branches:
            h.update(f"{b.counts}{b.k}{b.kp}{b.probability.hex()}{b.fidelity.hex()}".encode())
    assert h.hexdigest() == BUILD_AND_TELEPORT_DIGEST
