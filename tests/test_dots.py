"""Dot-array pulses, schedule compilation, and end-to-end preparation."""

import hashlib
import json
import math
import random

import pytest

from loqc_ancilla import (
    AmplitudeProfile,
    BlockadeViolation,
    DotOutOfRange,
    InvalidCoefficient,
    InvalidProfile,
    PhaseMethod,
    ShapeMismatch,
    SparseState,
    apply_entangling_phase,
    build_entangled_pair,
    build_single_register,
    direct_oracle_pair,
    direct_oracle_single,
    fidelity,
    schedule_from_profile,
)
from loqc_ancilla.dots import (
    InteractionPhase,
    LoadFromReservoir,
    PulseSchedule,
    RabiPulse,
    Thermalize,
    UGateCorrection,
    compile_pair_schedule,
    compile_schedule,
    emit_photons,
    execute,
    load_from_reservoir,
    prepare_pair,
    rabi,
    scheduled_pulse_count,
    u_gate_corrections,
)


def random_profile(rng, n):
    return AmplitudeProfile.from_values([rng.uniform(0.05, 1.0) for _ in range(n + 1)])


def binary_random_state(rng, dots, n_terms=4):
    keys = set()
    while len(keys) < n_terms:
        keys.add(tuple(rng.randint(0, 1) for _ in range(dots)))
    terms = {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in keys}
    return SparseState(dots, terms).normalized()


# ----------------------------------------------------------------------
# single pulses
# ----------------------------------------------------------------------


def test_rabi_blockade_keeps_double_pair():
    out = rabi(SparseState.basis((1, 1)), 0, 1, math.pi / 2)
    assert out.amplitude((1, 1)) == 1.0


def test_rabi_complete_swap():
    out = rabi(SparseState.basis((1, 0)), 0, 1, math.pi / 2)
    assert out.amplitude((0, 1)) == pytest.approx(1.0, abs=1e-15)
    assert abs(out.amplitude((1, 0))) < 1e-15


def test_rabi_partial_transfer_amplitudes():
    theta = math.asin(math.sqrt(0.75))
    out = rabi(SparseState.basis((1, 0)), 0, 1, theta)
    assert out.amplitude((1, 0)) == pytest.approx(0.5, abs=1e-12)
    assert out.amplitude((0, 1)) == pytest.approx(math.sqrt(3) / 2, abs=1e-12)


def test_rabi_unitary_and_involution_up_to_phase():
    rng = random.Random(31)
    for _ in range(100):
        s = binary_random_state(rng, 4)
        i, j = rng.sample(range(4), 2)
        theta = rng.uniform(0, math.pi / 2)
        out = rabi(s, i, j, theta)
        assert out.norm_squared() == pytest.approx(1.0, abs=1e-12)
    # Involution up to the fixup convention: a double pi/2 pulse equals
    # the identity after a pi phase on each participating dot.
    s = binary_random_state(rng, 3)
    twice = rabi(rabi(s, 0, 2, math.pi / 2), 0, 2, math.pi / 2)
    restored = twice.apply_phase(0, math.pi).apply_phase(2, math.pi)
    assert fidelity(restored, s) == pytest.approx(1.0, abs=1e-12)
    for occ, amp in s.terms.items():
        assert restored.amplitude(occ) == pytest.approx(amp, abs=1e-12)


def test_rabi_errors():
    with pytest.raises(DotOutOfRange):
        rabi(SparseState.basis((1, 0)), 0, 0, 0.3)
    with pytest.raises(DotOutOfRange):
        rabi(SparseState.basis((1, 0)), 0, 5, 0.3)
    with pytest.raises(BlockadeViolation):
        rabi(SparseState.basis((2, 0)), 0, 1, 0.3)


@pytest.mark.parametrize("dot", [True, False, 0.5, 1.0, "1"], ids=repr)
def test_dot_indices_must_be_ints(dot):
    # True would name dot 1 and 0.5 would raise a bare TypeError at a key.
    state = SparseState(3, {(1, 0, 0): 1.0})
    with pytest.raises(DotOutOfRange, match="is not an integer"):
        rabi(state, dot, 2, 0.3)
    with pytest.raises(DotOutOfRange, match="is not an integer"):
        rabi(state, 2, dot, 0.3)
    with pytest.raises(DotOutOfRange, match="is not an integer"):
        rabi(state, 0, 2, 0.3, only_if=dot)
    with pytest.raises(DotOutOfRange, match="is not an integer"):
        load_from_reservoir(state, dot)
    with pytest.raises(DotOutOfRange, match="is not an integer"):
        RabiPulse(dot, 2, 0.3)
    with pytest.raises(DotOutOfRange, match="is not an integer"):
        RabiPulse(2, 0, 0.3, only_if=dot)
    with pytest.raises(DotOutOfRange, match="is not an integer"):
        LoadFromReservoir(dot)


def test_load_sets_and_saturates():
    s = load_from_reservoir(SparseState.vacuum(2), 0)
    assert s.amplitude((1, 0)) == 1.0
    again = load_from_reservoir(s, 0)
    assert again.amplitude((1, 0)) == 1.0


# ----------------------------------------------------------------------
# schedule compilation
# ----------------------------------------------------------------------


def test_compile_n1_is_three_pulses():
    schedule = compile_schedule(1, AmplitudeProfile.constant(1))
    ops = [p.to_json_dict() for p in schedule.pulses]
    assert ops[0] == {"op": "thermalize", "args": []}
    assert ops[1] == {"op": "load", "args": [1]}
    assert ops[2]["op"] == "rabi" and ops[2]["args"][:2] == [1, 0]
    assert len(ops) == 3
    # P_1 = 1/2, so the pulse angle satisfies sin^2(theta) = 1/2.
    assert math.sin(ops[2]["args"][2]) ** 2 == pytest.approx(0.5, abs=1e-12)


def test_compile_delta_n3_fills_x_deterministically():
    schedule = compile_schedule(3, AmplitudeProfile.delta(3))
    final = execute(schedule)
    assert len(final) == 1
    assert final.amplitude((1, 1, 1, 0, 0, 0)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", range(1, 9))
def test_pulse_count_is_exactly_quadratic(n):
    schedule = compile_schedule(n, AmplitudeProfile.constant(n))
    assert len(schedule.pulses) == scheduled_pulse_count(n, pairs=1) == n * n + n + 1
    pair = compile_pair_schedule(n, AmplitudeProfile.constant(n))
    assert len(pair.pulses) == scheduled_pulse_count(n, pairs=2) == 2 * (n * n + n) + 3


def test_shift_pulses_are_gated_on_the_transfer_dot():
    schedule = compile_schedule(3, AmplitudeProfile.constant(3))
    walks = [p for p in schedule.pulses if isinstance(p, RabiPulse) and p.only_if is not None]
    assert len(walks) == 3 * 2
    partials = [p for p in schedule.pulses if isinstance(p, RabiPulse) and p.only_if is None]
    assert len(partials) == 3
    for partial in partials:
        round_walks = [w for w in walks if w.only_if == partial.dst]
        assert len(round_walks) == 2
        assert all(w.theta == math.pi / 2 for w in round_walks)


def test_gated_pulse_is_noop_without_marker():
    # A gated walk pulse must leave branches without the marker untouched.
    schedule = PulseSchedule(1, 1, (RabiPulse(1, 0, math.pi / 2, only_if=0),))
    state = SparseState.basis((0, 1))
    out = execute(schedule, state)
    assert out.amplitude((0, 1)) == 1.0


def test_gated_pulse_acts_only_on_marked_terms():
    # Marked (dot 0 occupied) and unmarked terms in one superposition: the
    # result is the ungated pulse on the marked term plus the untouched rest.
    marked, unmarked = (1, 0, 1, 0), (0, 0, 1, 1)
    a, b = 0.6, 0.8j
    state = SparseState(4, {marked: a, unmarked: b})
    pulse = RabiPulse(2, 1, 0.7, only_if=0)
    out = execute(PulseSchedule(2, 1, (pulse,)), state)
    pulsed = rabi(SparseState.basis(marked), 2, 1, 0.7)
    reference = {occ: a * amp for occ, amp in pulsed.terms.items()}
    reference[unmarked] = b
    assert len(reference) == 3
    assert set(out.terms) == set(reference)
    for occ, amp in reference.items():
        assert out.amplitude(occ) == pytest.approx(amp, abs=1e-15)


@pytest.mark.parametrize("only_if", [-1, 4, 5])
def test_gated_pulse_condition_dot_out_of_range(only_if):
    schedule = PulseSchedule(2, 1, (RabiPulse(2, 1, 0.7, only_if=only_if),))
    with pytest.raises(DotOutOfRange):
        execute(schedule, SparseState.basis((1, 0, 1, 0)))


# ----------------------------------------------------------------------
# execution semantics
# ----------------------------------------------------------------------


def test_execute_empty_schedule_returns_input():
    state = SparseState.basis((1, 0))
    out = execute(PulseSchedule(1, 1, ()), state)
    assert out.amplitude((1, 0)) == 1.0


def test_execute_thermalize_resets():
    state = SparseState.basis((1, 1))
    out = execute(PulseSchedule(1, 1, (Thermalize(),)), state)
    assert out.amplitude((0, 0)) == 1.0


def test_execute_shape_check():
    with pytest.raises(ShapeMismatch):
        execute(PulseSchedule(2, 1, ()), SparseState.vacuum(3))


@pytest.mark.parametrize("drop, extra", [(1, 0), (2, 0), (0, 1)], ids=["short", "shorter", "long"])
def test_execute_refuses_a_correction_table_of_the_wrong_length(drop, extra):
    # One phase per register weight j = 0..n; the pair state has weights up
    # to n on each side, so a shorter table would index past its end.
    n = 2
    phases = u_gate_corrections(n, 0.3)
    phases = phases[: len(phases) - drop] + (0.0,) * extra
    state = execute(compile_pair_schedule(n, AmplitudeProfile.constant(n)))
    with pytest.raises(ShapeMismatch, match=f"{len(phases)} phases, n=2 needs 3"):
        execute(PulseSchedule(n, 2, (UGateCorrection(phases),)), state)


@pytest.mark.parametrize(
    "pulses",
    [(LoadFromReservoir(0),), (), (Thermalize(),)],
    ids=["pulse-elsewhere", "empty", "thermalize-first"],
)
def test_execute_refuses_a_doubly_occupied_state(pulses):
    with pytest.raises(BlockadeViolation):
        execute(PulseSchedule(1, 1, pulses), SparseState.basis((0, 2)))


def test_every_pulse_kind_keeps_single_occupancy():
    # execute checks only the state it is given; this is why that suffices.
    rng = random.Random(9090)
    n, dots = 2, 8
    for _ in range(50):
        state = binary_random_state(rng, dots)
        src, dst, gate = rng.sample(range(dots), 3)
        theta = rng.uniform(0.0, math.pi / 2)
        intra = rng.uniform(-1.0, 1.0)
        empty = rng.randrange(dots)
        emptied = {occ[:empty] + (0,) + occ[empty + 1 :] for occ in state.terms}
        cases = [
            (RabiPulse(src, dst, theta), state),
            (RabiPulse(src, dst, theta, only_if=gate), state),
            (LoadFromReservoir(empty), SparseState(dots, dict.fromkeys(emptied, 1.0))),
            (InteractionPhase(math.pi, intra), state),
            (UGateCorrection(u_gate_corrections(n, intra)), state),
            (Thermalize(), state),
        ]
        for pulse, before in cases:
            out = execute(PulseSchedule(n, 2, (pulse,)), before)
            assert len(out) > 0
            assert all(c <= 1 for occ in out.terms for c in occ), pulse


def test_single_register_matches_rotated_oracle():
    # Derotating with emit_photons must land on the plain register state.
    rng = random.Random(12)
    for n in (1, 2, 3):
        for profile in (AmplitudeProfile.constant(n), random_profile(rng, n)):
            final = execute(compile_schedule(n, profile))
            photonic = emit_photons(final, n)
            oracle = direct_oracle_single(n, profile)
            assert fidelity(photonic, oracle) >= 1 - 1e-10


def test_rotated_patterns_literal_n2():
    # Execution leaves the rotated block patterns with the profile weights.
    profile = AmplitudeProfile.constant(2)
    final = execute(compile_schedule(2, profile))
    amp = 1.0 / math.sqrt(3.0)
    for pattern in ((0, 0, 1, 1), (0, 1, 1, 0), (1, 1, 0, 0)):
        assert final.amplitude(pattern) == pytest.approx(amp, abs=1e-12)


# ----------------------------------------------------------------------
# interaction phase and corrections
# ----------------------------------------------------------------------


def pair_basis(n, j, jp):
    """Two-register-pair dot state with j and j' electrons on the x sides."""
    x, xp = (1,) * j + (0,) * (n - j), (1,) * jp + (0,) * (n - jp)
    return SparseState.basis(x + (0,) * n + xp + (0,) * n)


def phases_only(n, state, *pulses):
    """``execute`` of a pair schedule holding only phase pulses."""
    return execute(PulseSchedule(n, 2, pulses), state)


def term_bits(state):
    """Every key and amplitude part, -0.0 told from 0.0, in dict order."""
    return [(occ, a.real.hex(), a.imag.hex()) for occ, a in state.terms.items()]


def test_interaction_phase_odd_odd_sign():
    # j j' = 121 at n = 11: complex ** would leave an imaginary part of 1e-14.
    for n, j, jp in ((2, 1, 1), (5, 3, 5), (11, 11, 11), (12, 11, 9)):
        state = pair_basis(n, j, jp)
        out = phases_only(n, state, InteractionPhase(math.pi, 0.0))
        assert term_bits(out) == [(*state.terms, (-1.0).hex(), (0.0).hex())]


def test_interaction_phase_even_product_unchanged():
    for n, j, jp in ((2, 2, 1), (4, 3, 4), (12, 10, 11), (12, 12, 12)):
        state = pair_basis(n, j, jp)
        out = phases_only(n, state, InteractionPhase(math.pi, 0.0))
        assert term_bits(out) == term_bits(state)


def test_interaction_phase_of_any_angle_is_its_formula():
    rng = random.Random(41)
    n, theta, intra = 3, 0.3, -0.2
    state = binary_random_state(rng, 4 * n, n_terms=8)
    out = phases_only(n, state, InteractionPhase(theta, intra))
    for occ, a in state.terms.items():
        j, jp = sum(occ[:n]), sum(occ[2 * n : 3 * n])
        phase = theta * j * jp + intra * (j * (j - 1) + jp * (jp - 1)) / 2
        want = a * complex(math.cos(phase), math.sin(phase))
        assert out.amplitude(occ) == pytest.approx(want, abs=1e-15)


def test_intra_register_term_cancelled_by_corrections():
    rng = random.Random(4)
    n = 3
    state = binary_random_state(rng, 4 * n, n_terms=6)
    lam = 0.7
    plain = phases_only(n, state, InteractionPhase(math.pi, 0.0))
    # The interaction pulse, then its u-gate correction, as execute runs them.
    pulses = (InteractionPhase(math.pi, lam), UGateCorrection(u_gate_corrections(n, lam)))
    corrected = execute(PulseSchedule(n, 2, pulses), state)
    assert term_bits(corrected) == term_bits(plain)


def test_interaction_phase_shape_check():
    with pytest.raises(ShapeMismatch):
        phases_only(2, SparseState.vacuum(6), InteractionPhase(math.pi, 0.0))
    # A one-pair schedule of 4 dots has a 4n shape but no second pair.
    for pulse in (InteractionPhase(math.pi, 0.0), UGateCorrection((0.0, 0.0, 0.0))):
        with pytest.raises(ShapeMismatch):
            execute(PulseSchedule(2, 1, (pulse,)), SparseState.vacuum(4))


@pytest.mark.parametrize(
    "run",
    [
        lambda: phases_only(
            0, SparseState.vacuum(0), InteractionPhase(math.pi, 0.0), UGateCorrection((0.0,))
        ),
        lambda: execute(PulseSchedule(0, 2, (InteractionPhase(math.pi, 0.0),))),
        lambda: execute(PulseSchedule(0, 2, (UGateCorrection((0.0,)),))),
    ],
    ids=["execute-phase-run", "execute-interaction", "execute-u-gate"],
)
def test_zero_dot_pair_is_refused(run):
    # 0 is a multiple of 4, but no register pair has zero dots.
    with pytest.raises(ShapeMismatch):
        run()


def test_pair_schedule_builds_the_transfer_schedule_once(monkeypatch):
    from loqc_ancilla import dots

    calls = []

    def counted(profile):
        calls.append(profile)
        return schedule_from_profile(profile)

    monkeypatch.setattr(dots, "schedule_from_profile", counted)
    n = 6
    profile = AmplitudeProfile.from_values([0.3, 1.0, 0.2, 0.7, 0.05, 0.9, 0.4])
    schedule = compile_pair_schedule(n, profile, 0.3)
    assert calls == [profile]
    # Digest of the schedule as compiled when each pair built its own
    # transfer schedule.
    digest = hashlib.sha256(schedule.to_jsonl().encode()).hexdigest()
    assert digest == "446305a579387edee0b84bc5d6b034c5b04c79feac4e203796aaf52ee52bf40a"


def test_intra_coefficient_bound():
    # The largest intra phase |c| n(n-1) must stay below 2**32 rad, where
    # the float spacing is 2**-20 rad; just below it the correction cancels.
    n = 3
    profile = AmplitudeProfile.constant(n)
    below = math.nextafter(2.0**32 / (n * (n - 1)), 0.0)
    photonic, _ = prepare_pair(n, profile, intra_coefficient=-below)
    assert fidelity(photonic, direct_oracle_pair(n, profile)) >= 1 - 1e-10
    with pytest.raises(InvalidCoefficient):
        compile_pair_schedule(n, profile, intra_coefficient=2.0**32 / (n * (n - 1)))


# ----------------------------------------------------------------------
# emission
# ----------------------------------------------------------------------


def test_emit_photons_index_reversal():
    state = SparseState.basis((0, 0, 1, 1, 1, 0))  # n=3 rotated pattern, j=1
    out = emit_photons(state, 3)
    assert out.amplitude((1, 0, 0, 0, 1, 1)) == 1.0


def test_emit_photons_vacuum():
    out = emit_photons(SparseState.vacuum(4), 2)
    assert out.amplitude((0, 0, 0, 0)) == 1.0


def test_emit_photons_reverses_each_block_of_a_pair():
    state = SparseState.basis((1, 0, 0, 1, 1, 1, 0, 0))  # n = 2, two pairs
    assert emit_photons(state, 2).amplitude((0, 1, 1, 0, 1, 1, 0, 0)) == 1.0


def test_emit_photons_shape_check():
    for dots, n in ((6, 2), (12, 2), (4, 0)):
        with pytest.raises(ShapeMismatch):
            emit_photons(SparseState.vacuum(dots), n)


def test_emit_photons_full_pair_n2():
    profile = AmplitudeProfile.constant(2)
    photonic, _ = prepare_pair(2, profile)
    assert fidelity(photonic, direct_oracle_pair(2, profile)) >= 1 - 1e-10


# ----------------------------------------------------------------------
# end to end
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pair_preparation_end_to_end(n):
    rng = random.Random(500 + n)
    for profile in (AmplitudeProfile.constant(n), random_profile(rng, n)):
        photonic, schedule = prepare_pair(n, profile, intra_coefficient=0.3)
        assert fidelity(photonic, direct_oracle_pair(n, profile)) >= 1 - 1e-10
        assert len(schedule.pulses) == scheduled_pulse_count(n, pairs=2)


def literal_pair(n, profile, intra_coefficient):
    """The oracle route: the whole pair schedule run on the joint 4n dots."""
    schedule = compile_pair_schedule(n, profile, intra_coefficient)
    return emit_photons(execute(schedule), n), schedule


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_prepare_pair_matches_the_literal_schedule(n):
    rng = random.Random(700 + n)
    for profile in (AmplitudeProfile.constant(n), random_profile(rng, n), AmplitudeProfile.delta(n)):
        for intra in (0.0, 0.3, -1.7):
            photonic, schedule = prepare_pair(n, profile, intra)
            literal, literal_schedule = literal_pair(n, profile, intra)
            assert schedule.to_jsonl() == literal_schedule.to_jsonl()
            assert photonic.modes == literal.modes
            assert photonic.terms.keys() == literal.terms.keys()
            for key, a in literal.terms.items():
                assert abs(photonic.terms[key] - a) <= 1e-15
                assert a.imag.hex() == photonic.terms[key].imag.hex() == (0.0).hex()


@pytest.mark.parametrize("intra", [0.0, 0.37, -1.7, 0.4])
@pytest.mark.parametrize("n", range(1, 13))
def test_prepare_pair_is_the_exact_oracle_sign_bit_for_bit(n, intra):
    # The pi coupling is -1 multiplied j j' times and the intra term cancels
    # its correction to 0.0, so the two phase pulses are the exact sign.
    rng = random.Random(1000 + n)
    for profile in (AmplitudeProfile.constant(n), random_profile(rng, n)):
        photonic, schedule = prepare_pair(n, profile, intra)
        register = execute(PulseSchedule(n, 1, schedule.pulses[: scheduled_pulse_count(n)]))
        joint = emit_photons(register.tensor(register), n)
        oracle = apply_entangling_phase(joint, PhaseMethod.DIRECT_ORACLE)
        assert term_bits(photonic) == term_bits(oracle)
        assert all(a.imag.hex() == (0.0).hex() for a in photonic.terms.values())


@pytest.mark.parametrize("n", [2, 4, 6])
def test_prepare_pair_pulses_see_one_register_pair(n, monkeypatch):
    from loqc_ancilla import dots

    sizes, transfer_schedules = [], []

    def counted_rabi(state, *args):
        sizes.append(len(state))
        return rabi(state, *args)

    def counted_schedule(profile):
        transfer_schedules.append(profile)
        return schedule_from_profile(profile)

    monkeypatch.setattr(dots, "rabi", counted_rabi)
    monkeypatch.setattr(dots, "schedule_from_profile", counted_schedule)
    profile = random_profile(random.Random(800 + n), n)
    prepare_pair(n, profile, 0.3)
    assert (len(sizes), max(sizes)) == (2 * n * n, n + 1)
    assert transfer_schedules == [profile]
    # The literal route runs the same pulses on up to (n+1)^2 terms.
    sizes.clear()
    literal_pair(n, profile, 0.3)
    assert (len(sizes), max(sizes)) == (2 * n * n, (n + 1) ** 2)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_second_register_block_is_the_first_shifted_by_2n_dots(n):
    # prepare_pair runs the first pair's block for both pairs, which is
    # exact only while the second block is the first shifted by 2n dots.
    schedule = compile_pair_schedule(n, random_profile(random.Random(900 + n), n), 0.3)
    block = scheduled_pulse_count(n)

    def shifted(pulse):
        if isinstance(pulse, LoadFromReservoir):
            return LoadFromReservoir(pulse.dot + 2 * n)
        gate = None if pulse.only_if is None else pulse.only_if + 2 * n
        return RabiPulse(pulse.src + 2 * n, pulse.dst + 2 * n, pulse.theta, gate)

    assert schedule.pulses[0] == Thermalize()
    assert schedule.pulses[block:-2] == tuple(map(shifted, schedule.pulses[1:block]))
    assert [type(p) for p in schedule.pulses[-2:]] == [InteractionPhase, UGateCorrection]


def test_no_intermediate_double_occupancy():
    # Replay the schedule pulse by pulse and scan every prefix state.
    profile = AmplitudeProfile.constant(3)
    schedule = compile_pair_schedule(3, profile)
    for cut in range(1, len(schedule.pulses) + 1):
        prefix = PulseSchedule(schedule.n, schedule.pairs, schedule.pulses[:cut])
        state = execute(prefix)
        for occ in state.terms:
            assert all(c <= 1 for c in occ)


def test_pulse_kinds_write_their_json_dicts():
    written = [
        (Thermalize(), {"op": "thermalize", "args": []}),
        (LoadFromReservoir(3), {"op": "load", "args": [3]}),
        (RabiPulse(1, 0, 0.5, only_if=2), {"op": "rabi", "args": [1, 0, 0.5], "only_if": 2}),
        (RabiPulse(1, 0, 0.5), {"op": "rabi", "args": [1, 0, 0.5]}),
        (InteractionPhase(math.pi, 0.25), {"op": "interaction_phase", "args": [math.pi, 0.25]}),
        (UGateCorrection((0.0, -0.125)), {"op": "u_gate_correction", "args": [[0.0, -0.125]]}),
    ]
    for pulse, data in written:
        assert pulse.to_json_dict() == data
    text = PulseSchedule(1, 2, tuple(pulse for pulse, _ in written)).to_jsonl()
    assert text.endswith("\n")
    assert [json.loads(line) for line in text.splitlines()] == [data for _, data in written]


@pytest.mark.parametrize("n, profile_n", [(3, 2), (2, 3)])
def test_compilers_refuse_a_profile_for_another_n(n, profile_n):
    profile = AmplitudeProfile.constant(profile_n)
    for compile_for_n in (compile_schedule, compile_pair_schedule, prepare_pair):
        with pytest.raises(InvalidProfile, match=f"profile is for n={profile_n}, requested n={n}"):
            compile_for_n(n, profile)


def test_compilers_refuse_a_signed_profile():
    # The transfers realize f(j)^2 and would drop the sign of f(3).
    profile = AmplitudeProfile.from_values([0.3, 0.1, 0.7, -0.3])
    for compile_for_n in (
        compile_schedule,
        compile_pair_schedule,
        prepare_pair,
        build_single_register,
        build_entangled_pair,
        lambda n, p: schedule_from_profile(p),
    ):
        with pytest.raises(InvalidProfile, match="non-negative"):
            compile_for_n(3, profile)


def test_load_refuses_partially_occupied_dot():
    mixed = SparseState(2, {(1, 0): 0.6, (0, 0): 0.8})
    with pytest.raises(BlockadeViolation):
        load_from_reservoir(mixed, 0)
