"""Transfer gadget law, fixup convention, and logical controlled gates."""

import math
import random

import pytest

from loqc_ancilla import (
    AmplitudeProfile,
    AncillaError,
    ModeOutOfRange,
    NonBinaryTarget,
    OutOfRange,
    PhaseMethod,
    SparseState,
    TransferSetting,
    apply_entangling_phase,
    build_entangled_pair,
    build_single_register,
    cnot_logical,
    conditional_transfer,
    controlled_sign,
    fidelity,
    toffoli_logical,
    transfer_gadget,
    transmission_for_probability,
)
from loqc_ancilla import dots, gates
from conftest import exact_terms, random_state

INV_SQRT2 = 1.0 / math.sqrt(2.0)


# ----------------------------------------------------------------------
# transmission solving
# ----------------------------------------------------------------------


def test_transmission_for_zero_probability():
    setting = transmission_for_probability(0.0)
    assert setting.t == 0.0
    assert setting.r == 1.0


def test_transmission_for_unit_probability():
    setting = transmission_for_probability(1.0)
    assert setting.t == pytest.approx(INV_SQRT2, abs=1e-15)


def test_transmission_three_quarters_smaller_root():
    setting = transmission_for_probability(0.75)
    assert setting.t == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("p", [i / 10 for i in range(11)])
def test_transmission_solves_quartic(p):
    setting = transmission_for_probability(p)
    assert 4 * setting.t**2 * (1 - setting.t**2) == pytest.approx(p, abs=1e-12)
    assert setting.t <= INV_SQRT2 + 1e-15


def test_transmission_out_of_range():
    with pytest.raises(OutOfRange):
        transmission_for_probability(-0.1)
    with pytest.raises(OutOfRange):
        transmission_for_probability(1.1)


def test_setting_validation():
    with pytest.raises(OutOfRange):
        TransferSetting(t=0.5, r=0.5)
    with pytest.raises(OutOfRange):
        TransferSetting(t=0.0, r=1.0, phi=0.3)


@pytest.mark.parametrize(
    "t, r",
    [(-0.6, 0.8), (1.5, math.nan), (math.nan, math.nan), (0.6, math.nan), (math.inf, 0.0)],
    ids=str,
)
def test_setting_refuses_t_outside_unit_interval_or_nan(t, r):
    with pytest.raises(OutOfRange):
        TransferSetting(t, r)


@pytest.mark.parametrize("t, r", [(0.0, 1.0), (1.0, 0.0), (0.6, 0.8)], ids=str)
def test_setting_accepts_t_on_the_unit_interval(t, r):
    assert TransferSetting(t, r).t == t


# ----------------------------------------------------------------------
# raw gadget amplitudes (before fixup)
# ----------------------------------------------------------------------


def test_gadget_phase_pi_keeps_photon_with_minus_sign():
    for t in (0.2, 0.5, INV_SQRT2, 0.9):
        setting = TransferSetting(t=t, r=math.sqrt(1 - t * t), phi=math.pi)
        out = transfer_gadget(SparseState.basis((1, 0)), 0, 1, setting)
        assert out.amplitude((1, 0)) == pytest.approx(-1.0, abs=1e-12)
        assert abs(out.amplitude((0, 1))) < 1e-12


def test_gadget_balanced_full_transfer():
    setting = TransferSetting(t=INV_SQRT2, r=INV_SQRT2, phi=0.0)
    out = transfer_gadget(SparseState.basis((1, 0)), 0, 1, setting)
    assert abs(out.amplitude((1, 0))) < 1e-12
    assert out.amplitude((0, 1)) == pytest.approx(1j, abs=1e-12)


def test_gadget_half_transmission_amplitudes():
    # T = 1/2: stay -(1-2T^2) = -1/2, go 2iRT = i sqrt(3)/2.
    r = math.sqrt(3.0) / 2.0
    setting = TransferSetting(t=0.5, r=r, phi=0.0)
    out = transfer_gadget(SparseState.basis((1, 0)), 0, 1, setting)
    assert out.amplitude((1, 0)) == pytest.approx(-0.5, abs=1e-12)
    assert out.amplitude((0, 1)) == pytest.approx(1j * r, abs=1e-12)


# ----------------------------------------------------------------------
# conditional transfer (gadget + fixup)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("p", [i / 10 for i in range(11)])
def test_transfer_probability_law(p):
    setting = transmission_for_probability(p)
    out = conditional_transfer(SparseState.basis((1, 0)), 0, 1, setting)
    assert out.amplitude((0, 1)) == pytest.approx(math.sqrt(p), abs=1e-12)
    assert out.amplitude((1, 0)) == pytest.approx(math.sqrt(1 - p), abs=1e-12)
    outcomes = {o.counts: o.probability for o in out.measure([1])}
    assert outcomes.get((1,), 0.0) == pytest.approx(p, abs=1e-12)


def test_inhibited_transfer_is_identity_on_occupation():
    setting = TransferSetting(t=0.6, r=0.8, phi=math.pi)
    out = conditional_transfer(SparseState.basis((1, 0)), 0, 1, setting)
    assert out.amplitude((1, 0)) == pytest.approx(1.0, abs=1e-12)
    outcomes = {o.counts: o.probability for o in out.measure([1])}
    assert outcomes == {(0,): pytest.approx(1.0)}


def test_controlled_transfer_splits_only_on_occupied_control():
    # Modes: 0 control, 1 src, 2 dst.  Control in superposition.
    s = SparseState(3, {(1, 1, 0): INV_SQRT2, (0, 1, 0): INV_SQRT2})
    setting = transmission_for_probability(0.75)
    out = conditional_transfer(s, 1, 2, setting, control=0)
    assert out.amplitude((1, 1, 0)) == pytest.approx(INV_SQRT2 * 0.5, abs=1e-12)
    assert out.amplitude((1, 0, 1)) == pytest.approx(INV_SQRT2 * math.sqrt(0.75), abs=1e-12)
    # Unconditioned branch passes through unchanged, amplitude +1.
    assert out.amplitude((0, 1, 0)) == pytest.approx(INV_SQRT2, abs=1e-12)


def test_conditional_transfer_conserves_photons_and_norm():
    rng = random.Random(17)
    for _ in range(100):
        s = random_state(rng, 3, 3)
        setting = transmission_for_probability(rng.random())
        out = conditional_transfer(s, 0, 2, setting)
        assert out.norm_squared() == pytest.approx(1.0, abs=1e-12)
        totals_in = {sum(occ) for occ in s.terms}
        assert {sum(occ) for occ in out.terms} <= totals_in


# ----------------------------------------------------------------------
# logical gates
# ----------------------------------------------------------------------


def test_controlled_sign_truth_table():
    assert controlled_sign(SparseState.basis((1, 1)), {0}, 1).amplitude((1, 1)) == -1.0
    assert controlled_sign(SparseState.basis((1, 0)), {0}, 1).amplitude((1, 0)) == 1.0
    assert controlled_sign(SparseState.basis((0, 1)), {0}, 1).amplitude((0, 1)) == 1.0


def test_controlled_sign_two_controls():
    assert controlled_sign(SparseState.basis((1, 1, 1)), {0, 1}, 2).amplitude((1, 1, 1)) == -1.0
    assert controlled_sign(SparseState.basis((0, 1, 1)), {0, 1}, 2).amplitude((0, 1, 1)) == 1.0


def test_controlled_sign_involution():
    rng = random.Random(3)
    s = random_state(rng, 3, 1)
    twice = controlled_sign(controlled_sign(s, {0}, 2), {0}, 2)
    assert fidelity(twice, s) == pytest.approx(1.0, abs=1e-12)
    for occ in s.terms:
        assert twice.amplitude(occ) == pytest.approx(s.amplitude(occ), abs=1e-12)


def test_controlled_sign_rejects_overlap():
    with pytest.raises(ModeOutOfRange):
        controlled_sign(SparseState.basis((1, 1)), {0}, 0)


def test_cnot_truth_table():
    assert cnot_logical(SparseState.basis((1, 0)), 0, 1).amplitude((1, 1)) == 1.0
    assert cnot_logical(SparseState.basis((0, 1)), 0, 1).amplitude((0, 1)) == 1.0
    assert cnot_logical(SparseState.basis((1, 1)), 0, 1).amplitude((1, 0)) == 1.0


def test_cnot_twice_is_identity():
    s = SparseState(2, {(1, 0): 0.6, (0, 1): 0.8})
    twice = cnot_logical(cnot_logical(s, 0, 1), 0, 1)
    for occ in s.terms:
        assert twice.amplitude(occ) == pytest.approx(s.amplitude(occ))


def test_cnot_non_binary_target():
    with pytest.raises(NonBinaryTarget):
        cnot_logical(SparseState.basis((1, 2)), 0, 1)


def test_cnot_folds_to_parity():
    # CNOT from each occupied register mode onto a fresh helper computes
    # the occupancy parity.
    for pattern in [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)]:
        s = SparseState.basis(pattern + (0,))
        for mode in range(3):
            s = cnot_logical(s, mode, 3)
        ((occ, amp),) = s.items_sorted()
        assert occ[3] == sum(pattern) % 2
        assert amp == 1.0


def test_toffoli_truth_table():
    assert toffoli_logical(SparseState.basis((1, 1, 0)), 0, 1, 2).amplitude((1, 1, 1)) == 1.0
    assert toffoli_logical(SparseState.basis((1, 0, 0)), 0, 1, 2).amplitude((1, 0, 0)) == 1.0
    assert toffoli_logical(SparseState.basis((1, 1, 1)), 0, 1, 2).amplitude((1, 1, 0)) == 1.0


@pytest.mark.parametrize("control", [-1, 3])
def test_conditional_transfer_control_out_of_range(control):
    # A negative control would otherwise index from the end of the key.
    s = SparseState.basis((1, 1, 0))
    with pytest.raises(ModeOutOfRange):
        conditional_transfer(s, 1, 2, transmission_for_probability(0.5), control=control)


def test_conditional_transfer_control_must_be_distinct():
    s = SparseState.basis((1, 1, 0))
    setting = transmission_for_probability(0.5)
    with pytest.raises(ModeOutOfRange):
        conditional_transfer(s, 1, 2, setting, control=1)
    with pytest.raises(ModeOutOfRange):
        conditional_transfer(s, 1, 2, setting, control=2)


# ----------------------------------------------------------------------
# exact per-term conditions against the earlier phase-based bodies
# ----------------------------------------------------------------------


def reference_controlled_sign(state, control_modes, target_mode):
    """``controlled_sign`` as it was, a pi phase through ``apply_basis_phase``:
    kept as the oracle of the exact sign."""
    controls = sorted(int(m) for m in control_modes)
    for m in controls + [target_mode]:
        state._check_mode(m)
    if target_mode in controls:
        raise ModeOutOfRange("target must be disjoint from the controls")

    def phase(occ):
        if occ[target_mode] >= 1 and all(occ[m] >= 1 for m in controls):
            return math.pi
        return 0.0

    return state.apply_basis_phase(phase)


def reference_flip(state, controls, target_mode):
    """``gates._flip`` as it was, summing into a fresh dict through ``_like``."""
    modes = controls + (target_mode,)
    for m in modes:
        state._check_mode(m)
    if len(set(modes)) != len(modes):
        raise ModeOutOfRange("controls and target must be distinct modes")
    terms = {}
    for occ, a in state.terms.items():
        if occ[target_mode] > 1:
            raise NonBinaryTarget(f"target mode {target_mode} holds {occ[target_mode]} photons")
        if all(occ[m] for m in controls):
            new = list(occ)
            new[target_mode] = 1 - new[target_mode]
            occ = tuple(new)
        terms[occ] = terms.get(occ, 0j) + a
    return state._like(terms)


def reference_gated_transfer(state, src, dst, setting, control):
    """Gated ``conditional_transfer`` as it was, its internal phase a
    ``pi * count(src)`` phase through ``apply_basis_phase``."""
    state._check_mode(control)
    if control in (src, dst):
        raise ModeOutOfRange("control mode must differ from source and destination")
    return reference_transfer(
        state, src, dst, setting, control, quarter_turn_fixup, phase_internal
    )


def result_of(fn, *args):
    """Every term of the result bit for bit, or the refusal's type and message."""
    try:
        return exact_terms(fn(*args))
    except AncillaError as exc:
        return type(exc), str(exc)


def unnormalized_states(seed, count, target=None):
    """Random unnormalized states of 4 to 6 modes with counts up to 3 (at most
    1 on ``target``), and one empty state; some amplitudes have a zero real
    or imaginary part."""
    rng = random.Random(seed)
    states = []
    for _ in range(count):
        modes = rng.randint(4, 6)
        terms = {}
        for _ in range(rng.randint(1, 24)):
            occ = [rng.randint(0, 3) for _ in range(modes)]
            if target is not None:
                occ[target] = rng.randint(0, 1)
            re, im = rng.uniform(-3, 3), rng.uniform(-3, 3)
            terms[tuple(occ)] = rng.choice((complex(re, im), complex(re, 0.0), complex(0.0, im)))
        states.append(SparseState(modes, terms))
    states.append(SparseState(4))
    return states


def test_exact_sign_inputs_cover_the_edge_cases():
    states = unnormalized_states(5, 60)
    counts = {c for s in states for occ in s.terms for c in occ}
    assert counts == {0, 1, 2, 3}
    parts = [x for s in states for a in s.terms.values() for x in (a.real, a.imag)]
    assert 0.0 in parts and any(abs(x) > 1 for x in parts)
    # Public constructors never store a -0.0 part; the exact signs rely on it.
    assert all(math.copysign(1.0, x) > 0 for x in parts if x == 0)


def test_controlled_sign_is_bit_identical_to_reference():
    rng = random.Random(6)
    for state in unnormalized_states(5, 60):
        for n_controls in (0, 1, 2, 3):
            modes = rng.sample(range(state.modes), n_controls + 1)
            controls, target = set(modes[:-1]), modes[-1]
            got = result_of(controlled_sign, state, controls, target)
            assert got == result_of(reference_controlled_sign, state, controls, target)


def test_flip_is_bit_identical_to_reference():
    rng = random.Random(7)
    for target in (0, 2):
        for state in unnormalized_states(8 + target, 40, target):
            for n_controls in (0, 1, 2):
                others = [m for m in range(state.modes) if m != target]
                controls = tuple(rng.sample(others, n_controls))
                got = result_of(gates._flip, state, controls, target)
                assert got == result_of(reference_flip, state, controls, target)


def test_gated_transfer_is_bit_identical_to_reference():
    rng = random.Random(9)
    for state in unnormalized_states(10, 60):
        src, dst, control = rng.sample(range(state.modes), 3)
        setting = transmission_for_probability(rng.random())
        got = result_of(conditional_transfer, state, src, dst, setting, control)
        assert got == result_of(reference_gated_transfer, state, src, dst, setting, control)


def reference_fixup(state, src, dst):
    """``_fixup`` as it was first: phases pi on src and -pi/2 on dst through
    ``apply_phase``."""
    return state.apply_phase(src, math.pi).apply_phase(dst, -math.pi / 2)


def quarter_turn_fixup(state, src, dst):
    """``gates._fixup`` as it was last, a pass of its own: (-1) per src photon
    and (-i) per dst photon, one exact quarter turn i^(2 c_src - c_dst) per
    term."""
    turns = (1.0 + 0j, 1j, -1.0 + 0j, -1j)
    return SparseState(
        state.modes,
        {occ: a * turns[(2 * occ[src] - occ[dst]) % 4] + 0j for occ, a in state.terms.items()},
    )


def reference_transfer(state, src, dst, setting, control, fixup, internal):
    """``conditional_transfer`` as a gadget followed by a ``fixup`` pass; the
    gadget's internal phase, pi per src photon where ``setting.phi`` is pi or
    the control is empty, goes through ``internal(state, inhibited)``."""
    def inhibited(occ):
        return setting.phi != 0.0 if control is None else not occ[control]

    out = internal(state.apply_beamsplitter(src, dst, setting.t), src, inhibited)
    return fixup(out.apply_beamsplitter(src, dst, setting.t), src, dst)


def phase_internal(state, src, inhibited):
    """The internal phase as a float pi * count(src) phase."""
    return state.apply_basis_phase(lambda occ: math.pi * occ[src] if inhibited(occ) else 0.0)


def sign_internal(state, src, inhibited):
    """The internal phase as an exact sign on odd src counts."""
    return SparseState(
        state.modes,
        {occ: -a if occ[src] % 2 and inhibited(occ) else a for occ, a in state.terms.items()},
    )


TRANSFER_SETTINGS = [
    transmission_for_probability(0.0),
    transmission_for_probability(1.0),
    TransferSetting(0.0, 1.0, math.pi),
    TransferSetting(INV_SQRT2, INV_SQRT2, math.pi),
]


def test_fixup_is_bit_identical_to_two_phases_up_to_ten_photons():
    # Up to ten photons in src and dst together, every phase of the
    # two-phase form is a whole number of quarter turns, so the transfer, its
    # fixup folded into the second beamsplitter, gives that form's bits.
    rng = random.Random(12)
    states = unnormalized_states(13, 40)
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 12)):
            c_src = rng.randint(0, 10)
            occ = (c_src, rng.randint(0, 10 - c_src), rng.randint(0, 1))
            terms[occ] = complex(rng.choice((0.0, rng.uniform(-3, 3))), rng.uniform(-3, 3))
        states.append(SparseState(3, terms))
    for state in states:
        src, dst, control = (0, 1, 2) if state.modes == 3 else rng.sample(range(state.modes), 3)
        for setting in TRANSFER_SETTINGS + [transmission_for_probability(rng.random())]:
            for ctl in (None, control) if setting.phi == 0.0 else (None,):
                got = result_of(conditional_transfer, state, src, dst, setting, ctl)
                want = result_of(
                    reference_transfer, state, src, dst, setting, ctl, reference_fixup,
                    phase_internal,
                )
                assert got == want


def test_fixup_is_an_exact_quarter_turn_past_ten_photons():
    # From 11 photons on, pi * c does not divide back to whole quarter turns
    # and the two-phase form leaves parts near 1e-15; the transfer matches
    # the exact quarter-turn pass bit for bit up to 20 photons per mode.
    a = complex(0.6, -0.8)
    inexact = 0
    for c_src in range(21):
        for c_dst in (0, 1, 2, 3, 11, 20):
            for setting in TRANSFER_SETTINGS:
                # Ungated, then gated with the control empty and occupied.
                gated = ((2, 0), (2, 1)) if setting.phi == 0.0 else ()
                for ctl, c_ctl in ((None, 0),) + gated:
                    args = (SparseState(3, {(c_src, c_dst, c_ctl): a}), 0, 1, setting, ctl)
                    want = exact_terms(reference_transfer(*args, quarter_turn_fixup, sign_internal))
                    assert exact_terms(conditional_transfer(*args)) == want
                    two_phases = reference_transfer(*args, reference_fixup, sign_internal)
                    inexact += exact_terms(two_phases) != want
    assert inexact


@pytest.mark.parametrize("t", [0.0, 1.0])
def test_gadget_phase_pi_negates_exactly_past_ten_photons(t):
    # At T = 0 or 1 each beamsplitter maps a term to one term, so the phi =
    # pi gadget is the phi = 0 gadget with a sign wherever the src count
    # between the beamsplitters is odd: the dst count at T = 0, the src count
    # at T = 1.  A pi * count phase would leave parts near 1e-15 from 11 on.
    r = math.sqrt(1.0 - t * t)
    a = complex(0.6, -0.8)
    for c_src in range(21):
        for c_dst in range(21):
            state = SparseState(2, {(c_src, c_dst): a})
            open_ = transfer_gadget(state, 0, 1, TransferSetting(t, r, 0.0))
            blocked = transfer_gadget(state, 0, 1, TransferSetting(t, r, math.pi))
            between = c_src if t else c_dst
            want = [(occ, repr(-b + 0j if between % 2 else b)) for occ, b in open_.terms.items()]
            assert exact_terms(blocked) == (2, want)


def test_gated_transfer_refuses_phi_pi():
    # The control sets a gated transfer's internal phase; phi = pi would be
    # ignored where the control is occupied and the photon would move.
    s = SparseState.basis((1, 1, 0))
    with pytest.raises(OutOfRange):
        conditional_transfer(s, 1, 2, TransferSetting(0.6, 0.8, math.pi), control=0)


def test_builds_call_no_apply_phase(monkeypatch):
    def no_phase(self, mode, phi):
        raise AssertionError("the transfer's internal phase is an exact sign")

    monkeypatch.setattr(SparseState, "apply_phase", no_phase)
    for n in (1, 2, 3):
        for profile in (AmplitudeProfile.constant(n), AmplitudeProfile(n, (0.3,) * n + (0.9,))):
            build_single_register(n, profile)
            for method in PhaseMethod:
                build_entangled_pair(n, profile, method)
            dots.prepare_pair(n, profile)


@pytest.mark.parametrize(
    "gate, reference, args",
    [
        (gates._flip, reference_flip, ((0,), 1)),
        (gates._flip, reference_flip, ((0, 2), 1)),
        (gates._flip, reference_flip, ((1,), 1)),
        (gates._flip, reference_flip, ((0, 0), 1)),
        (controlled_sign, reference_controlled_sign, ({0, 1}, 1)),
        (
            conditional_transfer,
            reference_gated_transfer,
            (1, 2, transmission_for_probability(0.5), 2),
        ),
    ],
    ids=["two-photon-target", "two-photon-target-two-controls", "flip-overlap",
         "flip-repeated-control", "sign-overlap", "transfer-overlap"],
)
def test_exact_conditions_refuse_as_reference_does(gate, reference, args):
    # The one 2-photon target follows a 1-photon one and has mode 0 empty:
    # the flip refuses it whether or not its controls are occupied.
    state = SparseState(3, {(1, 1, 1): 0.6, (0, 2, 1): 0.6j, (1, 0, 1): 0.5})
    got = result_of(gate, state, *args)
    assert isinstance(got[0], type) and got == result_of(reference, state, *args)


def _copy_editing_gates():
    """Each gate that edits a copy of its input's term dict, as a call on a
    state of at least 4 modes with mode 3 binary."""
    setting = transmission_for_probability(0.3)
    inhibited = TransferSetting(setting.t, setting.r, math.pi)
    return {
        "controlled_sign": lambda s: controlled_sign(s, {0, 1}, 2),
        "ungated-transfer": lambda s: conditional_transfer(s, 0, 1, setting),
        "gated-transfer": lambda s: conditional_transfer(s, 0, 1, setting, control=2),
        "gadget-phi-pi": lambda s: transfer_gadget(s, 1, 2, inhibited),
        "cnot": lambda s: cnot_logical(s, 0, 3),
        "toffoli": lambda s: toffoli_logical(s, 0, 1, 3),
    }


@pytest.mark.parametrize("gate", sorted(_copy_editing_gates()))
def test_copy_editing_gates_leave_their_input_alone(gate):
    apply = _copy_editing_gates()[gate]
    for state in unnormalized_states(31, 30, target=3):
        terms, before = state.terms, exact_terms(state)
        out = apply(state)
        assert state.terms is terms and exact_terms(state) == before
        assert out.terms is not state.terms


def test_oracle_phase_leaves_its_input_alone():
    for n in (1, 2, 3):
        profile = AmplitudeProfile(n, tuple(0.2 + 0.1 * j for j in range(n + 1)))
        state = build_single_register(n, profile).tensor(build_single_register(n, profile))
        before = exact_terms(state)
        out = apply_entangling_phase(state, PhaseMethod.DIRECT_ORACLE)
        assert exact_terms(state) == before and out.terms is not state.terms
