"""Teleportation outcome enumeration and the double-teleport sign gate."""

import cmath
import math
import operator
import random
import sys

import pytest

from loqc_ancilla import (
    AmplitudeProfile,
    Classification,
    InfeasibleParameters,
    InputQubit,
    InvalidState,
    OutOfRange,
    PhaseMethod,
    ShapeMismatch,
    SparseState,
    apply_qft,
    build_entangled_pair,
    cz_via_double_teleportation,
    direct_oracle_pair,
    direct_oracle_single,
    failure_probability,
    fidelity,
    teleport,
)
from loqc_ancilla import fock
from loqc_ancilla.fock import PRUNE_TOLERANCE, _negated
from loqc_ancilla.pipeline import pair_pattern, single_register_pattern
from loqc_ancilla.teleport import (
    OUTCOMES_GUARD,
    CzBranch,
    CzGateResult,
    TeleportOutcome,
    _sign_flips,
    feedforward_table,
    outcome_estimate,
    qft_matrix,
    success_probability,
)
from conftest import digest, exact_terms, poly_two_mode_image, random_qubit, random_state

# The package re-exports the function ``teleport`` under the module's name.
teleport_module = sys.modules["loqc_ancilla.teleport"]

INV_SQRT2 = 1.0 / math.sqrt(2.0)


# ----------------------------------------------------------------------
# input qubits
# ----------------------------------------------------------------------


def test_qubit_normalization_enforced():
    with pytest.raises(OutOfRange):
        InputQubit(1.0, 1.0)
    # The norm^2 must lie within 1e-12 of 1: 1.0000000016 and 1.000000000016
    # are both refused, the second past any bound of 1e-11 or looser.
    for beta in (0.8 + 1e-9, 0.8 + 1e-11):
        with pytest.raises(OutOfRange):
            InputQubit(0.6, beta)
    q = InputQubit.of(3.0, 4.0)
    assert abs(q.alpha) == pytest.approx(0.6)
    assert abs(q.beta) == pytest.approx(0.8)
    with pytest.raises(OutOfRange):
        InputQubit.of(0.0, 0.0)


def test_qubit_normalization_of_amplitudes_whose_squares_overflow():
    # Only inputs whose squared moduli overflow are rescaled first.
    assert InputQubit.of(1e200, 1e200) == InputQubit.of(1.0, 1.0)
    q = InputQubit.of(3e200, 4e200j)
    assert q.alpha == pytest.approx(0.6, abs=1e-15)
    assert q.beta == pytest.approx(0.8j, abs=1e-15)
    q = InputQubit.of(complex(1.7e308, 1.7e308), 0.0)
    assert q.alpha == pytest.approx((1 + 1j) / math.sqrt(2.0), abs=1e-15)
    assert q.beta == 0


@pytest.mark.parametrize("scale", [1e-160, 1e-200, 5e-324])
def test_qubit_normalization_of_amplitudes_whose_squares_underflow(scale):
    # Squares that vanish or turn subnormal take the same rescaling detour.
    assert InputQubit.of(scale, scale) == InputQubit.of(1.0, 1.0)
    q = InputQubit.of(3 * scale, 4j * scale)
    assert q.alpha == pytest.approx(0.6, abs=1e-15)
    assert q.beta == pytest.approx(0.8j, abs=1e-15)


# ----------------------------------------------------------------------
# Fourier mixing
# ----------------------------------------------------------------------


def test_qft_single_mode_is_identity():
    s = SparseState.basis((2,))
    out = apply_qft(s, [0])
    assert out.amplitude((2,)) == pytest.approx(1.0)


def test_qft_two_modes_single_photon():
    out = apply_qft(SparseState.basis((1, 0)), [0, 1])
    assert out.amplitude((1, 0)) == pytest.approx(INV_SQRT2, abs=1e-12)
    assert out.amplitude((0, 1)) == pytest.approx(INV_SQRT2, abs=1e-12)


def test_qft_two_modes_two_photons():
    # Both photons mixed: coincidence terms cancel, matching the
    # brute-force operator expansion.
    out = apply_qft(SparseState.basis((1, 1)), [0, 1])
    want = poly_two_mode_image((1, 1), qft_matrix(2))
    assert abs(out.amplitude((1, 1))) < 1e-12
    for occ in ((2, 0), (0, 2)):
        assert out.amplitude(occ) == pytest.approx(want[occ], abs=1e-12)
    assert out.amplitude((2, 0)) == pytest.approx(INV_SQRT2, abs=1e-12)
    assert out.amplitude((0, 2)) == pytest.approx(-INV_SQRT2, abs=1e-12)


def test_qft_unitarity_and_inverse():
    rng = random.Random(8)
    for size in (2, 3, 4):
        matrix = qft_matrix(size)
        inverse = [
            [matrix[m][l].conjugate() for m in range(size)] for l in range(size)
        ]
        for _ in range(20):
            s = random_state(rng, size, 3)
            out = apply_qft(s, list(range(size)))
            assert out.norm_squared() == pytest.approx(1.0, abs=1e-12)
            back = out.apply_linear_transform(list(range(size)), inverse)
            assert fidelity(back, s) >= 1 - 1e-12


# ----------------------------------------------------------------------
# single teleport
# ----------------------------------------------------------------------


def test_teleport_shape_check():
    with pytest.raises(ShapeMismatch):
        teleport(InputQubit.zero(), SparseState.basis((1, 0)), 2)


def test_teleport_refuses_an_off_pattern_ancilla(monkeypatch):
    # Run anyway, this ancilla gave 14 outcomes and a minimum fidelity of 0.881.
    n = 2
    terms = dict(direct_oracle_single(n, AmplitudeProfile.constant(n)).terms)
    terms[(1, 0, 0, 0)] = 0.3  # x holds j=1 but y holds no photon
    stray = SparseState(2 * n, terms)

    def no_transform(state, modes):
        raise AssertionError("the ancilla should be refused before any work")

    monkeypatch.setattr(teleport_module, "apply_qft", no_transform)
    with pytest.raises(ShapeMismatch, match="1 terms off the register patterns"):
        teleport(InputQubit.plus(), stray, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_teleport_outcome_completeness(n):
    outcomes = teleport(
        InputQubit.plus(), direct_oracle_single(n, AmplitudeProfile.constant(n)), n
    )
    assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_teleport_constant_failure_rate(n):
    ancilla = direct_oracle_single(n, AmplitudeProfile.constant(n))
    for qubit in (InputQubit.zero(), InputQubit.one(), InputQubit.plus()):
        outcomes = teleport(qubit, ancilla, n)
        assert failure_probability(outcomes) == pytest.approx(1.0 / (n + 1), abs=1e-12)


def test_teleport_zero_input_fails_only_at_k0():
    # With beta = 0 the only failing outcome is the all-empty count, and
    # its weight is f(0)^2 for any profile.
    profile = AmplitudeProfile.from_values([0.6, 0.5, 0.4, 0.2])
    ancilla = direct_oracle_single(3, profile)
    outcomes = teleport(InputQubit.zero(), ancilla, 3)
    failures = [o for o in outcomes if o.classification is Classification.FAILURE]
    assert len(failures) == 1
    assert failures[0].k == 0
    assert failures[0].probability == pytest.approx(profile.f[0] ** 2, abs=1e-12)


def test_teleport_n1_plus_failure_half():
    outcomes = teleport(
        InputQubit.plus(), direct_oracle_single(1, AmplitudeProfile.constant(1)), 1
    )
    assert failure_probability(outcomes) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_teleport_success_fidelity_random_qubits(n):
    rng = random.Random(600 + n)
    ancilla = direct_oracle_single(n, AmplitudeProfile.constant(n))
    for _ in range(20):
        qubit = random_qubit(rng)
        for o in teleport(qubit, ancilla, n):
            if o.classification is Classification.SUCCESS:
                assert o.fidelity >= 1 - 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_teleport_output_is_the_corrected_qubit(n):
    # Each success residual is one mode, holding the photon y mode k-1 held,
    # and is scored against the input qubit itself.  Through the constant
    # profile it is that qubit up to one global phase.
    rng = random.Random(3000 + n)
    for kind in ("constant", "signed", "zero-weight"):
        qubit = random_qubit(rng)
        ideal = qubit.state()
        ancilla = direct_oracle_single(n, profile_of(kind, n, rng))
        successes = [
            o for o in teleport(qubit, ancilla, n) if o.classification is Classification.SUCCESS
        ]
        assert successes
        for o in successes:
            out = o.output_state
            assert out.modes == 1
            assert set(out.terms) <= {(0,), (1,)}
            assert o.fidelity == fidelity(out, ideal)
            if kind == "constant":
                overlap = sum(a.conjugate() * out.amplitude(key) for key, a in ideal.terms.items())
                unit = overlap / abs(overlap)
                for key in ((0,), (1,)):
                    assert abs(out.amplitude(key) - unit * ideal.amplitude(key)) <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_feedforward_pure_phase_suffices(n):
    # Oracle: teleport |+> through the constant-profile register and read the
    # two output amplitudes of every success outcome.  Equal moduli mean a
    # pure phase suffices; that phase is arg c0 - arg c1.
    ancilla = direct_oracle_single(n, AmplitudeProfile.constant(n))
    state = apply_qft(InputQubit.plus().state().tensor(ancilla), list(range(n + 1)))
    table = feedforward_table(n)
    successes = 0
    for mo in state.measure(range(n + 1)):
        k = sum(mo.counts)
        if not 1 <= k <= n:
            continue
        rest = (1,) * (n - k)
        c0 = mo.residual.amplitude((0,) * k + rest)
        c1 = mo.residual.amplitude((0,) * (k - 1) + (1,) + rest)
        assert abs(c0) == pytest.approx(abs(c1), abs=1e-10)
        residue = sum(m * c for m, c in enumerate(mo.counts)) % (n + 1)
        gap = (table[residue] - (cmath.phase(c0) - cmath.phase(c1))) % (2 * math.pi)
        assert min(gap, 2 * math.pi - gap) <= 1e-12
        successes += 1
    assert successes  # at least one success outcome exists


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_teleport_corrects_before_its_one_measure(n, monkeypatch):
    # The benchmark's teleport span contract: one transform, one measure.
    # The transform's input is one term per photon total, at most n+2 on
    # the n+1 Fourier modes, and each success outcome gets its total's class
    # residual, one shared state per k, with no phase applied afterwards.
    transforms, measures = [], []
    qft, measure = teleport_module.apply_qft, SparseState.measure

    def counted_qft(state, modes):
        transforms.append((state.modes, len(state), list(modes)))
        return qft(state, modes)

    def counted_measure(self, modes):
        outcomes = measure(self, modes)
        measures.append(outcomes)
        return outcomes

    def no_phase(self, mode, phi):
        raise AssertionError("teleport corrects its terms before the measurement")

    monkeypatch.setattr(teleport_module, "apply_qft", counted_qft)
    monkeypatch.setattr(SparseState, "measure", counted_measure)
    monkeypatch.setattr(SparseState, "apply_phase", no_phase)
    # Equal moduli with alternating signs: every success total takes a sign
    # flip, and the corrected output is the qubit itself.
    profile = AmplitudeProfile.from_values([(-1) ** j for j in range(n + 1)])
    outcomes = teleport(InputQubit.of(0.6, 0.8j), direct_oracle_single(n, profile), n)
    assert transforms == [(n + 1, n + 2, list(range(n + 1)))]
    (measured,) = measures
    assert [(o.counts, o.probability) for o in outcomes] == [
        (mo.counts, mo.probability) for mo in measured
    ]
    successes = [o for o in outcomes if 1 <= o.k <= n]
    assert successes
    shared = {}
    for o in successes:
        assert o.output_state is shared.setdefault(o.k, o.output_state)
        assert o.fidelity >= 1 - 1e-12
    assert sorted(shared) == list(range(1, n + 1))


# ----------------------------------------------------------------------
# the feedforward: input shift against the per-output phase route
# ----------------------------------------------------------------------


def _fourier_residue(counts):
    """sum_m m * c_m modulo the number of Fourier modes."""
    return sum(map(operator.mul, range(len(counts)), counts)) % len(counts)


def reference_phase_feedforward(qubit, register, n, flips):
    """The feedforward as a phase after the transform: each success term
    holding the qubit's photon gains the unit factor of its counts' Fourier
    residue, negated where ``flips[k]``, one factor per residue per call;
    terms a factor rounds below the prune tolerance are dropped."""
    units = [fock._cis(phi) for phi in feedforward_table(n)]
    state = apply_qft(qubit.state().tensor(register), list(range(n + 1)))
    terms = dict(state.terms)
    for key, a in state.terms.items():
        counts = key[: n + 1]
        k = sum(counts)
        if 1 <= k <= n and key[n + k]:
            factor = units[_fourier_residue(counts)]
            a *= -factor if flips[k] else factor
            if abs(a) >= PRUNE_TOLERANCE:
                terms[key] = a + 0j
            else:
                del terms[key]
    return fock._state(state.modes, terms)


def register_classes(qubit, register, n, flips):
    """The package's class masses and residuals for ``qubit`` through the
    single register ``register``."""
    weights = [register.amplitude(single_register_pattern(n, j)) for j in range(n + 1)]
    return teleport_module._classes(qubit, weights, flips, n)


def test_feedforward_drops_terms_its_factors_round_below_the_prune_tolerance():
    # A register weight near 3e-12 at j=1 leaves success terms of the mixed
    # state just above PRUNE_TOLERANCE; a table phase can round one below.
    n, qubit = 2, InputQubit.plus()
    dropped = 0
    for ulps in range(8):
        weights = {single_register_pattern(n, j): 1.0 for j in range(n + 1)}
        weights[single_register_pattern(n, 1)] = 3e-12 * (1 - ulps * 2.0**-52)
        register = SparseState(2 * n, weights)
        mixed = apply_qft(qubit.state().tensor(register), list(range(n + 1)))
        corrected = reference_phase_feedforward(qubit, register, n, [0] * (n + 1))
        assert set(corrected.terms) <= set(mixed.terms)
        assert min(abs(a) for a in corrected.terms.values()) >= PRUNE_TOLERANCE
        dropped += len(mixed) - len(corrected)
        # The package's table forms no factor and leaves the prune to the
        # transform, as for any term.
        masses, _ = register_classes(qubit, register, n, [0] * (n + 1))
        table = teleport_module._fourier_table(masses, n)
        assert min(abs(a) for a in table.terms.values()) >= PRUNE_TOLERANCE
    assert dropped


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_feedforward_forms_one_unit_factor_per_fourier_residue(n, monkeypatch):
    # The reference route forms at most n+1 factors per call, however many
    # count patterns it corrects.  Each success term holding the qubit's
    # photon still gains its residue's factor, negated where flips[k], bit
    # for bit.
    rng = random.Random(100 + n)
    qubit = random_qubit(rng)
    signed = [rng.choice((-1, 1)) * rng.uniform(0.5, 1.5) for _ in range(n + 1)]
    register = direct_oracle_single(n, AmplitudeProfile.from_values(signed))
    flips = [0] + [rng.randint(0, 1) for _ in range(n)]
    table = feedforward_table(n)
    mixed = apply_qft(qubit.state().tensor(register), list(range(n + 1)))
    want = {}
    for key, a in mixed.terms.items():
        k = sum(key[: n + 1])
        if 1 <= k <= n and key[n + k]:
            factor = fock._cis(table[_fourier_residue(key[: n + 1])])
            a *= -factor if flips[k] else factor
        want[key] = a + 0j
    calls = []
    cis = fock._cis

    def counted_cis(phi):
        calls.append(phi)
        return cis(phi)

    monkeypatch.setattr(fock, "_cis", counted_cis)
    corrected = reference_phase_feedforward(qubit, register, n, flips)
    assert len(calls) <= n + 1
    assert exact_terms(corrected) == exact_terms(SparseState(2 * n + 1, want))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_feedforward_relabels_its_input_and_forms_no_phase(n, monkeypatch):
    # The shift moves the qubit's photon-holding term of each success total
    # k onto the Fourier pattern {1..k} of its empty term, so the transform
    # gets one term per total: at that pattern, with the norm of the mixed
    # input's terms of that total.  Each class residual is those terms'
    # amplitudes over that norm, keyed by the qubit photon b (mode 0 of the
    # mix), the photon-holding one negated where flips[k].  No unit factor
    # is formed.
    rng = random.Random(200 + n)
    qubit = random_qubit(rng)
    signed = [rng.choice((-1, 1)) * rng.uniform(0.5, 1.5) for _ in range(n + 1)]
    register = direct_oracle_single(n, AmplitudeProfile.from_values(signed))
    flips = [0] + [rng.randint(0, 1) for _ in range(n)]
    inputs = []
    qft = teleport_module.apply_qft

    def recorded_qft(state, modes):
        inputs.append(state)
        return qft(state, modes)

    def no_cis(phi):
        raise AssertionError("the feedforward forms no unit factor")

    monkeypatch.setattr(teleport_module, "apply_qft", recorded_qft)
    monkeypatch.setattr(fock, "_cis", no_cis)
    masses, residuals = register_classes(qubit, register, n, flips)
    teleport_module._fourier_table(masses, n)
    assert not hasattr(teleport_module, "_cis")
    (table_input,) = inputs
    assert table_input.modes == n + 1 and len(table_input) == n + 2
    classes = {}
    for key, a in qubit.state().tensor(register).terms.items():
        c, b = key[: n + 1], key[0]
        k = sum(c)
        if b and k <= n:
            c = c[n:] + c[:n]
            a = -a + 0j if flips[k] else a
        pattern, parts = classes.setdefault(k, (c, {}))
        assert c == pattern
        parts[(b,)] = a
    assert sorted(classes) == list(range(n + 2))
    for k, (pattern, parts) in classes.items():
        norm = math.sqrt(math.fsum(abs(a) ** 2 for a in parts.values()))
        assert abs(table_input.terms[pattern] - norm) <= 1e-15 * norm
        assert table_input.terms[pattern].imag == 0.0
        assert list(residuals[k].terms) == list(parts)
        for bits, a in parts.items():
            assert abs(residuals[k].terms[bits] - a / norm) <= 4e-16
    # A real qubit through flips at every k: the negated real amplitudes
    # keep a +0.0 imaginary part.
    _, residuals = register_classes(InputQubit.of(0.6, 0.8), register, n, [0] + [1] * n)
    parts = [x for r in residuals for a in r.terms.values() for x in (a.real, a.imag)]
    assert all(math.copysign(1.0, x) > 0 for x in parts if x == 0)


def reference_teleport(qubit, ancilla, n, phase_after=False):
    """``teleport`` with the qubit photon b carried through the Fourier
    layer, as the package did before it factored b out.

    The mix qubit (x) ancilla keeps of each term its Fourier counts c and b
    (its mode 0), keyed c + (b,) on n+2 modes, and the feedforward is the
    input shift: a term holding the qubit's photon at a total k <= n has
    its counts moved one mode up, cyclically, and is negated where the
    profile's sign flips.  With ``phase_after`` it is instead the per-output
    phase route, ``reference_phase_feedforward``, whose keys c + y are
    relabelled c + (b,), b = k - j with j = n - |y| the register weight.
    Each success outcome keeps its measured residual."""
    weights = [ancilla.amplitude(single_register_pattern(n, j)) for j in range(n + 1)]
    flips = _sign_flips(weights)
    terms = {}
    if phase_after:
        for key, a in reference_phase_feedforward(qubit, ancilla, n, flips).terms.items():
            c, y = key[: n + 1], key[n + 1 :]
            terms[c + (sum(c) - (n - sum(y)),)] = a
        mixed = fock._state(n + 2, terms)
    else:
        for key, a in qubit.state().tensor(ancilla).terms.items():
            c, b = key[: n + 1], key[0]
            k = sum(c)
            if b and k <= n:
                c = c[n:] + c[:n]
                if flips[k]:
                    a = -a + 0j
            terms[c + (b,)] = a
        mixed = apply_qft(fock._state(n + 2, terms), list(range(n + 1)))
    ideal = qubit.state()
    outcomes = []
    for counts, prob, residual in mixed.measure(range(n + 1)):
        k = sum(counts)
        if 1 <= k <= n:
            row = (counts, k, prob, Classification.SUCCESS, residual, fidelity(residual, ideal))
        else:
            row = (counts, k, prob, Classification.FAILURE, None, None)
        outcomes.append(TeleportOutcome(*row))
    return outcomes


def profile_of(kind, n, rng):
    values = [rng.uniform(0.1, 1.0) for _ in range(n + 1)]
    if kind == "constant":
        values = [1.0] * (n + 1)
    elif kind == "signed":
        values = [v * rng.choice((-1, 1)) for v in values]
    elif kind == "zero-weight":
        values[rng.randrange(n + 1)] = 0.0
    return AmplitudeProfile.from_values(values)


def global_phase(got, want):
    """The unit factor that turns ``got`` most nearly into ``want``."""
    overlap = sum(a.conjugate() * want.amplitude(key) for key, a in got.terms.items())
    return overlap / abs(overlap)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_input_shift_matches_the_phase_route(n):
    # Same outcomes in the same order, every probability within 1e-13 of the
    # phase route's, and each residual that route's up to a global phase
    # (the Fourier amplitude's own, which the class residual does not carry)
    # with the same keys.  The residual amplitudes are compared before their
    # normalization, as amp * sqrt(p): the phase route's rounding, 1e-16 on
    # the mixed state, grows by 1/sqrt(p) on a faint outcome (2.9e-13 at n=6
    # normalized).
    rng = random.Random(300 + n)
    for kind in ("constant", "random", "signed", "zero-weight"):
        ancilla = direct_oracle_single(n, profile_of(kind, n, rng))
        qubit = random_qubit(rng)
        got = teleport(qubit, ancilla, n)
        want = reference_teleport(qubit, ancilla, n, phase_after=True)
        assert [(o.counts, o.k, o.classification) for o in got] == [
            (o.counts, o.k, o.classification) for o in want
        ]
        for a, b in zip(got, want):
            assert abs(a.probability - b.probability) <= 1e-13
            if a.output_state is None:
                assert b.output_state is None
                continue
            assert list(a.output_state.terms) == list(b.output_state.terms)
            unit = global_phase(a.output_state, b.output_state)
            root = math.sqrt(a.probability)
            for key, amp in a.output_state.terms.items():
                assert abs(amp * unit - b.output_state.terms[key]) * root <= 1e-15


QUBIT_KINDS = ("zero", "one", "random")


def qubit_of(kind, rng):
    """|0>, |1> or a random qubit."""
    if kind == "random":
        return random_qubit(rng)
    return InputQubit.zero() if kind == "zero" else InputQubit.one()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_teleport_matches_the_shifted_input_route(n):
    # The qubit photon carried through the transform against the package's
    # table of one term per photon total: the same outcomes in the same
    # order, and every probability, fidelity and output within rounding.
    # The largest gaps seen were 6.9e-17 per probability, 1.3e-15 per
    # fidelity and 8.9e-16 off a fidelity of 1 between the two outputs.
    # The routes part only where an outcome's qubit-photon parts each fall
    # below the prune tolerance, which the next test pins.
    rng = random.Random(3100 + n)
    for kind in ("constant", "signed", "zero-weight", "random"):
        ancilla = direct_oracle_single(n, profile_of(kind, n, rng))
        for qubit_kind in QUBIT_KINDS:
            qubit = qubit_of(qubit_kind, rng)
            got = teleport(qubit, ancilla, n)
            want = reference_teleport(qubit, ancilla, n)
            assert [o.counts for o in got] == [o.counts for o in want]
            for a, b in zip(got, want):
                assert (a.k, a.classification) == (b.k, b.classification)
                assert abs(a.probability - b.probability) <= 1e-14
                if a.output_state is None:
                    assert b.output_state is None
                    continue
                assert abs(a.fidelity - b.fidelity) <= 1e-14
                assert fidelity(a.output_state, b.output_state) >= 1 - 1e-13


def test_teleport_prunes_an_outcome_on_its_whole_amplitude():
    # The table prunes an outcome on |T(c)| |v_k|, the whole amplitude of
    # its class, where the shifted-input route pruned each qubit-photon part
    # T(c) v_k(b) on its own.  At n=1 with f = (e, 1) and the qubit (e, 1),
    # class k=1 holds v_1 = (e, e): each part of its two outcomes is
    # e/sqrt(2), below the tolerance, and together they reach e.  The
    # package keeps both outcomes, of probability |T(c)|^2 |v_1|^2 = e^2;
    # the reference drops them.  Every other outcome is the same.
    e = 1.13e-12
    assert e / math.sqrt(2) < PRUNE_TOLERANCE <= e
    ancilla = direct_oracle_single(1, AmplitudeProfile.from_values([e, 1.0]))
    qubit = InputQubit.of(e, 1.0)
    got = teleport(qubit, ancilla, 1)
    want = reference_teleport(qubit, ancilla, 1)
    faint = [o for o in got if o.k == 1]
    assert [o.counts for o in faint] == [(0, 1), (1, 0)]
    for o in faint:
        assert o.classification is Classification.SUCCESS
        assert math.isclose(o.probability, e**2, rel_tol=1e-12)
    rest = [o for o in got if o.k != 1]
    assert [o.counts for o in rest] == [o.counts for o in want] == [(0, 2), (2, 0)]
    for a, b in zip(rest, want):
        assert abs(a.probability - b.probability) <= 1e-14


def test_teleport_forms_no_residual_for_a_class_at_the_prune_floor():
    # |0> through f = (PRUNE_TOLERANCE, 1): class k=0 holds the one part
    # alpha f(0), whose mass is the floor at which ``normalized`` refuses a
    # state.  The class gets no residual, and its one outcome, the vacuum,
    # has that mass as its probability, which ``measure`` counts as zero.
    weights = [PRUNE_TOLERANCE, 1.0]
    ancilla = SparseState(2, {single_register_pattern(1, j): w for j, w in enumerate(weights)})
    outcomes = teleport(InputQubit.zero(), ancilla, 1)
    assert [(o.counts, o.k) for o in outcomes] == [((0, 1), 1), ((1, 0), 1)]
    assert all(o.fidelity == 1.0 for o in outcomes)


def closed_form_fidelity(qubit, f_k, f_km1):
    """(|a|^2 |f(k)| + |b|^2 |f(k-1)|)^2 / (|a f(k)|^2 + |b f(k-1)|^2): the
    corrected residual is a |f(k)| |0> + b |f(k-1)| |1> up to a global phase."""
    a2, b2 = abs(qubit.alpha) ** 2, abs(qubit.beta) ** 2
    f0, f1 = abs(f_k), abs(f_km1)
    return (a2 * f0 + b2 * f1) ** 2 / (a2 * f0 * f0 + b2 * f1 * f1)


# Over 12 random signed profiles and qubits per n (4 at n=8), the phase
# route missed the closed form by up to 5.6e-14 at n=6 and 1.0e-12 at n=8:
# its float factor rounds into every corrected amplitude.  The input shift
# stayed within 1.1e-15 at every n in 1..8.
CLOSED_FORM_GAP = 4e-15


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_success_fidelities_match_the_closed_form(n):
    rng = random.Random(500 + n)
    for _ in range(2 if n == 8 else 4):
        values = [rng.choice((-1, 1)) * rng.uniform(0.1, 1.0) for _ in range(n + 1)]
        ancilla = direct_oracle_single(n, AmplitudeProfile.from_values(values))
        qubit = random_qubit(rng)
        successes = 0
        for o in teleport(qubit, ancilla, n):
            if o.classification is Classification.SUCCESS:
                want = closed_form_fidelity(qubit, values[o.k], values[o.k - 1])
                assert abs(o.fidelity - want) <= CLOSED_FORM_GAP
                successes += 1
        assert successes


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_outcome_estimate_bounds_the_teleport_outcomes(n):
    ancilla = direct_oracle_single(n, AmplitudeProfile.constant(n))
    assert len(teleport(InputQubit.plus(), ancilla, n)) <= outcome_estimate(n)
    assert outcome_estimate(n) == math.comb(2 * n + 2, n + 1)


def test_outcome_guard_sits_between_the_largest_admitted_sizes_and_the_next():
    assert outcome_estimate(10) <= OUTCOMES_GUARD < outcome_estimate(11)
    assert outcome_estimate(5) ** 2 <= OUTCOMES_GUARD < outcome_estimate(6) ** 2


def test_outcome_guard_refuses_before_any_work():
    with pytest.raises(InfeasibleParameters) as err:
        teleport(InputQubit.plus(), direct_oracle_single(11, AmplitudeProfile.constant(11)), 11)
    assert err.value.estimate == outcome_estimate(11) == 2704156
    pair = direct_oracle_pair(6, AmplitudeProfile.constant(6))
    with pytest.raises(InfeasibleParameters) as err:
        cz_via_double_teleportation(InputQubit.plus(), InputQubit.plus(), pair, 6)
    assert err.value.estimate == outcome_estimate(6) ** 2 == 11778624


# ----------------------------------------------------------------------
# double-teleport controlled sign
# ----------------------------------------------------------------------


def test_cz_shape_check():
    with pytest.raises(ShapeMismatch):
        cz_via_double_teleportation(
            InputQubit.zero(), InputQubit.zero(), SparseState.basis((1, 0)), 1
        )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cz_failure_rate_and_scaling(n):
    # The totals come from each side's mass per register weight, not from
    # summing up to 15 625 branches, so they stay within a few ulp.
    ancilla = direct_oracle_pair(n, AmplitudeProfile.constant(n))
    rng = random.Random(1600 + n)
    pairs = [(InputQubit.plus(), InputQubit.plus()), (InputQubit.one(), InputQubit.zero())]
    pairs.append((random_qubit(rng), random_qubit(rng)))
    expected_failure = 1.0 - (n / (n + 1)) ** 2
    for qa, qb in pairs:
        result = cz_via_double_teleportation(qa, qb, ancilla, n)
        assert abs(result.success_probability - (n / (n + 1)) ** 2) <= 2e-15
        assert abs(result.failure_probability - expected_failure) <= 2e-15
    # Leading term of the expansion is 2/(n+1).
    assert abs(expected_failure - 2.0 / (n + 1)) <= 1.0 / (n + 1) ** 2 + 1e-12


def test_cz_truth_table_n2():
    ancilla = direct_oracle_pair(2, AmplitudeProfile.constant(2))
    basis = [InputQubit.zero(), InputQubit.one()]
    for a in (0, 1):
        for b in (0, 1):
            result = cz_via_double_teleportation(basis[a], basis[b], ancilla, 2)
            assert result.min_fidelity >= 1 - 1e-10
            out = result.output_qubits
            assert abs(out.amplitude((a, b))) == pytest.approx(1.0, abs=1e-10)


def test_cz_control_empty_leaves_no_sign():
    # q = |0>: the post-selected output is the untouched product state.
    ancilla = direct_oracle_pair(2, AmplitudeProfile.constant(2))
    target = InputQubit.of(0.6, 0.8)
    result = cz_via_double_teleportation(InputQubit.zero(), target, ancilla, 2)
    ideal = SparseState(2, {(0, 0): target.alpha, (0, 1): target.beta})
    assert fidelity(result.output_qubits, ideal) >= 1 - 1e-10


def test_cz_one_one_input_gets_the_sign():
    # |1,1> input: post-selected output is the sign-flipped |1,1>, i.e.
    # fidelity 1 against the controlled-sign image.
    ancilla = direct_oracle_pair(2, AmplitudeProfile.constant(2))
    result = cz_via_double_teleportation(InputQubit.one(), InputQubit.one(), ancilla, 2)
    assert result.min_fidelity >= 1 - 1e-10
    assert abs(result.output_qubits.amplitude((1, 1))) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cz_random_product_inputs(n):
    rng = random.Random(900 + n)
    ancilla = direct_oracle_pair(n, AmplitudeProfile.constant(n))
    for _ in range(5):
        qa, qb = random_qubit(rng), random_qubit(rng)
        result = cz_via_double_teleportation(qa, qb, ancilla, n)
        assert result.min_fidelity >= 1 - 1e-10
        assert result.success_probability == pytest.approx(
            (n / (n + 1)) ** 2, abs=1e-12
        )
        ideal = SparseState(
            2,
            {
                (0, 0): qa.alpha * qb.alpha,
                (0, 1): qa.alpha * qb.beta,
                (1, 0): qa.beta * qb.alpha,
                (1, 1): -qa.beta * qb.beta,
            },
        )
        assert fidelity(result.output_qubits, ideal) >= 1 - 1e-10


# Profiles whose weights change sign between neighbouring totals k-1, k.
SIGNED_PROFILES = [[1, -1, 1], [1, 2, -1, 1], [0.5, -1, 0.3, -0.2, 0.9]]


def moduli_twin(values):
    """The signed profile and the profile of its moduli."""
    return (
        AmplitudeProfile.from_values(values),
        AmplitudeProfile.from_values([abs(v) for v in values]),
    )


@pytest.mark.parametrize("values", SIGNED_PROFILES)
def test_signed_profile_teleports_like_its_moduli(values):
    # The feedforward negates where f(k) f(k-1) < 0, so a signed profile
    # teleports every outcome with the fidelity of its |f| profile.  Each
    # output term comes from one ancilla term, and the negation is exact, so
    # every corrected residual is its twin's up to an exact global sign and
    # every probability and fidelity is bit for bit the same.
    n = len(values) - 1
    signed, moduli = moduli_twin(values)
    rng = random.Random(40 + n)
    for _ in range(4):
        q = random_qubit(rng)
        got = teleport(q, direct_oracle_single(n, signed), n)
        want = teleport(q, direct_oracle_single(n, moduli), n)
        assert [(o.counts, o.probability, o.fidelity) for o in got] == [
            (o.counts, o.probability, o.fidelity) for o in want
        ]


# The last two have f(n) = 0: their signs must be read off the row of the
# largest diagonal weight, not off row n.
@pytest.mark.parametrize(
    "values",
    [[1, -1, 1], [1, 2, -1, 1], [0.5, -1, 0.3, -0.2], [1, -1, 0], [0.5, -1, 0.3, 0]],
)
def test_signed_profile_cz_like_its_moduli(values):
    n = len(values) - 1
    signed, moduli = moduli_twin(values)
    rng = random.Random(50 + n)
    pairs = [(InputQubit.plus(), InputQubit.plus())]
    pairs += [(random_qubit(rng), random_qubit(rng)) for _ in range(3)]
    for qa, qb in pairs:
        got = cz_via_double_teleportation(qa, qb, direct_oracle_pair(n, signed), n)
        want = cz_via_double_teleportation(qa, qb, direct_oracle_pair(n, moduli), n)
        assert [b.counts for b in got.branches] == [b.counts for b in want.branches]
        for a, b in zip(got.branches, want.branches):
            assert a.probability == pytest.approx(b.probability, abs=1e-12)
            assert abs(a.fidelity - b.fidelity) <= 1e-12


# sha256 of every output of the sweep below: the totals, the smallest
# fidelity, every branch in order and the output's terms in dict order.
CZ_SWEEP_DIGEST = "282ef6205ef5006d122ff3f0386fb0465c59627ec1e166beaa19848e68c438b9"


def test_cz_outputs_match_their_pinned_digest():
    # n = 1..4: oracle pairs of constant, signed and random profiles, and
    # parity-built pairs of the two non-negative ones (the transfers realize
    # no signed weight), each with two random and two basis qubit pairs.
    rng = random.Random(2800)
    zero, one = InputQubit.zero(), InputQubit.one()
    basis = [(zero, zero), (zero, one), (one, zero), (one, one)]
    results = []
    for n in (1, 2, 3, 4):
        pairs = []
        for kind in ("constant", "signed", "random"):
            values = [1.0] * (n + 1)
            if kind != "constant":
                values = [rng.uniform(0.1, 1.0) for _ in range(n + 1)]
            if kind == "signed":
                values = [v * rng.choice((-1, 1)) for v in values]
                values[0], values[1] = abs(values[0]), -abs(values[1])
            profile = AmplitudeProfile.from_values(values)
            pairs.append(direct_oracle_pair(n, profile))
            if kind != "signed":
                pairs.append(build_entangled_pair(n, profile, PhaseMethod.PARITY_ANCILLA))
        for a, pair in enumerate(pairs):
            qubits = [(random_qubit(rng), random_qubit(rng)) for _ in range(2)]
            for qa, qb in qubits + [basis[2 * a % 4], basis[(2 * a + 1) % 4]]:
                r = cz_via_double_teleportation(qa, qb, pair, n)
                out = None if r.output_qubits is None else exact_terms(r.output_qubits)
                results.append(
                    (r.success_probability, r.failure_probability, r.min_fidelity, r.branches, out)
                )
    assert len(results) == 80
    assert digest(results) == CZ_SWEEP_DIGEST


def test_cz_through_an_empty_pair_keeps_no_branch():
    # n = 0: each side's one total k = 0 fails, so nothing is kept.  The
    # failure total is the product of the two sides' class masses,
    # |alpha|^2 + |beta|^2 = 1 - 2 ulp each for |+>, so 1 - 4 ulp.
    result = cz_via_double_teleportation(
        InputQubit.plus(), InputQubit.plus(), SparseState(0, {(): 1.0}), 0
    )
    assert result.success_probability == 0.0
    assert result.failure_probability == 0.9999999999999996
    assert result.min_fidelity is None and result.output_qubits is None
    assert result.branches == ()


def test_cz_skips_a_branch_whose_pair_sits_at_the_prune_floor():
    # n = 1, |0>|0>: the one success branch (1, 1) carries u = w(1, 1), here
    # exactly PRUNE_TOLERANCE, so |u|^2 is the floor at which ``normalized``
    # refuses a state.  Its joint terms, a a' |u| = |u|/2, fall below the
    # tolerance, so the branch keeps no term and no residual is formed; the
    # success total still counts its mass.
    weights = {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): PRUNE_TOLERANCE}
    ancilla = SparseState(4, {pair_pattern(1, j, jp): w for (j, jp), w in weights.items()})
    result = cz_via_double_teleportation(InputQubit.zero(), InputQubit.zero(), ancilla, 1)
    assert result.branches == ()
    assert result.min_fidelity is None and result.output_qubits is None
    assert result.success_probability == PRUNE_TOLERANCE**2
    assert result.failure_probability == 3.0


def test_success_plus_failure_is_one():
    ancilla = direct_oracle_single(2, AmplitudeProfile.constant(2))
    outcomes = teleport(InputQubit.plus(), ancilla, 2)
    assert success_probability(outcomes) + failure_probability(outcomes) == pytest.approx(
        1.0, abs=1e-9
    )


def test_cz_without_failing_branches_reports_zero_failure():
    # f = (0, 1, 0): both sides always carry one photon, so no branch fails.
    # The failure probability is summed over failing branches, not taken as
    # 1 - success, which rounds to a few negative ulp here.
    ancilla = direct_oracle_pair(2, AmplitudeProfile.from_values([0, 1, 0]))
    basis = [InputQubit.zero(), InputQubit.one()]
    for qa in basis:
        for qb in basis:
            result = cz_via_double_teleportation(qa, qb, ancilla, 2)
            assert result.failure_probability == 0.0
            assert result.success_probability + result.failure_probability == pytest.approx(
                1.0, abs=1e-9
            )


def test_outcome_records_are_named_tuples():
    n = 2
    profile = AmplitudeProfile.constant(n)
    outcome = teleport(InputQubit.plus(), direct_oracle_single(n, profile), n)[0]
    cz = cz_via_double_teleportation(
        InputQubit.plus(), InputQubit.one(), direct_oracle_pair(n, profile), n
    )
    measured = SparseState.basis((1, 0)).measure([0])[0]
    for record, fields in [
        (measured, ("counts", "probability", "residual")),
        (outcome, ("counts", "k", "probability", "classification", "output_state", "fidelity")),
        (cz.branches[0], ("counts", "k", "kp", "probability", "fidelity")),
    ]:
        assert record._fields == fields
        assert tuple(record) == tuple(getattr(record, f) for f in fields)
        assert repr(record).startswith(f"{type(record).__name__}(counts={record.counts!r}, ")
        with pytest.raises(AttributeError):
            record.counts = ()


# ----------------------------------------------------------------------
# the CZ's per-side transforms against the full-state route
# ----------------------------------------------------------------------


def _ideal_residual(qubit, n, k):
    """The qubit teleported to slot k (1-based) of the y register: its 0 and 1
    ride on the y halves of the register patterns of weights k and k-1, which
    differ only at y mode k-1."""
    zero = single_register_pattern(n, k)[n:]
    one = single_register_pattern(n, k - 1)[n:]
    return SparseState(n, {zero: qubit.alpha, one: qubit.beta})


def _ideal_cz_residual(q, qp, n, k, kp):
    # The controlled sign negates the term holding both photons.
    joint = _ideal_residual(q, n, k).tensor(_ideal_residual(qp, n, kp))
    return _negated(joint, [occ for occ in joint.terms if occ[k - 1] and occ[n + kp - 1]])


def reference_joint_state_cz(q, qp, ancilla_pair, n, output_counts=None):
    """The CZ as it was before each side got its own modes: both Fourier
    transforms on the whole (4n+2)-mode state, two phases per branch.  The
    output is the residual of the branch measured as ``output_counts``, by
    default the likeliest one."""
    full = q.state().tensor(qp.state()).tensor(ancilla_pair)
    side1 = [0] + list(range(2, n + 2))
    side2 = [1] + list(range(2 * n + 2, 3 * n + 2))
    full = apply_qft(full, side1)
    full = apply_qft(full, side2)
    table = feedforward_table(n)
    row = max(range(n + 1), key=lambda j: abs(ancilla_pair.amplitude(pair_pattern(n, j, j))))
    flips = _sign_flips(
        [ancilla_pair.amplitude(pair_pattern(n, j, row)) * (-1) ** (j * row) for j in range(n + 1)]
    )
    failed = []
    branches = []
    best = None
    for mo in full.measure(side1 + side2):
        c1, c2 = mo.counts[: n + 1], mo.counts[n + 1 :]
        k, kp = sum(c1), sum(c2)
        if not (1 <= k <= n and 1 <= kp <= n):
            failed.append(mo.probability)
            continue
        phi1 = table[_fourier_residue(c1)] + math.pi * ((kp + flips[k]) % 2)
        phi2 = table[_fourier_residue(c2)] + math.pi * ((k + flips[kp]) % 2)
        corrected = mo.residual.apply_phase(k - 1, phi1).apply_phase(n + kp - 1, phi2)
        fid = fidelity(corrected, _ideal_cz_residual(q, qp, n, k, kp))
        branches.append(CzBranch(mo.counts, k, kp, mo.probability, fid))
        if output_counts is None:
            if best is None or mo.probability > best[0]:
                best = (mo.probability, corrected, k, kp)
        elif mo.counts == output_counts:
            best = (mo.probability, corrected, k, kp)
    output = None
    if best is not None:
        _, corrected, k, kp = best
        output = corrected.drop_modes(
            m for m in range(2 * n) if m not in (k - 1, n + kp - 1)
        ).normalized()
    # Correctly rounded totals, so the comparison measures the route under
    # test rather than this sum's own rounding.
    return CzGateResult(
        math.fsum(b.probability for b in branches),
        math.fsum(failed),
        min((b.fidelity for b in branches), default=None),
        output,
        tuple(branches),
    )


def pair_of(kind, n, rng):
    """An oracle pair ancilla: constant, random, signed or zero-weight
    profile, or two different random profiles on the two register pairs."""
    if kind == "constant":
        return direct_oracle_pair(n, AmplitudeProfile.constant(n))
    values = [rng.uniform(0.1, 1.0) for _ in range(n + 1)]
    if kind == "zero-weight":
        values[rng.randrange(n + 1)] = 0.0
    if kind == "signed":
        values = [v * rng.choice((-1, 1)) for v in values]
        values[0], values[1] = abs(values[0]), -abs(values[1])  # a sign change at k=1
    if kind == "asymmetric":
        other = [rng.uniform(0.1, 1.0) for _ in range(n + 1)]
        terms = {
            pair_pattern(n, j, jp): values[j] * other[jp] * (-1) ** (j * jp)
            for j in range(n + 1)
            for jp in range(n + 1)
        }
        return SparseState(4 * n, terms).normalized()
    return direct_oracle_pair(n, AmplitudeProfile.from_values(values))


# The two routes round differently: a branch's probability is
# |a a' u|^2 from the two tables and the class residuals where the
# full-state route multiplied w through both transforms, and the totals come
# from the sides' masses per weight where the full-state route sums its
# outcomes.  Over the cases below the largest gaps were 5.6e-17 per branch
# probability, 1.3e-15 per fidelity, 8.9e-16 on a success or failure total
# and 4.4e-16 off a fidelity of 1 between the two outputs.
BRANCH_PROBABILITY_GAP = 1e-15
FIDELITY_GAP = 2e-15
TOTAL_GAP = 1e-15
BASIS_PAIRS = [(a, b) for a in ("zero", "one") for b in ("zero", "one")]


@pytest.mark.parametrize(
    "n, kind",
    [(n, kind) for n in (1, 2, 3) for kind in ("constant", "random", "signed", "asymmetric")]
    + [(4, "signed")]
    + [(n, "zero-weight") for n in (1, 2, 3, 4)]
    + [(4, "constant"), (4, "random")],
)
def test_cz_matches_the_joint_state_route(n, kind):
    # Each case runs the pair |+>|+>, a random qubit pair and a basis pair.
    # The package's output is the residual of its likeliest branch, compared
    # with that branch's on the full-state route: on a near tie the two
    # routes' likeliest branches may differ by an ulp.
    rng = random.Random(1400 + 10 * n + len(kind))
    ancilla = pair_of(kind, n, rng)
    pairs = [(InputQubit.plus(), InputQubit.plus()), (random_qubit(rng), random_qubit(rng))]
    pairs.append(tuple(qubit_of(b, rng) for b in rng.choice(BASIS_PAIRS)))
    for qa, qb in pairs:
        got = cz_via_double_teleportation(qa, qb, ancilla, n)
        likeliest = max(got.branches, key=lambda b: b.probability, default=None)
        want = reference_joint_state_cz(qa, qb, ancilla, n, likeliest and likeliest.counts)
        assert [(b.counts, b.k, b.kp) for b in got.branches] == [
            (b.counts, b.k, b.kp) for b in want.branches
        ]
        for a, b in zip(got.branches, want.branches):
            assert abs(a.probability - b.probability) <= BRANCH_PROBABILITY_GAP
            assert abs(a.fidelity - b.fidelity) <= FIDELITY_GAP
        assert abs(got.success_probability - want.success_probability) <= TOTAL_GAP
        assert abs(got.failure_probability - want.failure_probability) <= TOTAL_GAP
        kept = math.fsum(b.probability for b in got.branches)
        assert abs(kept - got.success_probability) <= 1e-12
        if likeliest is None:
            assert got.min_fidelity is got.output_qubits is want.output_qubits is None
            continue
        assert abs(got.min_fidelity - want.min_fidelity) <= FIDELITY_GAP
        assert fidelity(got.output_qubits, want.output_qubits) >= 1 - 1e-13


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cz_mixes_each_side_on_its_own_modes(n, monkeypatch):
    # The benchmark's czgate span contract: two transforms, one measure.
    # Each side's table holds one term per photon total on its n+1 Fourier
    # modes.  Only success terms are joined, one joint term per kept branch,
    # already corrected, and no phase is applied afterwards.
    transforms, measures = [], []
    qft, measure = teleport_module.apply_qft, SparseState.measure

    def counted_qft(state, modes):
        transforms.append((state.modes, len(state), list(modes)))
        return qft(state, modes)

    def counted_measure(self, modes):
        outcomes = measure(self, modes)
        measures.append((self, outcomes))
        return outcomes

    def no_phase(self, mode, phi):
        raise AssertionError("the CZ corrects its sides before the join")

    monkeypatch.setattr(teleport_module, "apply_qft", counted_qft)
    monkeypatch.setattr(SparseState, "measure", counted_measure)
    monkeypatch.setattr(SparseState, "apply_phase", no_phase)
    ancilla = direct_oracle_pair(n, AmplitudeProfile.constant(n))
    result = cz_via_double_teleportation(InputQubit.plus(), InputQubit.of(0.6, 0.8j), ancilla, n)
    side = (n + 1, n + 2, list(range(n + 1)))
    assert transforms == [side, side]
    # Modes [c, c']: the Fourier counts of both sides, all measured, so the
    # measured residuals keep no mode.
    assert [joint.modes for joint, _ in measures] == [2 * n + 2]
    ((joint, outcomes),) = measures
    totals = {(sum(key[: n + 1]), sum(key[n + 1 :])) for key in joint.terms}
    assert totals == {(k, kp) for k in range(1, n + 1) for kp in range(1, n + 1)}
    assert len(joint) == len(outcomes) == len(result.branches)
    assert {key for o in outcomes for key in o.residual.terms} == {()}
    assert [(b.counts, b.probability) for b in result.branches] == [
        (o.counts, o.probability) for o in outcomes
    ]


def test_measure_hands_out_one_tuple_per_residual_key(monkeypatch):
    # Equal residual keys are one tuple across all of a measure's outcomes,
    # on an n=4 teleport's Fourier state keyed c + (b,) and on an n=2 CZ's
    # whole state, both from the reference routes (the package measures
    # every mode it keeps).
    measures = []
    measure = SparseState.measure

    def recorded(self, modes):
        outcomes = measure(self, modes)
        measures.append(outcomes)
        return outcomes

    monkeypatch.setattr(SparseState, "measure", recorded)
    rng = random.Random(2900)
    reference_teleport(random_qubit(rng), direct_oracle_single(4, profile_of("signed", 4, rng)), 4)
    pair = direct_oracle_pair(2, profile_of("signed", 2, rng))
    reference_joint_state_cz(random_qubit(rng), random_qubit(rng), pair, 2)
    assert len(measures) == 2
    for outcomes in measures:
        keys = [key for o in outcomes for key in o.residual.terms]
        assert len(keys) > len(set(keys))  # the outcomes repeat their keys
        assert len({id(key) for key in keys}) == len(set(keys))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_fourier_inputs_hold_one_term_per_class(n, monkeypatch):
    # The transform writes each product once, with no faint-key pass, only
    # when every input term is alone in its class (its photon total on the
    # Fourier modes and its other counts); that holds for the teleport's and
    # both CZ sides' inputs, one term per photon total, at most n+2.  The
    # transform is stubbed out and the size guard lifted, so the CZ runs at
    # n=6..8 too, in no time.
    inputs = []

    def captured_qft(state, modes):
        inputs.append((state, list(modes)))
        return SparseState(state.modes)

    monkeypatch.setattr(teleport_module, "apply_qft", captured_qft)
    monkeypatch.setattr(teleport_module, "_check_cost", lambda n, sides: None)
    rng = random.Random(2700 + n)
    for kind in ("constant", "signed", "zero-weight"):
        profile = profile_of(kind, n, rng)
        teleport(random_qubit(rng), direct_oracle_single(n, profile), n)
        pair = direct_oracle_pair(n, profile)
        cz_via_double_teleportation(random_qubit(rng), random_qubit(rng), pair, n)
    assert len(inputs) == 9
    for state, modes in inputs:
        assert modes == list(range(n + 1))
        classes = {(sum(key[: n + 1]), key[n + 1 :]) for key in state.terms}
        assert n < len(classes) == len(state) <= n + 2


def test_cz_refuses_an_off_pattern_ancilla(monkeypatch):
    n = 2
    terms = dict(direct_oracle_pair(n, AmplitudeProfile.constant(n)).terms)
    terms[(1, 0, 0, 0) + (1, 1, 0, 0)] = 0.1  # x holds j=1 but y holds j=2
    stray = SparseState(4 * n, terms)

    def no_transform(state, modes):
        raise AssertionError("the ancilla should be refused before any work")

    monkeypatch.setattr(teleport_module, "apply_qft", no_transform)
    with pytest.raises(ShapeMismatch, match="1 terms off the register patterns"):
        cz_via_double_teleportation(InputQubit.plus(), InputQubit.plus(), stray, n)


def test_cz_refuses_an_ancilla_past_the_float_range_as_before(monkeypatch):
    # Unnormalized weights of 1e200: an outcome's norm^2 overflows on both routes.
    n = 1
    big = SparseState(4 * n, {pair_pattern(n, j, jp): 1e200 for j in (0, 1) for jp in (0, 1)})
    for route in (cz_via_double_teleportation, reference_joint_state_cz):
        with pytest.raises(InvalidState, match="past the float range"):
            route(InputQubit.plus(), InputQubit.plus(), big, n)
    # Complex weights near 1e308, whose modulus passes the float range: the
    # full-state route refuses inside its transforms.
    n = 2
    w = complex(1e308, -1e308)
    huge = SparseState(4 * n, {pair_pattern(n, j, jp): w for j in range(3) for jp in range(3)})
    with pytest.raises(InvalidState, match="non-finite amplitude"):
        reference_joint_state_cz(InputQubit.plus(), InputQubit.of(0.6, 0.8j), huge, n)
    # Weights of 1e154 have a finite |w|^2, 1e308, but their totals overflow.
    edge = SparseState(4, {pair_pattern(1, j, jp): 1e154 for j in (0, 1) for jp in (0, 1)})

    # The package refuses all three up front, before either transform: the
    # first two on |w|^2, the third on the totals of the class masses.
    def no_transform(state, modes):
        raise AssertionError("the ancilla should be refused before any work")

    monkeypatch.setattr(teleport_module, "apply_qft", no_transform)
    for pair, n, qb in ((big, 1, InputQubit.plus()), (huge, 2, InputQubit.of(0.6, 0.8j))):
        with pytest.raises(InvalidState, match=r"weights have a \|w\|\^2 past the float range"):
            cz_via_double_teleportation(InputQubit.plus(), qb, pair, n)
    with pytest.raises(InvalidState, match=r"give a norm\^2 past the float range"):
        cz_via_double_teleportation(InputQubit.plus(), InputQubit.plus(), edge, 1)


def test_teleport_refuses_a_class_mass_past_the_float_range(monkeypatch):
    # Unnormalized weights of 1e200: a class mass |alpha f(k)|^2 overflows,
    # and the outcomes' norm^2 with it on the reference route.
    n = 2
    big = SparseState(2 * n, {single_register_pattern(n, j): 1e200 for j in range(n + 1)})
    with pytest.raises(InvalidState, match="past the float range"):
        reference_teleport(InputQubit.plus(), big, n)

    def no_transform(state, modes):
        raise AssertionError("the ancilla should be refused before any work")

    monkeypatch.setattr(teleport_module, "apply_qft", no_transform)
    for qubit in (InputQubit.plus(), InputQubit.zero(), InputQubit.of(0.6, 0.8j)):
        with pytest.raises(InvalidState, match=r"class norm\^2 past the float range"):
            teleport(qubit, big, n)
