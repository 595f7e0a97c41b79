"""Register construction pipeline against the direct-construction oracles."""

import math
import random

import pytest

from loqc_ancilla import (
    AmplitudeProfile,
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
)
from loqc_ancilla import pipeline
from loqc_ancilla.pipeline import pair_pattern, single_register_pattern
from conftest import exact_terms
from invariants import check_state

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def random_profile(rng: random.Random, n: int) -> AmplitudeProfile:
    return AmplitudeProfile.from_values([rng.uniform(0.05, 1.0) for _ in range(n + 1)])


# ----------------------------------------------------------------------
# single-register construction
# ----------------------------------------------------------------------


def test_build_single_n1_constant():
    state = build_single_register(1, AmplitudeProfile.constant(1))
    assert state.amplitude((1, 0)) == pytest.approx(INV_SQRT2, abs=1e-12)
    assert state.amplitude((0, 1)) == pytest.approx(INV_SQRT2, abs=1e-12)


def test_build_single_n3_delta_is_deterministic():
    state = build_single_register(3, AmplitudeProfile.delta(3))
    assert len(state) == 1
    assert state.amplitude((1, 1, 1, 0, 0, 0)) == pytest.approx(1.0, abs=1e-12)


def test_build_single_n3_constant_amplitudes():
    state = build_single_register(3, AmplitudeProfile.constant(3))
    assert len(state) == 4
    for j in range(4):
        assert state.amplitude(single_register_pattern(3, j)) == pytest.approx(
            0.5, abs=1e-12
        )


def test_build_single_rejects_signed_profile():
    with pytest.raises(InvalidProfile):
        build_single_register(2, AmplitudeProfile.from_values([1.0, -1.0, 1.0]))
    with pytest.raises(InvalidProfile):
        build_single_register(3, AmplitudeProfile.constant(2))


def test_pipeline_oracle_equivalence_random_profiles():
    rng = random.Random(314)
    for n in range(1, 6):
        for _ in range(20):
            profile = random_profile(rng, n)
            built = build_single_register(n, profile)
            oracle = direct_oracle_single(n, profile)
            assert fidelity(built, oracle) >= 1 - 1e-10


# ----------------------------------------------------------------------
# direct oracles
# ----------------------------------------------------------------------


def test_oracle_single_n2_constant():
    state = direct_oracle_single(2, AmplitudeProfile.constant(2))
    assert len(state) == 3
    for j in range(3):
        assert state.amplitude(single_register_pattern(2, j)) == pytest.approx(
            1.0 / math.sqrt(3.0), abs=1e-12
        )


def test_oracle_single_accepts_signed_profile():
    state = direct_oracle_single(1, AmplitudeProfile.from_values([1.0, -1.0]))
    assert state.amplitude((0, 1)) == pytest.approx(INV_SQRT2)
    assert state.amplitude((1, 0)) == pytest.approx(-INV_SQRT2)


def test_oracle_single_weighted_profile():
    state = direct_oracle_single(3, AmplitudeProfile.from_values([1.0, 2.0, 2.0, 1.0]))
    weights = [abs(state.amplitude(single_register_pattern(3, j))) ** 2 for j in range(4)]
    assert weights == pytest.approx([0.1, 0.4, 0.4, 0.1], abs=1e-12)


def test_oracle_pair_without_sign_is_tensor_product():
    profile = AmplitudeProfile.constant(2)
    single = direct_oracle_single(2, profile)
    product = single.tensor(single)
    unsigned = SparseState(
        8,
        {
            pair_pattern(2, j, jp): profile.f[j] * profile.f[jp]
            for j in range(3)
            for jp in range(3)
        },
    )
    assert fidelity(product, unsigned) == pytest.approx(1.0, abs=1e-12)


def test_oracle_pair_n3_constant_term_count():
    state = direct_oracle_pair(3, AmplitudeProfile.constant(3))
    assert len(state) == 16
    for amp in state.terms.values():
        assert abs(amp) == pytest.approx(0.25, abs=1e-12)


# ----------------------------------------------------------------------
# entangling phase methods
# ----------------------------------------------------------------------


def test_parity_sign_table_n1():
    profile = AmplitudeProfile.constant(1)
    state = direct_oracle_single(1, profile).tensor(direct_oracle_single(1, profile))
    out = apply_entangling_phase(state, PhaseMethod.DIRECT_ORACLE)
    for j in range(2):
        for jp in range(2):
            expected = -0.5 if j == 1 and jp == 1 else 0.5
            assert out.amplitude(pair_pattern(1, j, jp)) == pytest.approx(
                expected, abs=1e-12
            )


def test_even_weight_terms_unchanged_n2():
    state = SparseState.basis(pair_pattern(2, 2, 1))
    out = apply_entangling_phase(state, PhaseMethod.PAIRWISE_GATES)
    assert out.amplitude(pair_pattern(2, 2, 1)) == pytest.approx(1.0)


@pytest.mark.parametrize("n", range(1, 6))
def test_phase_methods_agree(n):
    rng = random.Random(1000 + n)
    profiles = [AmplitudeProfile.constant(n), random_profile(rng, n)]
    for profile in profiles:
        base = direct_oracle_single(n, profile).tensor(direct_oracle_single(n, profile))
        oracle = apply_entangling_phase(base, PhaseMethod.DIRECT_ORACLE)
        pairwise = apply_entangling_phase(base, PhaseMethod.PAIRWISE_GATES)
        parity = apply_entangling_phase(base, PhaseMethod.PARITY_ANCILLA)
        assert parity.modes == base.modes  # helpers stripped after uncompute
        assert fidelity(pairwise, oracle) >= 1 - 1e-12
        assert fidelity(parity, oracle) >= 1 - 1e-12
        assert fidelity(parity, pairwise) >= 1 - 1e-12


def test_entangling_phase_shape_check():
    # Zero modes divide by four too, but hold no register pair.
    for modes in (6, 0):
        for method in PhaseMethod:
            with pytest.raises(ShapeMismatch):
                apply_entangling_phase(SparseState.vacuum(modes), method)


def test_zero_tail_profile_builds_correctly():
    # Weight only on j <= 1: later transfers get P = 0 and act as the
    # identity, so the build still lands on the oracle exactly.
    profile = AmplitudeProfile.from_values([1.0, 2.0, 0.0, 0.0])
    built = build_single_register(3, profile)
    oracle = direct_oracle_single(3, profile)
    assert fidelity(built, oracle) >= 1 - 1e-12
    assert len(built) == 2


def test_exhaustive_term_comparison_n3():
    profile = AmplitudeProfile.constant(3)
    base = direct_oracle_single(3, profile).tensor(direct_oracle_single(3, profile))
    oracle = apply_entangling_phase(base, PhaseMethod.DIRECT_ORACLE)
    parity = apply_entangling_phase(base, PhaseMethod.PARITY_ANCILLA)
    assert len(parity) == 16
    for occ, amp in oracle.terms.items():
        assert parity.amplitude(occ) == pytest.approx(amp, abs=1e-12)


# ----------------------------------------------------------------------
# full pair pipeline
# ----------------------------------------------------------------------


def test_pair_n1_constant_amplitudes():
    state = build_entangled_pair(1, AmplitudeProfile.constant(1))
    assert len(state) == 4
    for j in range(2):
        for jp in range(2):
            expected = -0.5 if j == 1 and jp == 1 else 0.5
            assert state.amplitude(pair_pattern(1, j, jp)) == pytest.approx(
                expected, abs=1e-12
            )


def test_pair_n3_delta_single_negated_term():
    # One branch only, j = j' = 3, so the sign factor is (-1)^9 = -1 and
    # survives as a literal amplitude (global phase is never renormalized).
    state = build_entangled_pair(3, AmplitudeProfile.delta(3))
    assert len(state) == 1
    assert state.amplitude(pair_pattern(3, 3, 3)) == pytest.approx(-1.0, abs=1e-12)


def test_pair_n2_constant_signs():
    state = build_entangled_pair(2, AmplitudeProfile.constant(2))
    assert len(state) == 9
    for j in range(3):
        for jp in range(3):
            expected = (-1.0) ** (j * jp) / 3.0
            assert state.amplitude(pair_pattern(2, j, jp)) == pytest.approx(
                expected, abs=1e-12
            )


@pytest.mark.parametrize("method", [PhaseMethod.PAIRWISE_GATES, PhaseMethod.PARITY_ANCILLA])
def test_pair_matches_oracle(method):
    rng = random.Random(77)
    for n in range(1, 5):
        for profile in (AmplitudeProfile.constant(n), random_profile(rng, n)):
            built = build_entangled_pair(n, profile, method)
            assert fidelity(built, direct_oracle_pair(n, profile)) >= 1 - 1e-10


def test_occupancy_shape_invariant():
    rng = random.Random(55)
    for n in range(1, 5):
        profile = random_profile(rng, n)
        state = build_entangled_pair(n, profile)
        for occ in state.terms:
            assert all(c in (0, 1) for c in occ)
            assert sum(occ[: 2 * n]) == n
            assert sum(occ[2 * n :]) == n


# ----------------------------------------------------------------------
# gate calls made by a build
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 6))
def test_tally_conditional_transfers_and_pairwise(n, gate_calls):
    build_entangled_pair(n, AmplitudeProfile.constant(n), PhaseMethod.PAIRWISE_GATES)
    assert gate_calls["conditional_transfer"] == 2 * n
    assert gate_calls["gated_transfer"] == 2 * (n - 1)
    assert gate_calls["controlled_sign"] == n * n
    assert gate_calls["cnot_logical"] == gate_calls["toffoli_logical"] == 0


@pytest.mark.parametrize("n", range(1, 6))
def test_tally_parity_method(n, gate_calls):
    build_entangled_pair(n, AmplitudeProfile.constant(n), PhaseMethod.PARITY_ANCILLA)
    assert gate_calls["conditional_transfer"] == 2 * n
    assert gate_calls["gated_transfer"] == 2 * (n - 1)
    assert gate_calls["cnot_logical"] == 4 * n
    assert gate_calls["toffoli_logical"] == 2
    assert gate_calls["controlled_sign"] == 1


# ----------------------------------------------------------------------
# each pair on its own modes against the joint state written down
# ----------------------------------------------------------------------


def pair_profiles(rng, n):
    """Constant, zero-tail and two random profiles for n modes per register."""
    zero_tail = AmplitudeProfile.from_values([1.0, 2.0] + [0.0] * (n - 1))
    return [AmplitudeProfile.constant(n), zero_tail, random_profile(rng, n), random_profile(rng, n)]


@pytest.mark.parametrize("method", list(PhaseMethod), ids=lambda m: m.value)
def test_pair_matches_joint_state_reference(method):
    # The joint 4n-mode state as ``direct_oracle_pair`` writes it down: the
    # build reaches each of its terms, in its order, to within the last bit.
    rng = random.Random(2003)
    for n in range(1, 9):
        for profile in pair_profiles(rng, n):
            built = build_entangled_pair(n, profile, method)
            reference = direct_oracle_pair(n, profile)
            assert list(built.terms) == list(reference.terms)
            for occ, amp in built.terms.items():
                assert abs(amp - reference.terms[occ]) <= 1e-15, (n, occ)


@pytest.mark.parametrize("n", range(1, 9))
def test_phase_methods_build_identical_states(n):
    # Every method applies its sign as an exact negation, so pairwise,
    # parity and oracle builds agree bit for bit at every n.
    rng = random.Random(4000 + n)
    for profile in pair_profiles(rng, n):
        built = [exact_terms(build_entangled_pair(n, profile, m)) for m in PhaseMethod]
        assert built[0] == built[1] == built[2]


@pytest.mark.parametrize("n", range(1, 9))
def test_pair_transfers_run_on_one_pair(n, monkeypatch):
    # Each transfer sees one register pair's 2n modes and at most its n+1
    # terms, never the joint state of both pairs.
    seen = []
    original = pipeline.conditional_transfer

    def recorded(state, *args, **kwargs):
        seen.append((state.modes, len(state)))
        return original(state, *args, **kwargs)

    monkeypatch.setattr(pipeline, "conditional_transfer", recorded)
    build_entangled_pair(n, AmplitudeProfile.constant(n), PhaseMethod.PARITY_ANCILLA)
    assert len(seen) == 2 * n
    assert all(modes == 2 * n and terms <= n + 1 for modes, terms in seen), seen


# ----------------------------------------------------------------------
# oracles written from patterns through the trusted constructor
# ----------------------------------------------------------------------


def oracle_profiles(rng, n):
    """Constant, delta, random and signed profiles, one with zero weights
    whose terms are skipped and one with a weight below the prune."""
    signed = [rng.uniform(0.05, 1.0) * rng.choice((-1.0, 1.0)) for _ in range(n + 1)]
    zero_weights = [0.0 if j % 2 else rng.uniform(0.05, 1.0) for j in range(n + 1)]
    faint = [1e-13] + [rng.uniform(0.05, 1.0) for _ in range(n)]
    return [
        AmplitudeProfile.constant(n),
        AmplitudeProfile.delta(n),
        random_profile(rng, n),
        AmplitudeProfile.from_values(signed),
        AmplitudeProfile.from_values(zero_weights),
        AmplitudeProfile.from_values(faint),
    ]


@pytest.mark.parametrize("n", range(1, 9))
def test_oracles_match_the_constructor_route_bit_for_bit(n):
    # The oracles skip the validating constructor; fed their own terms, it
    # changes no bit, and what they hold passes the state invariant.
    rng = random.Random(5000 + n)
    for profile in oracle_profiles(rng, n):
        single = direct_oracle_single(n, profile)
        pair = direct_oracle_pair(n, profile)
        for state in (single, pair):
            check_state(state)
            assert exact_terms(SparseState(state.modes, state.terms)) == exact_terms(state)
        skipped = sum(1 for f in profile.f if abs(f) < 1e-12)
        assert len(single) == n + 1 - skipped
