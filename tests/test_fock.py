"""Core sparse-state machinery: unitaries, measurement, serialization."""

import itertools
import math
import operator
import random
import sys
import threading

import pytest

from loqc_ancilla import (
    AmplitudeProfile,
    DimensionMismatch,
    InputQubit,
    InvalidCoefficient,
    InvalidState,
    ModeOutOfRange,
    SparseState,
    ZeroState,
    direct_oracle_single,
    fidelity,
)
from loqc_ancilla import fock
from loqc_ancilla.fock import PRUNE_TOLERANCE
from loqc_ancilla.teleport import qft_matrix, teleport
from conftest import (
    assert_dense_unitary,
    beamsplitter_matrix,
    dense_two_mode_matrix,
    digest,
    empty_memo,
    exact_terms,
    poly_two_mode_image,
    random_state,
    signed_zero_state,
)
from invariants import check_state

INV_SQRT2 = 1.0 / math.sqrt(2.0)


# ----------------------------------------------------------------------
# normalize / fidelity
# ----------------------------------------------------------------------


def test_normalize_single_term_rescale():
    s = SparseState(2, {(1, 0): 2.0}).normalized()
    assert s.amplitude((1, 0)) == pytest.approx(1.0)


def test_normalize_symmetric_pair():
    s = SparseState(2, {(1, 0): 1.0, (0, 1): 1.0}).normalized()
    assert s.amplitude((1, 0)) == pytest.approx(INV_SQRT2)
    assert s.amplitude((0, 1)) == pytest.approx(INV_SQRT2)


def test_normalize_constant_profile_raw_state_n3():
    # Four equally weighted register patterns normalize to amplitude 1/2.
    patterns = [
        (1, 1, 1, 0, 0, 0),
        (1, 1, 0, 0, 0, 1),
        (1, 0, 0, 0, 1, 1),
        (0, 0, 0, 1, 1, 1),
    ]
    s = SparseState(6, {p: 1.0 for p in patterns}).normalized()
    for p in patterns:
        assert s.amplitude(p) == pytest.approx(0.5, abs=1e-15)


def test_normalize_preserves_phases():
    s = SparseState(1, {(0,): 3j, (1,): -3.0}).normalized()
    assert s.amplitude((0,)) == pytest.approx(1j * INV_SQRT2)
    assert s.amplitude((1,)) == pytest.approx(-INV_SQRT2)


def test_normalize_amplitudes_whose_squares_overflow():
    # |a|^2 overflows a float here; the norm is inf and normalizing rescales
    # by the largest component first.
    s = SparseState(2, {(1, 0): 1e300 + 1e300j, (0, 1): -1e300})
    assert s.norm_squared() == math.inf
    out = s.normalized()
    assert out.amplitude((1, 0)) == pytest.approx((1 + 1j) / math.sqrt(3.0), abs=1e-15)
    assert out.amplitude((0, 1)) == pytest.approx(-1 / math.sqrt(3.0), abs=1e-15)
    assert out.norm_squared() == pytest.approx(1.0, abs=1e-15)


def test_amplitude_with_overflowing_modulus_rejected():
    with pytest.raises(InvalidState):
        SparseState(1, {(1,): complex(1.7e308, 1.7e308)})


def test_normalize_zero_state_raises():
    with pytest.raises(ZeroState):
        SparseState(1, {(1,): 1e-15}).normalized()


def test_fidelity_self_orthogonal_projection():
    a = SparseState.basis((1, 0))
    b = SparseState.basis((0, 1))
    plus = SparseState(2, {(1, 0): INV_SQRT2, (0, 1): INV_SQRT2})
    assert fidelity(a, a) == pytest.approx(1.0)
    assert fidelity(a, b) == 0.0
    assert fidelity(plus, a) == pytest.approx(0.5)
    assert fidelity(a, plus) == pytest.approx(0.5)


def test_fidelity_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        fidelity(SparseState.basis((1,)), SparseState.basis((1, 0)))


# ----------------------------------------------------------------------
# phase shifter
# ----------------------------------------------------------------------


def test_phase_identity():
    s = SparseState.basis((1,))
    assert s.apply_phase(0, 0.0).amplitude((1,)) == 1.0


def test_phase_pi_single_photon():
    s = SparseState.basis((1,)).apply_phase(0, math.pi)
    assert s.amplitude((1,)) == pytest.approx(-1.0)


def test_phase_two_photons_quarter_turn():
    # Two photons each pick up i: i^2 = -1.
    s = SparseState.basis((2,)).apply_phase(0, math.pi / 2)
    assert s.amplitude((2,)) == pytest.approx(-1.0)
    # Cross-check against the operator-expansion oracle.
    want = poly_two_mode_image((2, 0), [[1j, 0], [0, 1]])
    got = SparseState.basis((2, 0)).apply_phase(0, math.pi / 2)
    assert got.amplitude((2, 0)) == pytest.approx(want[(2, 0)], abs=1e-12)


def test_phase_integer_quarter_turns_are_exact():
    # pi on two photons is a full turn: exactly 1, no 1e-16 imaginary part.
    two = SparseState.basis((2,))
    assert two.apply_phase(0, math.pi).amplitude((2,)) == 1.0 + 0j
    assert SparseState.basis((3,)).apply_phase(0, math.pi / 2).amplitude((3,)) == -1j
    assert SparseState.basis((5,)).apply_phase(0, -math.pi).amplitude((5,)) == -1.0 + 0j
    # Other angles keep cos/sin of the unreduced angle.
    assert two.apply_phase(0, 0.3).amplitude((2,)) == complex(math.cos(0.6), math.sin(0.6))


def test_huge_phases_are_not_read_as_quarter_turns():
    # Every float past ~1.4e16 divides by pi/2 to an integer, so only small
    # quotients may take the exact lookup; the rest keep cos/sin.
    one = SparseState.basis((1,))
    for phi in (1e17, -1e17, 1e20, math.pi * 2**20):
        assert one.apply_phase(0, phi).amplitude((1,)) == complex(math.cos(phi), math.sin(phi))
    assert one.apply_phase(0, math.pi * 2**18).amplitude((1,)) == 1.0 + 0j


def test_phase_mode_out_of_range():
    with pytest.raises(ModeOutOfRange):
        SparseState.basis((1,)).apply_phase(1, 0.1)


# ----------------------------------------------------------------------
# beamsplitter
# ----------------------------------------------------------------------


def test_beamsplitter_fully_transmitting():
    s = SparseState.basis((1, 0)).apply_beamsplitter(0, 1, 1.0)
    assert s.amplitude((1, 0)) == pytest.approx(1.0)
    assert len(s) == 1


def test_beamsplitter_balanced_single_photon():
    s = SparseState.basis((1, 0)).apply_beamsplitter(0, 1, INV_SQRT2)
    assert s.amplitude((1, 0)) == pytest.approx(INV_SQRT2)
    assert s.amplitude((0, 1)) == pytest.approx(1j * INV_SQRT2)


def test_beamsplitter_two_photon_bunching():
    # |1,1> through a balanced splitter: coincidences cancel.
    s = SparseState.basis((1, 1)).apply_beamsplitter(0, 1, INV_SQRT2)
    assert s.amplitude((1, 1)) == pytest.approx(0.0, abs=1e-12)
    assert s.amplitude((2, 0)) == pytest.approx(1j * INV_SQRT2)
    assert s.amplitude((0, 2)) == pytest.approx(1j * INV_SQRT2)


def test_beamsplitter_matches_polynomial_oracle():
    rng = random.Random(11)
    for t in (0.0, 0.3, INV_SQRT2, 0.9, 1.0):
        matrix = beamsplitter_matrix(t)
        for _ in range(10):
            occ = (rng.randint(0, 3), rng.randint(0, 3))
            got = SparseState.basis(occ).apply_beamsplitter(0, 1, t)
            want = poly_two_mode_image(occ, matrix)
            keys = set(got.terms) | set(want)
            for k in keys:
                assert got.amplitude(k) == pytest.approx(want.get(k, 0j), abs=1e-12)


def test_beamsplitter_matches_dense_matrix_oracle():
    # All 2-mode basis states with up to 4 photons, several settings.
    for t in (0.2, 0.5, INV_SQRT2, 0.95):
        basis, dense = dense_two_mode_matrix(beamsplitter_matrix(t), 4)
        assert_dense_unitary(dense)
        for j, occ in enumerate(basis):
            got = SparseState.basis(occ).apply_beamsplitter(0, 1, t)
            for i, target in enumerate(basis):
                assert got.amplitude(target) == pytest.approx(dense[i][j], abs=1e-12)


def test_beamsplitter_invalid_coefficient():
    with pytest.raises(InvalidCoefficient):
        SparseState.basis((1, 0)).apply_beamsplitter(0, 1, 1.5)
    with pytest.raises(ModeOutOfRange):
        SparseState.basis((1, 0)).apply_beamsplitter(0, 0, 0.5)


def test_beamsplitter_unitarity_and_conservation_random():
    rng = random.Random(23)
    for _ in range(200):
        modes = rng.randint(2, 4)
        s = random_state(rng, modes, 3)
        m1, m2 = rng.sample(range(modes), 2)
        t = rng.random()
        out = s.apply_beamsplitter(m1, m2, t)
        assert out.norm_squared() == pytest.approx(1.0, abs=1e-12)
        totals_in = {occ[m1] + occ[m2] for occ in s.terms}
        for occ in out.terms:
            assert occ[m1] + occ[m2] in totals_in
        phased = out.apply_phase(m1, 0.4).normalized()
        assert phased.norm_squared() == pytest.approx(1.0, abs=1e-12)


def test_beamsplitter_inverse_recovers_input():
    rng = random.Random(5)
    for _ in range(50):
        s = random_state(rng, 3, 3)
        t = rng.random()
        r = math.sqrt(1 - t * t)
        out = s.apply_beamsplitter(0, 2, t)
        # Inverse transform: conjugate-transposed mode matrix.
        back = out.apply_linear_transform([0, 2], [[t, -1j * r], [-1j * r, t]])
        assert fidelity(back, s) >= 1 - 1e-12


# ----------------------------------------------------------------------
# general linear transform
# ----------------------------------------------------------------------


def test_linear_transform_identity():
    s = SparseState(3, {(1, 2, 0): 0.6, (0, 0, 3): 0.8})
    eye = [[1, 0], [0, 1]]
    out = s.apply_linear_transform([0, 2], eye)
    assert out.amplitude((1, 2, 0)) == pytest.approx(0.6)
    assert out.amplitude((0, 0, 3)) == pytest.approx(0.8)


def test_linear_transform_agrees_with_beamsplitter():
    rng = random.Random(99)
    for _ in range(30):
        s = random_state(rng, 3, 3)
        t = rng.random()
        direct = s.apply_beamsplitter(1, 2, t)
        via_matrix = s.apply_linear_transform([1, 2], beamsplitter_matrix(t))
        assert fidelity(direct, via_matrix) >= 1 - 1e-12
        assert direct.norm_squared() == pytest.approx(via_matrix.norm_squared(), abs=1e-12)


@pytest.mark.parametrize("size", range(2, 8))
def test_fourier_multiport_suppression_law(size):
    # Tichy et al., PRL 104, 220405 (2010): one photon in each input of an
    # N-mode Fourier multiport reaches only outputs with sum_m m*c_m = 0
    # mod N.  Suppressed outputs cancel to below PRUNE_TOLERANCE and are pruned.
    state = SparseState.basis((1,) * size)
    out = state.apply_linear_transform(range(size), qft_matrix(size))
    for occ in out.terms:
        assert sum(m * c for m, c in enumerate(occ)) % size == 0
    assert out.norm_squared() == pytest.approx(1.0, abs=1e-12)


def test_pruning_threshold():
    # |amplitude| == PRUNE_TOLERANCE is kept and the next float below it is
    # dropped, whether it enters through the constructor or an operation.
    below = math.nextafter(PRUNE_TOLERANCE, 0)
    built = SparseState(2, {(0, 1): PRUNE_TOLERANCE, (1, 0): below})
    assert list(built.terms) == [(0, 1)]
    pair = SparseState(2, {(0, 1): 2 * PRUNE_TOLERANCE, (1, 0): 2 * below})
    halved = pair.tensor(SparseState(1, {(0,): 0.5}))
    assert list(halved.terms) == [(0, 1, 0)]
    # measure drops an outcome of probability PRUNE_TOLERANCE**2 and keeps
    # one of twice that; normalized refuses a state of that norm.
    faint = {(1, 0): PRUNE_TOLERANCE, (2, 0): PRUNE_TOLERANCE, (2, 1): PRUNE_TOLERANCE}
    state = SparseState(2, {(0, 0): 1.0, **faint})
    assert [o.counts for o in state.measure([0])] == [(0,), (2,)]
    with pytest.raises(ZeroState):
        SparseState(1, {(1,): PRUNE_TOLERANCE}).normalized()


def test_infinite_phase_is_refused():
    one = SparseState.basis((1,))
    with pytest.raises(InvalidCoefficient):
        one.apply_phase(0, math.inf)
    with pytest.raises(InvalidCoefficient):
        one.apply_basis_phase(lambda occ: -math.inf)


def test_linear_transform_shape_checks():
    s = SparseState.basis((1, 0))
    with pytest.raises(DimensionMismatch):
        s.apply_linear_transform([0, 1], [[1, 0]])
    with pytest.raises(ModeOutOfRange):
        s.apply_linear_transform([0, 0], [[1, 0], [0, 1]])


def reference_transform(state, modes, matrix):
    """Per-basis-term expansion through the permanent formula

        <p| U |n> = Perm(U[rows of n, cols of p]) / sqrt(prod n! prod p!)

    where row l of the submatrix repeats n_l times and column m repeats p_m
    times; the permanent is summed over every permutation."""
    out = {}
    for occ, a in state.terms.items():
        sub = [occ[m] for m in modes]
        rows = [l for l, c in enumerate(sub) for _ in range(c)]
        total = len(rows)
        for p in itertools.product(range(total + 1), repeat=len(modes)):
            if sum(p) != total:
                continue
            cols = [m for m, c in enumerate(p) for _ in range(c)]
            perm = sum(
                math.prod(matrix[rows[i]][cols[j]] for i, j in enumerate(sigma))
                for sigma in itertools.permutations(range(total))
            )
            norm = math.prod(map(math.factorial, sub)) * math.prod(map(math.factorial, p))
            key = list(occ)
            for m, c in zip(modes, p):
                key[m] = c
            key = tuple(key)
            out[key] = out.get(key, 0j) + a * perm / math.sqrt(norm)
    return out


def assert_matches_reference(state, modes, matrix):
    got = state.apply_linear_transform(modes, matrix).terms
    want = {k: v for k, v in reference_transform(state, modes, matrix).items() if abs(v) >= 1e-12}
    assert set(got) == set(want)
    for key, amp in want.items():
        assert got[key] == pytest.approx(amp, abs=1e-12)


def random_matrix(rng, size):
    return [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(size)] for _ in range(size)]


def test_linear_transform_terms_sharing_sub_occupations():
    # Six terms, only three distinct patterns on the transformed modes.
    rng = random.Random(7)
    s = SparseState(
        4,
        {
            (1, 1, 0, 0): 0.3,
            (1, 1, 2, 1): -0.2j,
            (1, 1, 0, 3): 0.5 + 0.1j,
            (2, 0, 1, 0): 0.4,
            (2, 0, 0, 1): -0.1,
            (0, 0, 1, 1): 0.6j,
        },
    )
    assert_matches_reference(s, [0, 1], random_matrix(rng, 2))


def test_linear_transform_unordered_noncontiguous_modes():
    rng = random.Random(8)
    s = random_state(rng, 5, 4, n_terms=8)
    assert_matches_reference(s, [3, 0, 2], random_matrix(rng, 3))


def test_linear_transform_single_mode():
    rng = random.Random(9)
    s = random_state(rng, 3, 4, n_terms=6)
    assert_matches_reference(s, [1], random_matrix(rng, 1))


def test_linear_transform_every_mode():
    rng = random.Random(10)
    s = random_state(rng, 3, 3, n_terms=6)
    assert_matches_reference(s, [2, 0, 1], random_matrix(rng, 3))


def leading_classes(state, n_sub):
    """Each term's class on the leading ``n_sub`` modes: its photon total
    there and the counts on the other modes."""
    return [(sum(occ[:n_sub]), occ[n_sub:]) for occ in state.terms]


def test_transform_of_lone_and_shared_classes_matches_the_permanent_formula():
    # On leading modes an input whose terms are all alone in their classes
    # writes each product once, pruned as it is written; an input with a
    # shared class adds every product up first.  Here
    # |1,1,0> is alone and cancels at |1,1,0> on a balanced beamsplitter,
    # and |1,0,1> and |0,1,1> share a class and cancel at |1,0,1>.
    half = beamsplitter_matrix(INV_SQRT2)
    state = SparseState(3, {(1, 1, 0): 0.5, (1, 0, 1): 0.5, (0, 1, 1): 0.5j, (2, 0, 2): 0.5})
    classes = leading_classes(state, 2)
    assert len(set(classes)) == 3 < len(classes)
    out = state.apply_linear_transform([0, 1], half)
    check_state(out)
    assert (1, 1, 0) not in out.terms and (1, 0, 1) not in out.terms
    assert_matches_reference(state, [0, 1], half)
    # With every class lone, the Hong-Ou-Mandel zero at |1,1,0> is never
    # stored.
    hom = SparseState(3, {(1, 1, 0): 1.0, (0, 1, 1): 0.5})
    out = hom.apply_linear_transform([0, 1], half)
    check_state(out)
    assert (1, 1, 0) not in out.terms
    assert_matches_reference(hom, [0, 1], half)
    # A lone term's product formed as -1 - 0j is written as -1 + 0j.
    lone = SparseState(3, {(1, 0, 0): -1j})
    out = lone.apply_linear_transform([0, 1], [[1.0, -1j], [1.0, 1.0]])
    check_state(out)
    assert exact_terms(out) == (3, [((1, 0, 0), "-1j"), ((0, 1, 0), "(-1+0j)")])
    # Random states of up to five photons over three leading modes and two
    # more, with both lone and shared classes.
    rng = random.Random(2700)
    for _ in range(6):
        state = random_state(rng, 5, 5, n_terms=16)
        classes = leading_classes(state, 3)
        counts = [classes.count(c) for c in classes]
        assert 1 in counts and max(counts) > 1
        matrix = random_matrix(rng, 3)
        check_state(state.apply_linear_transform([0, 1, 2], matrix))
        assert_matches_reference(state, [0, 1, 2], matrix)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e308], ids=["nan", "inf", "1e308"])
def test_transform_refuses_a_non_finite_product_of_a_lone_class(bad):
    # Every term is alone in its class on modes [0, 1], so the products are
    # written as they are formed: NaN and inf pass the prune's comparison
    # and reach the finiteness scan.
    state = SparseState(3, {(1, 0, 0): 0.6, (0, 1, 0): 0.8})
    state.terms[(1, 1, 2)] = complex(bad)
    assert len(set(leading_classes(state, 2))) == 2
    with pytest.raises(InvalidState, match="non-finite"):
        state.apply_linear_transform([0, 1], [[10.0, 1.0], [1.0, 10.0]])


def moved_block_transform(state, modes, matrix, front):
    """The transform with its modes moved by ``permute_modes`` to the front
    in order (``front``) or behind the other modes, then moved back."""
    rest = [m for m in range(state.modes) if m not in modes]
    perm = list(modes) + rest if front else rest + list(modes)
    inverse = [perm.index(m) for m in range(state.modes)]
    moved = state.permute_modes(perm).apply_linear_transform(
        [perm.index(m) for m in modes], matrix
    )
    return moved.permute_modes(inverse)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_leading_block_keys_match_the_moved_block_route(n):
    # Teleport's Fourier mixing on the leading modes 0..n of [q, x, y] builds
    # each key as sub-occupation + rest; the same transform on the block
    # moved behind the other modes takes the general route.  Keys, their
    # order and every amplitude bit agree.
    ancilla = direct_oracle_single(n, AmplitudeProfile.from_values(range(1, n + 2)))
    state = InputQubit.of(0.6, 0.8j).state().tensor(ancilla)
    modes, matrix = list(range(n + 1)), qft_matrix(n + 1)
    got = state.apply_linear_transform(modes, matrix)
    assert exact_terms(got) == exact_terms(moved_block_transform(state, modes, matrix, False))


@pytest.mark.parametrize("modes", [[3, 1], [1, 0], [2, 4]], ids=str)
def test_placed_keys_match_the_leading_block_route(modes):
    # A beamsplitter off the leading block in order writes its counts into a
    # copy of each input key; moved to the front in order, it builds them as
    # sub + rest.
    rng = random.Random(12)
    state = random_state(rng, 5, 3, n_terms=12)
    matrix = beamsplitter_matrix(0.6)
    got = state.apply_linear_transform(modes, matrix)
    assert exact_terms(got) == exact_terms(moved_block_transform(state, modes, matrix, True))


# sha256 of ``exact_terms`` of each output, in order, taken from the retired
# kernels these tests compared against bit for bit: the picker-layout
# transform, which built every key from pickers laid out per call, and the
# ``_like`` transform, which rebuilt and pruned its output through ``_like``.
PICKER_LAYOUT_DIGESTS = [
    "6d793ce041d82ee0e12a6c8f7aa5a76020ba8f8797e9cb7053ef335f9201366c",
    "686941e2394d50409b58b0092627b4bb6c259cd19e983fad2e38290836ce401e",
    "855c205a2ab7782ba1ae691925ec26b936699351c247d39d3111e5ae7186a2f7",
    "68e9ae34e7338565a717a372aa152ac40507732fc2249d508bcd0a03bef58852",
    "7489f5c078a2fc8df011bfd36ef244c947127574e53d3bbcafe21520b1fcd833",
    "d117553f47530222c08f8cafadee68b897dce397ced14fa0ade93e80ce749317",
]
LIKE_DIGESTS = [
    "63fb04d521ac93dc4985ea9724d6bf89f213d368b4e135a6d5c84cd03255b44b",
    "a6c60b8cc0c053d54fe5d276fbb2adcf8918592e9cc9e50c777e0b63b15acf3f",
    "48553d29ff73a5e01715614bf96cb1d89e14f23ceb2f9a36b6cb239af3a118b1",
    "6c9006499f5d7fd01283171554ba5819b296cde52f23e1ffe4978e0c1cb7844a",
]
LIKE_PRUNE_DIGEST = "9f23d635146e93bd11c2552c66892373674a53371067e0f464a4e96f22359184"


@pytest.mark.parametrize("seed", range(6))
def test_transform_keys_match_the_picker_layout_reference(seed):
    # Leading blocks, blocks off the front in order, unsorted mode lists and
    # the whole register, on states of up to four photons per mode list,
    # then the beamsplitters of a pair build: two modes, counts above one.
    rng = random.Random(400 + seed)
    mode_lists = [[0], [0, 1], [0, 1, 2], [1, 2], [2, 4], [3, 1], [4, 0, 2], [1, 0, 3, 2]]
    mode_lists += [rng.sample(range(5), rng.randint(1, 4)) for _ in range(6)]
    outputs = []
    for modes in mode_lists:
        state = random_state(rng, 5, 4, n_terms=rng.randint(1, 12))
        outputs.append(state.apply_linear_transform(modes, random_matrix(rng, len(modes))))
    state = random_state(rng, 6, 4, n_terms=10)
    pairs = ((5, 0), (1, 4), (0, 1), (3, 2))
    outputs += [state.apply_beamsplitter(m1, m2, 0.37) for m1, m2 in pairs]
    assert digest(map(exact_terms, outputs)) == PICKER_LAYOUT_DIGESTS[seed]


def deep_state(rng, modes, max_per_mode, n_terms):
    """Random state with each mode's count drawn from 0..max_per_mode."""
    keys = {tuple(rng.randint(0, max_per_mode) for _ in range(modes)) for _ in range(n_terms)}
    terms = {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in keys}
    return SparseState(modes, terms).normalized()


def has_negative_zero(state):
    return any(
        x == 0 and math.copysign(1.0, x) < 0 for a in state.terms.values() for x in (a.real, a.imag)
    )


@pytest.mark.parametrize("seed", range(4))
def test_transform_matches_the_like_reference_bit_for_bit(seed):
    # Leading blocks, blocks off the front in order and unsorted lists, on
    # states with signed zeros and with up to 20 photons per mode.
    rng = random.Random(2460 + seed)
    mode_lists = [[0], [0, 1], [0, 1, 2], [1], [1, 2], [2, 3, 4], [3, 1], [4, 0, 2], [1, 0, 3, 2]]
    mode_lists += [rng.sample(range(5), rng.randint(1, 4)) for _ in range(6)]
    signed_inputs = 0
    outputs = []
    for modes in mode_lists:
        depth = 20 if len(modes) <= 2 else 4
        states = [
            deep_state(rng, 5, depth, rng.randint(1, 10)),
            signed_zero_state(rng, 5, 4),
            random_state(rng, 5, 4, n_terms=12),
        ]
        signed_inputs += has_negative_zero(states[1])
        for state in states:
            outputs.append(state.apply_linear_transform(modes, random_matrix(rng, len(modes))))
            check_state(outputs[-1])
    assert signed_inputs >= 3
    assert digest(map(exact_terms, outputs)) == LIKE_DIGESTS[seed]


def test_transform_prunes_as_the_like_reference_does():
    # Faint outputs: a balanced beamsplitter cancels |1,1> to exactly 0 on
    # two-photon input, and a near-singular matrix leaves terms just above
    # and below the prune tolerance.
    hom = SparseState(2, {(1, 1): 1.0})
    half = beamsplitter_matrix(INV_SQRT2)
    assert (1, 1) not in hom.apply_linear_transform([0, 1], half).terms
    rng = random.Random(2470)
    outputs = []
    for _ in range(40):
        state = random_state(rng, 3, 3, n_terms=6)
        scale = PRUNE_TOLERANCE * rng.uniform(0.5, 4.0)
        matrix = [[scale * complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)] for _ in range(2)]
        outputs.append(state.apply_linear_transform([2, 0], matrix))
    assert digest(map(exact_terms, outputs)) == LIKE_PRUNE_DIGEST


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf), 1e308])
def test_transform_still_refuses_a_non_finite_output(bad):
    # A NaN or infinite input amplitude, or a product past the float range,
    # is refused, not pruned away.
    state = SparseState(2, {(1, 0): 0.6, (0, 1): 0.8})
    state.terms[(1, 1)] = complex(bad)
    matrix = [[10.0, 1.0], [1.0, 10.0]]
    for modes in ([0, 1], [1, 0]):
        with pytest.raises(InvalidState, match="non-finite"):
            state.apply_linear_transform(modes, matrix)


def test_an_amplitude_whose_modulus_passes_the_float_range_is_refused():
    # Finite parts whose modulus passes the float range make ``abs`` raise a
    # bare OverflowError; the transform, on either loop, and ``_like``, so
    # ``tensor``, refuse them as InvalidState, as the constructor does.
    state = SparseState(2, {(1, 0): 1.5e308})
    for modes in ([0, 1], [1, 0]):  # the write-once loop, then the general one
        with pytest.raises(InvalidState, match="non-finite"):
            state.apply_linear_transform(modes, [[1 + 1j, 0], [0, 1 + 1j]])
    big = SparseState(1, {(0,): 1.5e200 + 1.5e200j})
    with pytest.raises(InvalidState, match="non-finite"):
        big.tensor(SparseState(1, {(0,): 1e108}))
    # Parts of 1.3e308 each: finite, with a modulus of 1.84e308.
    a, b = SparseState(1, {(1,): 1e154 + 1e154j}), SparseState(1, {(0,): 1.3e154})
    for left, right in ((a, b), (b, a)):
        with pytest.raises(InvalidState, match="non-finite"):
            left.tensor(right)


# ----------------------------------------------------------------------
# expansion memo
# ----------------------------------------------------------------------


def bits(state):
    """Terms in dict order with the exact bits of each amplitude."""
    return [(occ, a.real.hex(), a.imag.hex()) for occ, a in state.terms.items()]


def slot_products():
    """Expansion products held in the last-transform slot."""
    return sum(len(products) for _, products in fock._last_transform[1].values())


def count_expansions(monkeypatch):
    """List that grows by one entry, the product count, per ``fock._expand`` call."""
    calls = []
    original = fock._expand

    def counted(sub, matrix):
        expansion = original(sub, matrix)
        calls.append(len(expansion[1]))
        return expansion

    monkeypatch.setattr(fock, "_expand", counted)
    return calls


def test_memo_second_call_is_bit_identical(monkeypatch):
    rng = random.Random(31)
    qft_input = random_state(rng, 6, 4, n_terms=12)
    split_input = random_state(rng, 3, 4, n_terms=8)
    for run in (
        lambda: qft_input.apply_linear_transform([4, 0, 2, 1, 5], qft_matrix(5)),
        lambda: split_input.apply_beamsplitter(2, 0, 0.37),
    ):
        empty_memo(monkeypatch)
        cold = run()
        assert fock._last_transform[1]  # the first call filled the slot
        expanded = count_expansions(monkeypatch)
        assert bits(run()) == bits(cold)
        assert not expanded


def test_memo_spares_a_repeat_n6_teleport_every_expansion(monkeypatch):
    empty_memo(monkeypatch)
    expanded = count_expansions(monkeypatch)
    ancilla = direct_oracle_single(6, AmplitudeProfile.constant(6))
    qubit = InputQubit.of(0.6, 0.8j)

    def run():
        return [
            (o.counts, o.probability.hex(), o.output_state and bits(o.output_state))
            for o in teleport(qubit, ancilla, 6)
        ]

    cold = run()
    # One Fourier pattern per photon total k = 0..7, {1..k} and then every
    # mode: 8 patterns, 3 432 products in all.
    assert len(expanded) == 8 and sum(expanded) == 3432
    expanded.clear()
    assert run() == cold
    assert not expanded


def test_memo_entries_are_tuples(monkeypatch):
    empty_memo(monkeypatch)
    rng = random.Random(32)
    random_state(rng, 4, 4, n_terms=10).apply_linear_transform(range(4), qft_matrix(4))
    matrix, expansions = fock._last_transform
    assert isinstance(matrix, tuple) and all(isinstance(row, tuple) for row in matrix)
    assert expansions
    for sub, (root_in, products) in expansions.items():
        assert isinstance(sub, tuple)
        assert isinstance(root_in, float)
        assert isinstance(products, tuple)
        assert all(isinstance(p, tuple) and isinstance(p[0], tuple) for p in products)


def test_memo_bounds_hold_after_a_sweep_and_a_large_transform(monkeypatch):
    empty_memo(monkeypatch)
    rng = random.Random(33)
    state = random_state(rng, 4, 4, n_terms=10)
    for _ in range(500):
        m1, m2 = rng.sample(range(4), 2)
        t = rng.random()
        state.apply_beamsplitter(m1, m2, t)
        # Each sweep step holds only its own matrix's expansions.
        ir = 1j * math.sqrt(1.0 - t * t)
        assert fock._last_transform[0] == ((t, ir), (ir, t))
        assert slot_products() <= fock._MEMO_PRODUCTS
    held = fock._last_transform
    # The n=8 teleport mix without the feedforward's input shift: 72 929
    # products over 18 sub-occupations, past the bound, so the set is not
    # kept and the sweep's last slot stays.
    expanded = count_expansions(monkeypatch)
    teleport_input = InputQubit.plus().state().tensor(
        direct_oracle_single(8, AmplitudeProfile.constant(8))
    )
    teleport_input.apply_linear_transform(range(9), qft_matrix(9))
    assert len(expanded) == 18 and sum(expanded) == 72929
    assert fock._last_transform is held


def test_memo_equal_matrices_of_other_types_give_identical_outputs(monkeypatch):
    rng = random.Random(34)
    state = random_state(rng, 3, 4, n_terms=8)
    t, r = 0.6, 0.8
    equal_sets = [
        ([[1, 0], [0, 1]], [[1 + 0j, 0j], [0j, 1 + 0j]], [[complex(1, -0.0), 0j], [0j, 1.0]]),
        (
            [[t, 1j * r], [1j * r, t]],
            [[complex(t, -0.0), complex(-0.0, r)], [complex(0.0, r), complex(t, 0.0)]],
        ),
    ]
    for matrices in equal_sets:
        cold = []
        for matrix in matrices:
            empty_memo(monkeypatch)
            cold.append(bits(state.apply_linear_transform([0, 2], matrix)))
        assert all(c == cold[0] for c in cold)
        # Warm: every matrix reuses the expansions of the equal one before it.
        expanded = count_expansions(monkeypatch)
        for matrix in matrices:
            assert bits(state.apply_linear_transform([0, 2], matrix)) == cold[0]
        assert not expanded
        monkeypatch.undo()


def test_memo_shared_by_threads_keeps_its_budget(monkeypatch):
    # The sets here hold 15, 21 or 24 products, so a bound of 20 publishes
    # some and refuses others while eight threads read and replace the slot.
    empty_memo(monkeypatch)
    monkeypatch.setattr(fock, "_MEMO_PRODUCTS", 20)
    rng = random.Random(35)
    state = random_state(rng, 3, 4, n_terms=10)
    jobs = [
        [(rng.sample(range(3), 2), rng.choice((0.2, 0.5, rng.random()))) for _ in range(60)]
        for _ in range(8)
    ]
    expected = [[bits(state.apply_beamsplitter(m1, m2, t)) for (m1, m2), t in job] for job in jobs]
    results = [None] * len(jobs)

    def work(i):
        results[i] = [bits(state.apply_beamsplitter(m1, m2, t)) for (m1, m2), t in jobs[i]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == expected
    assert slot_products() <= 20


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------


def test_measure_deterministic():
    outcomes = SparseState.basis((1, 0)).measure([0])
    assert len(outcomes) == 1
    (o,) = outcomes
    assert o.counts == (1,)
    assert o.probability == pytest.approx(1.0)
    assert o.residual.modes == 1
    assert o.residual.amplitude((0,)) == pytest.approx(1.0)


def test_measure_equal_superposition():
    s = SparseState(2, {(1, 0): INV_SQRT2, (0, 1): INV_SQRT2})
    outcomes = {o.counts: o for o in s.measure([0])}
    assert outcomes[(1,)].probability == pytest.approx(0.5)
    assert outcomes[(0,)].probability == pytest.approx(0.5)
    assert outcomes[(1,)].residual.amplitude((0,)) == pytest.approx(1.0)
    assert outcomes[(0,)].residual.amplitude((1,)) == pytest.approx(1.0)


def test_measure_register_state_n2():
    # Equal three-term register state: measuring the x side gives each
    # photon count 1/3 and leaves the matching y pattern.
    amp = 1.0 / math.sqrt(3.0)
    s = SparseState(
        4,
        {
            (0, 0, 1, 1): amp,
            (1, 0, 0, 1): amp,
            (1, 1, 0, 0): amp,
        },
    )
    outcomes = {o.counts: o for o in s.measure([0, 1])}
    assert len(outcomes) == 3
    expected_residual = {(0, 0): (1, 1), (1, 0): (0, 1), (1, 1): (0, 0)}
    for counts, o in outcomes.items():
        assert o.probability == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert abs(o.residual.amplitude(expected_residual[counts])) == pytest.approx(1.0)


def test_measure_probabilities_sum_to_one_random():
    rng = random.Random(41)
    for _ in range(100):
        modes = rng.randint(2, 4)
        s = random_state(rng, modes, 3)
        picked = rng.sample(range(modes), rng.randint(1, modes))
        outcomes = s.measure(picked)
        assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-9)
        for o in outcomes:
            assert o.residual.norm_squared() == pytest.approx(1.0, abs=1e-9)
            assert o.residual.modes == modes - len(picked)


def reference_measure(state, modes):
    """(counts, probability, residual) per outcome in sorted order.  Each
    term goes to the bucket of its measured counts; a bucket's probability
    is its squared moduli added left to right, and its residual the bucket
    scaled by 1/sqrt(p) through the validating constructor."""
    keep = [m for m in range(state.modes) if m not in modes]
    grouped = {}
    for occ, a in state.terms.items():
        grouped.setdefault(tuple(occ[m] for m in modes), {})[tuple(occ[m] for m in keep)] = a
    results = []
    for counts in sorted(grouped):
        bucket = grouped[counts]
        prob = fock._sum_in_order(abs(a) ** 2 for a in bucket.values())
        if prob > PRUNE_TOLERANCE**2:
            scale = 1.0 / math.sqrt(prob)
            residual = SparseState(len(keep), {k: a * scale for k, a in bucket.items()})
            results.append((counts, prob, residual))
    return results


def outcome_bits(outcomes):
    """Each outcome's counts, probability and residual, bit for bit."""
    return [(counts, repr(prob), exact_terms(residual)) for counts, prob, residual in outcomes]


@pytest.mark.parametrize("modes", [[2, 0], [1], [0, 1, 2], [2, 1, 0]], ids=str)
def test_measure_matches_reference(modes):
    rng = random.Random(11)
    s = random_state(rng, 3, 3, n_terms=8)
    outcomes = s.measure(modes)
    assert all(type(o.counts) is tuple and len(o.counts) == len(modes) for o in outcomes)
    assert outcome_bits(outcomes) == outcome_bits(reference_measure(s, modes))


@pytest.mark.parametrize(
    "terms, modes, outcome",
    [
        ({(0, 0): 1e200, (0, 1): 1.0}, [0], r"\(0,\)"),
        ({(0, 0): 1e154, (0, 1): 1e154, (1, 0): 1.0}, [0], r"\(0,\)"),
        ({(0, 1): 1.0, (1, 0): 1e200}, [0, 1], r"\(1, 0\)"),
        ({(0, 1): 1.0, (1, 0): 1e200}, [1, 0], r"\(0, 1\)"),
    ],
    ids=["square-overflows", "sum-overflows", "square-overflows-[0, 1]", "square-overflows-[1, 0]"],
)
def test_measure_refuses_an_outcome_past_the_float_range(terms, modes, outcome):
    # Every amplitude is finite, but one outcome has norm^2 past the float
    # range: 1e200 squared overflows, 1e154 squared twice sums to inf.  With
    # every mode listed the lone 1e200 term is its own outcome, its counts
    # read in the order of the listed modes.
    with pytest.raises(InvalidState, match=rf"outcome {outcome} has a norm\^2 past the float range"):
        SparseState(2, terms).measure(modes)


def test_measure_keeps_outcomes_inside_the_float_range():
    state = SparseState(2, {(0, 0): 1e153, (0, 1): 1e153, (1, 0): 1.0})
    (low, high) = state.measure([0])
    assert low.probability == 2e306 and len(low.residual) == 2
    assert high.probability == 1.0
    # Every mode listed: each term is its own outcome, its square 1e306.
    outcomes = state.measure([1, 0])
    assert [(o.counts, o.probability) for o in outcomes] == [
        ((0, 0), 1e306), ((0, 1), 1.0), ((1, 0), 1e306)
    ]
    assert all(o.residual.terms == {(): 1.0 + 0j} for o in outcomes)


def test_float_sums_add_left_to_right():
    # Python 3.12's sum compensates: it returns 1.0 and 1.0000000000000002e16
    # here.  Adding in order gives the same digits on every version.
    assert fock._sum_in_order([1e16, 1.0, -1e16]) == 0.0
    state = SparseState(3, {(1, 0, 0): 1.0, (0, 1, 0): 1e8, (0, 0, 1): 1.0})
    assert state.norm_squared() == 1e16
    assert state.measure([0, 1, 2])[2].probability == 1.0
    assert repr(fock._sum_in_order([])) == "0.0"


# ----------------------------------------------------------------------
# measure and apply_phase bit for bit: held by reference_measure, a digest
# of apply_phase's outputs and check_state (test_invariants)
# ----------------------------------------------------------------------


# sha256 of ``exact_terms`` of each output below, taken from the retired
# reference body of ``apply_phase``: one ``_cis`` factor per term, then ``_like``.
PHASE_DIGEST = "8845d3fd51efb78153addcd3ade21c9f6f859e21c191f0f03f1fba3e350a591f"


def fast_path_inputs():
    rng = random.Random(2024)
    states = [signed_zero_state(rng, rng.randint(2, 5), 4) for _ in range(40)]
    states += [random_state(rng, rng.randint(1, 4), 5, n_terms=10) for _ in range(20)]
    states.append(SparseState(3))
    return rng, states


def test_fast_path_inputs_cover_the_edge_cases():
    _, states = fast_path_inputs()
    parts = [[x for a in s.terms.values() for x in (a.real, a.imag)] for s in states]
    negative_zeros = [p for p in parts if any(x == 0 and math.copysign(1.0, x) < 0 for x in p)]
    assert len(negative_zeros) >= 10
    assert any(max(occ) >= 2 for s in states for occ in s.terms)


def test_measure_fast_path_is_bit_identical_to_reference():
    rng, states = fast_path_inputs()
    # Unnormalized: the outcome (0,) has norm^2 4, so its 1.5e-12 term
    # rescales to 7.5e-13 and is pruned from the residual.
    unnormalized = SparseState(2, {(0, 0): 2.0, (0, 1): 1.5e-12, (1, 0): 0.5j})
    assert len(unnormalized.measure([0])[0].residual) == 1
    # An outcome of norm^2 exactly PRUNE_TOLERANCE^2 is dropped: no outcomes.
    faint = SparseState(2, {(0, 1): PRUNE_TOLERANCE})
    assert faint.measure([1]) == []
    assert faint.measure([0, 1]) == []
    for state in states + [unnormalized, faint]:
        for size in range(1, state.modes + 1):
            modes = rng.sample(range(state.modes), size)
            want = outcome_bits(reference_measure(state, modes))
            assert outcome_bits(state.measure(modes)) == want


def test_measure_leaves_its_input_alone():
    # Each residual holds a dict measure built for it: a bucket scaled in
    # place, or the one-term dict of an outcome that lists every mode.  The
    # input keeps its dict and every amplitude bit, and no two residuals or
    # a residual and the input share a dict.
    rng, states = fast_path_inputs()
    for state in states:
        terms, before = state.terms, exact_terms(state)
        for size in range(1, state.modes + 1):
            outcomes = state.measure(rng.sample(range(state.modes), size))
            assert state.terms is terms and exact_terms(state) == before
            dicts = {id(o.residual.terms) for o in outcomes}
            assert len(dicts) == len(outcomes) and id(terms) not in dicts


def test_phase_fast_path_is_bit_identical_to_reference():
    rng, states = fast_path_inputs()
    # A phase of 0.3 at mode 0 rounds the modulus of the faint term from
    # 1e-12 to below the prune tolerance; the term empty there is kept.
    faint = complex(-9.500635012429373e-13, 3.120566352539412e-13)
    edge = SparseState(2, {(1, 0): faint, (0, 1): 1.0})
    assert len(edge) == 2 and list(edge.apply_phase(0, 0.3).terms) == [(0, 1)]
    phases = [0.0, math.pi, -math.pi / 2, 0.3, 2.3, 1e17, math.pi * 2**18]
    outputs = [
        state.apply_phase(mode, phi)
        for state in states + [edge]
        for mode in range(state.modes)
        for phi in phases + [rng.uniform(-10.0, 10.0)]
    ]
    assert digest(map(exact_terms, outputs)) == PHASE_DIGEST


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize(
    "terms",
    [{}, {(0, 1): 1.0}, {(1, 0): 1.0}, {(0, 1): 0.6, (1, 0): 0.8}, {(2, 0): 0.6, (0, 0): 0.8}],
    ids=["empty", "count-0", "count-1", "mixed", "count-2-first"],
)
def test_phase_fast_path_refuses_as_reference_does(terms, phi):
    # A NaN factor would fail the prune and vanish silently: whether or not
    # a term meets the phase, a non-finite one is refused.  An infinite
    # phase on a photon has no cos/sin; on an empty mode it gives a NaN.
    state = SparseState(2, terms)
    if not terms:
        assert exact_terms(state.apply_phase(0, phi)) == (2, [])
    elif math.isinf(phi) and any(occ[0] for occ in terms):
        with pytest.raises(InvalidCoefficient, match="is not finite"):
            state.apply_phase(0, phi)
    else:
        with pytest.raises(InvalidState, match="non-finite amplitude"):
            state.apply_phase(0, phi)


# ----------------------------------------------------------------------
# diagonal basis phases
# ----------------------------------------------------------------------


def test_basis_phase_identity():
    s = SparseState(2, {(1, 1): 1.0})
    assert s.apply_basis_phase(lambda occ: 0.0).amplitude((1, 1)) == 1.0


def test_basis_phase_controlled_sign_table():
    for occ, sign in [((1, 1), -1.0), ((1, 0), 1.0), ((0, 1), 1.0), ((0, 0), 1.0)]:
        s = SparseState.basis(occ).apply_basis_phase(
            lambda o: math.pi if o[0] >= 1 and o[1] >= 1 else 0.0
        )
        assert s.amplitude(occ) == pytest.approx(sign)


def test_basis_phase_product_parity():
    # Phase pi * j * j' on a two-block key flips exactly the odd-odd terms.
    def phase(occ):
        j = sum(occ[:2])
        jp = sum(occ[2:])
        return math.pi * j * jp

    s = SparseState(4, {(1, 0, 1, 0): 0.5, (1, 1, 1, 0): 0.5, (1, 0, 0, 0): 0.5, (0, 0, 1, 1): 0.5})
    out = s.apply_basis_phase(phase)
    assert out.amplitude((1, 0, 1, 0)) == pytest.approx(-0.5)
    assert out.amplitude((1, 1, 1, 0)) == pytest.approx(0.5)
    assert out.amplitude((1, 0, 0, 0)) == pytest.approx(0.5)
    assert out.amplitude((0, 0, 1, 1)) == pytest.approx(0.5)


# ----------------------------------------------------------------------
# structure and serialization
# ----------------------------------------------------------------------


def test_tensor_and_extend_and_drop():
    a = SparseState(1, {(1,): 1.0})
    b = SparseState(2, {(0, 1): 1.0})
    ab = a.tensor(b)
    assert ab.amplitude((1, 0, 1)) == pytest.approx(1.0)
    padded = a.extend(2)
    assert padded.amplitude((1, 0, 0)) == pytest.approx(1.0)
    dropped = ab.drop_modes([1])
    assert dropped.amplitude((1, 1)) == pytest.approx(1.0)


def test_extend_refuses_a_negative_count():
    s = SparseState(2, {(1, 0): 1})
    with pytest.raises(ModeOutOfRange):
        s.extend(-1)
    assert exact_terms(s.extend(0)) == exact_terms(s)


@pytest.mark.parametrize("modes", [[5], [-1], [0, 2]], ids=str)
def test_drop_modes_refuses_a_mode_out_of_range(modes):
    with pytest.raises(ModeOutOfRange):
        SparseState(2, {(1, 0): 1}).drop_modes(modes)


@pytest.mark.parametrize(
    "call",
    [
        lambda s: s.measure([0.7]),
        lambda s: s.measure([True]),
        lambda s: s.apply_linear_transform((0.9, 1.2), [[0, 1], [1, 0]]),
        lambda s: s.apply_linear_transform((0, True), [[0, 1], [1, 0]]),
        lambda s: s.apply_beamsplitter(0, 2.0, 0.5),
        lambda s: s.apply_phase(1.0, 0.3),
        lambda s: s.drop_modes([1.5]),
        lambda s: s.drop_modes([False]),
        lambda s: s.permute_modes([2, 1, 0.0]),
        lambda s: s.permute_modes([2, True, 0]),
        lambda s: s.permute_modes(["0", 1, 2]),
    ],
    ids=[
        "measure-float",
        "measure-bool",
        "transform-floats",
        "transform-bool",
        "beamsplitter-float",
        "phase-float",
        "drop-float",
        "drop-bool",
        "permute-float",
        "permute-bool",
        "permute-str",
    ],
)
def test_mode_indices_must_be_ints(call):
    # int() would truncate 0.7 to mode 0 and read True as mode 1.
    with pytest.raises(ModeOutOfRange, match="not an integer"):
        call(SparseState(3, {(1, 0, 2): 0.6, (0, 1, 1): 0.8}))


@pytest.mark.parametrize("extra", [1.5, 2.0, True, "1"], ids=repr)
def test_extend_refuses_a_count_that_is_not_an_int(extra):
    with pytest.raises(ModeOutOfRange):
        SparseState(2, {(1, 0): 1}).extend(extra)


def test_permute_modes():
    s = SparseState(3, {(2, 1, 0): 1.0})
    out = s.permute_modes([2, 1, 0])
    assert out.amplitude((0, 1, 2)) == pytest.approx(1.0)
    with pytest.raises(ModeOutOfRange):
        s.permute_modes([0, 0, 1])


def test_drop_and_permute_down_to_one_or_no_modes():
    s = SparseState(3, {(1, 0, 2): 0.6, (1, 1, 2): 0.8})
    assert s.drop_modes([0, 2]).terms == {(0,): 0.6 + 0j, (1,): 0.8 + 0j}
    assert s.drop_modes([0, 1, 2]).terms == {(): 1.4 + 0j}
    one = SparseState(1, {(2,): 1.0})
    assert one.permute_modes([0]).terms == {(2,): 1.0 + 0j}


def test_json_round_trip_sorted():
    s = SparseState(2, {(1, 0): 0.6, (0, 1): 0.8j}).normalized()
    data = s.to_json_dict()
    assert data["modes"] == 2
    assert [t["occ"] for t in data["terms"]] == [[0, 1], [1, 0]]
    back = SparseState.from_json_dict(data)
    assert fidelity(s, back) == pytest.approx(1.0)


def test_non_finite_amplitudes_rejected():
    with pytest.raises(ValueError):
        SparseState(1, {(1,): float("nan")})
    with pytest.raises(ValueError):
        SparseState(1, {(1,): complex(0, math.inf)})


@pytest.mark.parametrize(
    "key", [(1.5,), ("1",), (None,), (math.nan,), (math.inf,), 5, (True,), (False,)], ids=repr
)
def test_non_integral_photon_counts_rejected(key):
    # int() would take 1.5, "1" and True as the count 1; the constructor
    # refuses them, from_json_dict relies on it, and never with a bare TypeError.
    with pytest.raises(InvalidState, match="are not all integers"):
        SparseState(1, {key: 1.0})


@pytest.mark.parametrize(
    "occs, match",
    [
        ([[1.5]], "are not all integers"),
        ([["1"]], "are not all integers"),
        ([[True]], r"photon counts \(True,\) are not all integers"),
        ([[[1]]], "malformed state data"),
        ([1], "malformed state data"),
        ([[1], [1.0]], r"occupation \[1.0\] is listed twice"),
    ],
    ids=["fraction", "string", "bool", "nested-list", "not-a-list", "int-and-float"],
)
def test_json_photon_counts_refused_at_the_constructor(occs, match):
    rows = [{"occ": occ, "re": 0.6, "im": 0.0} for occ in occs]
    with pytest.raises(InvalidState, match=match):
        SparseState.from_json_dict({"modes": 1, "terms": rows})


@pytest.mark.parametrize("modes", [2.7, True, False, "2", None, math.nan, math.inf], ids=repr)
def test_non_integral_mode_counts_rejected(modes):
    # int() would build a 2-mode state from 2.7 and a 1-mode one from True.
    with pytest.raises(InvalidState, match="is not an integer"):
        SparseState(modes, {(1, 0): 1.0})
    with pytest.raises(InvalidState, match="is not an integer"):
        SparseState(modes)


@pytest.mark.parametrize("modes", [-1, -2, -1.0], ids=repr)
def test_negative_mode_counts_rejected(modes):
    # A negative count would give extend and tensor a short key length.
    with pytest.raises(InvalidState, match="is negative"):
        SparseState(modes)
    with pytest.raises(InvalidState, match="is negative"):
        SparseState.from_json_dict({"modes": modes, "terms": []})


def test_vacuum_refuses_a_negative_mode_count():
    with pytest.raises(InvalidState, match="mode count -1 is negative"):
        SparseState.vacuum(-1)
    assert SparseState.vacuum(0).terms == {(): 1.0 + 0j}


def test_integral_float_mode_count_accepted():
    state = SparseState(2.0, {(1, 0): 1.0})
    assert state.modes == 2 and type(state.modes) is int


def test_integral_float_photon_counts_accepted():
    assert SparseState(2, {(1.0, 0): 1.0}).terms == {(1, 0): 1.0 + 0j}


def test_basis_refuses_non_integral_counts():
    with pytest.raises(InvalidState, match=r"photon counts \(2.7, 0\) are not all integers"):
        SparseState.basis((2.7, 0))
    assert SparseState.basis([2.0, 0]).terms == {(2, 0): 1.0 + 0j}


def test_negative_counts_and_wrong_lengths_still_rejected():
    with pytest.raises(InvalidState, match="negative photon count"):
        SparseState(2, {(1, -1): 1.0})
    with pytest.raises(DimensionMismatch):
        SparseState(2, {(1,): 1.0})


def test_picker_returns_tuples_for_one_and_no_indices():
    occ = (3, 1, 4)
    assert fock._picker([1])(occ) == (1,)
    assert fock._picker([])(occ) == ()
    assert fock._picker([2, 0])(occ) == (4, 3)


def test_picker_takes_a_run_of_indices_as_one_slice():
    occ = (3, 1, 4, 1, 5)
    assert fock._picker([1, 2, 3])(occ) == (1, 4, 1)
    assert fock._picker(range(2, 5))(occ) == (4, 1, 5)
    assert repr(fock._picker([0, 1])) == repr(operator.itemgetter(slice(0, 2)))
    assert repr(fock._picker([3])) == repr(operator.itemgetter(slice(3, 4)))
    # Descending, gapped or repeated indices pick entry by entry.
    for indices in ([1, 0], [0, 2], [1, 1], [4, 3, 2]):
        assert fock._picker(indices)(occ) == tuple(occ[i] for i in indices)
        assert "slice" not in repr(fock._picker(indices))
