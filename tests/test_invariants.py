"""Every public operation returns a state that holds the state invariant."""

import math
import random

import pytest

from loqc_ancilla import (
    AmplitudeProfile,
    InputQubit,
    PhaseMethod,
    SparseState,
    TransferSetting,
    build_entangled_pair,
    build_single_register,
    cnot_logical,
    conditional_transfer,
    controlled_sign,
    cz_via_double_teleportation,
    direct_oracle_pair,
    direct_oracle_single,
    teleport,
    toffoli_logical,
    transfer_gadget,
    transmission_for_probability,
)
from loqc_ancilla import dots
from loqc_ancilla.pipeline import single_register_pattern
from loqc_ancilla.teleport import qft_matrix
from conftest import random_qubit, random_state, signed_zero_state
from invariants import check_state

RNG = random.Random(2600)
# |1,1> (a balanced beamsplitter cancels its (1,1) output exactly), the
# empty state, random states, and two-mode states of up to 40 photons.
VALID = [SparseState.basis((1, 1)), SparseState(3)]
VALID += [random_state(RNG, RNG.randint(2, 5), 4, n_terms=RNG.randint(1, 10)) for _ in range(16)]
VALID += [random_state(RNG, 2, 40, n_terms=4) for _ in range(6)]
# Inputs with -0.0 parts: every operation that rebuilds its terms passes
# none on.  The exact signs and flips edit a copy of their input's dict and
# keep its bits, so they take the valid binary states only.
INPUTS = VALID + [signed_zero_state(RNG, RNG.randint(2, 5), 4) for _ in range(16)]


def binary_state(modes):
    """At most one photon per mode; amplitudes with a zero real or imaginary
    part, which an exact sign must negate without a -0.0."""
    keys = {tuple(RNG.choice((0, 1)) for _ in range(modes)) for _ in range(8)}
    return SparseState(modes, {k: RNG.choice((0.5, 0.5j, 0.3 - 0.4j)) for k in keys})


BINARY = [binary_state(m) for m in (4, 5, 6) * 4]
MATRIX = [[complex(RNG.gauss(0, 1), RNG.gauss(0, 1)) for _ in range(2)] for _ in range(2)]
QUBITS = [InputQubit.one(), InputQubit.plus()] + [random_qubit(RNG) for _ in range(6)]
SETTING = transmission_for_probability(0.3)
INHIBITED = TransferSetting(0.6, 0.8, math.pi)


def profiles(n, signed=False):
    """Constant, delta, random, zero-weight and faint profiles, and for the
    oracles a signed one."""
    values = [RNG.uniform(0.1, 1.0) for _ in range(n + 1)]
    shapes = [[1.0] * (n + 1), [0.0] * n + [1.0], values]
    shapes += [[0.0 if j % 2 else v for j, v in enumerate(values)], [1e-13] + values[1:]]
    if signed:
        shapes.append([v * RNG.choice((-1, 1)) for v in values])
    return [(n, AmplitudeProfile.from_values(v)) for v in shapes]


PROFILES = [p for n in range(1, 5) for p in profiles(n)]
SIGNED = [p for n in range(1, 5) for p in profiles(n, signed=True)]
# Teleports through the signed oracles, and a faint qubit value through an
# unnormalized register of weights 100: its part 2e-12 of the mixed input
# passes the prune, but its share 2e-14 of the unit residual does not.
TELEPORTS = [(QUBITS[n], direct_oracle_single(n, p), n) for n, p in SIGNED]
TELEPORTS.append(
    (
        InputQubit.of(2e-14, 1.0),
        SparseState(4, {single_register_pattern(2, j): 100.0 for j in range(3)}),
        2,
    )
)

OPERATIONS = {
    "SparseState": lambda: [SparseState(s.modes, s.terms) for s in INPUTS]
    + [SparseState(2, {(1, 0): 1e-12, (0, 1): 9e-13, (1, 1): complex(-0.0, 0.5)})],
    "basis-vacuum": lambda: [SparseState.basis(k) for s in VALID for k in s.terms]
    + [SparseState.vacuum(3)],
    "from_json_dict": lambda: [SparseState.from_json_dict(s.to_json_dict()) for s in INPUTS],
    "normalized": lambda: [s.normalized() for s in INPUTS if s.terms],
    "apply_phase": lambda: [
        s.apply_phase(m, phi) for s in INPUTS for m in range(s.modes) for phi in (0.3, math.pi, 1e17)
    ],
    "apply_basis_phase": lambda: [
        s.apply_basis_phase(lambda occ: 0.7 * sum(occ) + math.pi * occ[0]) for s in INPUTS
    ],
    "apply_beamsplitter": lambda: [
        s.apply_beamsplitter(*modes, t)
        for s in INPUTS
        for modes in ((0, 1), (s.modes - 1, 0))
        for t in (0.0, 0.37, 1 / math.sqrt(2.0), 1.0)
    ],
    "apply_linear_transform": lambda: [
        t for s in INPUTS for t in (
            s.apply_linear_transform([s.modes - 1, 0], MATRIX),
            s.apply_linear_transform(range(s.modes), qft_matrix(s.modes)),
        )
    ],
    # Leading modes with a tail: an input whose terms are each alone in
    # their (photon total, tail) class and one with a shared class take
    # different product loops.
    "apply_linear_transform-leading": lambda: [
        s.apply_linear_transform([0, 1], MATRIX) for s in INPUTS if s.modes >= 3
    ],
    "measure": lambda: [
        o.residual for s in INPUTS for k in range(s.modes) for o in s.measure(range(k, s.modes, 2))
    ],
    "tensor": lambda: [a.tensor(b) for a, b in zip(INPUTS, reversed(INPUTS))],
    "extend": lambda: [s.extend(2) for s in INPUTS],
    "drop_modes": lambda: [s.drop_modes([m]) for s in INPUTS for m in range(s.modes)],
    "permute_modes": lambda: [s.permute_modes(list(reversed(range(s.modes)))) for s in INPUTS],
    "transfer_gadget": lambda: [
        transfer_gadget(s, 0, 1, st) for s in INPUTS if s.modes >= 3 for st in (SETTING, INHIBITED)
    ],
    "conditional_transfer": lambda: [
        conditional_transfer(s, 2, 0, st, c)
        for s in INPUTS
        if s.modes >= 3
        for st, c in ((SETTING, None), (SETTING, 1), (INHIBITED, None))
    ],
    "controlled_sign": lambda: [
        controlled_sign(s, c, 3) for s in BINARY for c in (set(), {0}, {0, 1, 2})
    ],
    "cnot_logical": lambda: [cnot_logical(s, c, t) for s in BINARY for c, t in ((0, 3), (3, 1))],
    "toffoli_logical": lambda: [toffoli_logical(s, 0, 1, 3) for s in BINARY],
    "build_single_register": lambda: [build_single_register(n, p) for n, p in PROFILES],
    **{
        f"build_entangled_pair-{m.value}": lambda m=m: [
            build_entangled_pair(n, p, m) for n, p in PROFILES
        ]
        for m in PhaseMethod
    },
    "direct_oracles": lambda: [
        f(n, p) for n, p in SIGNED for f in (direct_oracle_single, direct_oracle_pair)
    ],
    "rabi": lambda: [
        dots.rabi(s, 0, 1, theta, only_if)
        for s in BINARY
        for theta in (0.3, math.pi / 2, 2.1)
        for only_if in (None, 2)
    ],
    # A dot may be loaded where every branch holds the same count there.
    "load_from_reservoir": lambda: [
        dots.load_from_reservoir(s, m)
        for s in BINARY + [SparseState(4, {(0, 1, 0, 0): 0.6, (0, 0, 1, 0): 0.8j})]
        for m in range(s.modes)
        if len({occ[m] for occ in s.terms}) == 1
    ],
    "execute": lambda: [dots.execute(dots.compile_schedule(n, p)) for n, p in PROFILES]
    + [dots.execute(dots.compile_pair_schedule(n, p, 0.3)) for n, p in PROFILES[:15]],
    "prepare_pair": lambda: [dots.prepare_pair(n, p, -0.6)[0] for n, p in PROFILES],
    "emit_photons": lambda: [
        dots.emit_photons(dots.execute(dots.compile_schedule(n, p)), n) for n, p in PROFILES
    ],
    "InputQubit.state": lambda: [q.state() for q in QUBITS],
    "teleport": lambda: [
        o.output_state
        for qubit, ancilla, n in TELEPORTS
        for o in teleport(qubit, ancilla, n)
        if o.output_state is not None
    ],
    "cz_via_double_teleportation": lambda: [
        r.output_qubits
        for n, p in SIGNED[:12]
        for qa, qb in (QUBITS[:2], QUBITS[6:])
        for r in [cz_via_double_teleportation(qa, qb, direct_oracle_pair(n, p), n)]
        if r.output_qubits is not None
    ],
}


@pytest.mark.parametrize("operation", list(OPERATIONS))
def test_every_output_holds_the_state_invariant(operation):
    outputs = OPERATIONS[operation]()
    assert outputs
    for state in outputs:
        check_state(state)


def test_inputs_hold_signed_zeros_counts_to_20_and_an_exact_cancellation():
    parts = [x for s in INPUTS for a in s.terms.values() for x in (a.real, a.imag)]
    assert sum(1 for x in parts if x == 0 and math.copysign(1.0, x) < 0) >= 10
    assert max(c for s in VALID for occ in s.terms for c in occ) >= 20
    hom = SparseState.basis((1, 1)).apply_beamsplitter(0, 1, 1 / math.sqrt(2.0))
    assert list(hom.terms) == [(2, 0), (0, 2)]


@pytest.mark.parametrize(
    "modes, terms",
    [
        (2.0, {(1, 0): 1 + 0j}),
        (2, {(1,): 1 + 0j}),
        (2, {(1, -1): 1 + 0j}),
        (2, {(1, True): 1 + 0j}),
        (2, {(1.0, 0): 1 + 0j}),
        (2, {(1, 0): 1.0}),
        (2, {(1, 0): complex(math.nan, 0.0)}),
        (2, {(1, 0): complex(0.0, math.inf)}),
        (2, {(1, 0): complex(1.5e308, 1.5e308)}),
        (2, {(1, 0): 9e-13 + 0j}),
        (2, {(1, 0): complex(-0.0, 1.0)}),
        (2, {(1, 0): complex(1.0, -0.0)}),
    ],
    ids=["float-modes", "short-key", "negative-count", "bool-count", "float-count",
         "float-amplitude", "nan", "inf", "modulus-overflow", "faint", "negative-zero-real",
         "negative-zero-imag"],
)
def test_check_state_refuses_each_broken_promise(modes, terms):
    state = SparseState(2)
    state.modes, state.terms = modes, terms
    with pytest.raises(AssertionError):
        check_state(state)
