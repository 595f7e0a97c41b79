"""The state invariant: what ``loqc_ancilla.fock`` promises of every state.

Every public operation returns a state that passes :func:`check_state`,
whether it was built through the validating constructor or a trusted path
that skips the validation.  ``test_invariants`` runs it on the output of
each one.
"""

import math

from loqc_ancilla.fock import PRUNE_TOLERANCE


def check_state(state) -> None:
    """Assert that ``state`` keys its terms by ``modes``-long tuples of
    non-negative ints and that each amplitude is a ``complex`` of finite
    modulus at least ``PRUNE_TOLERANCE`` with no -0.0 part."""
    modes = state.modes
    assert type(modes) is int and modes >= 0, modes
    assert type(state.terms) is dict
    for occ, a in state.terms.items():
        assert type(occ) is tuple and len(occ) == modes, (modes, occ)
        assert all(type(c) is int and c >= 0 for c in occ), occ
        assert type(a) is complex, (occ, a)
        try:
            size = abs(a)
        except OverflowError:  # finite parts, modulus past the float range
            size = math.inf
        assert PRUNE_TOLERANCE <= size < math.inf, (occ, a)
        assert all(x or math.copysign(1.0, x) > 0 for x in (a.real, a.imag)), (occ, a)
