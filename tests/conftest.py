"""Shared helpers: random states and independent brute-force oracles.

The oracles here deliberately avoid the package's combinatoric shortcuts:
two-mode transforms are expanded by repeated polynomial multiplication in
the creation operators, one factor at a time.
"""

from __future__ import annotations

import collections
import hashlib
import inspect
import math
import os
import random

import pytest

import loqc_ancilla
from loqc_ancilla import SparseState, fock, pipeline

# Child interpreters import the same package as this process, whether it is
# installed or found through pytest's ``pythonpath`` setting.
_SOURCE_ROOT = os.path.dirname(os.path.dirname(loqc_ancilla.__file__))
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        p for p in (_SOURCE_ROOT, os.environ.get("PYTHONPATH")) if p
    ),
}


def random_state(rng: random.Random, modes: int, max_photons: int, n_terms: int = 4) -> SparseState:
    keys = set()
    guard = 0
    while len(keys) < n_terms and guard < 100:
        guard += 1
        occ = [0] * modes
        for _ in range(rng.randint(0, max_photons)):
            occ[rng.randrange(modes)] += 1
        keys.add(tuple(occ))
    terms = {
        k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in keys
    }
    return SparseState(modes, terms).normalized()


def signed_zero_state(rng: random.Random, modes: int, max_photons: int) -> SparseState:
    """Random state whose amplitudes carry -0.0 and +0.0 parts: an input no
    public constructor builds, since each maps -0.0 to +0.0, so the terms
    are set directly.  Operations that rebuild their terms must not pass a
    -0.0 on."""
    state = random_state(rng, modes, max_photons, n_terms=8)
    state.terms = {
        occ: complex(rng.choice((a.real, -0.0, 0.0)), rng.choice((-0.0, 0.0, a.imag)))
        if abs(a.real) > 0.1 and abs(a.imag) > 0.1
        else a
        for occ, a in state.terms.items()
    }
    return state


def exact_terms(state):
    """Modes, then every term in dict order with the repr of its amplitude,
    so signed zeros and the last bit count."""
    return state.modes, [(occ, repr(a)) for occ, a in state.terms.items()]


def digest(results) -> str:
    """sha256 of the repr of ``results``, such as ``exact_terms`` of each of
    a run of states: every key, the order of the terms and every amplitude
    bit count, signed zeros included."""
    return hashlib.sha256(repr(list(results)).encode()).hexdigest()


def random_qubit(rng: random.Random):
    from loqc_ancilla import InputQubit

    return InputQubit.of(
        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
    )


@pytest.fixture
def gate_calls(monkeypatch):
    """Counter of the gate calls the pipeline makes, by gate function name.

    Wraps the gate functions ``pipeline`` imports, so the counts come from
    the calls that ran.  Gated conditional transfers are also counted under
    ``"gated_transfer"``.
    """
    calls = collections.Counter()
    for name in ("conditional_transfer", "controlled_sign", "cnot_logical", "toffoli_logical"):
        original = getattr(pipeline, name)

        def counted(*args, _name=name, _original=original, _sig=inspect.signature(original), **kwargs):
            calls[_name] += 1
            if _sig.bind(*args, **kwargs).arguments.get("control") is not None:
                calls["gated_transfer"] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, counted)
    return calls


def empty_memo(monkeypatch) -> None:
    """Give ``fock`` an empty last-transform slot; the shared one returns after the test."""
    monkeypatch.setattr(fock, "_last_transform", ((), {}))


# ----------------------------------------------------------------------
# polynomial oracle for two-mode linear transforms
# ----------------------------------------------------------------------


def _poly_mul(p1: dict, p2: dict) -> dict:
    out: dict = {}
    for (i1, j1), c1 in p1.items():
        for (i2, j2), c2 in p2.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0j) + c1 * c2
    return out


def poly_two_mode_image(occ: tuple[int, int], matrix) -> dict:
    """Image of |occ> under a 2x2 mode transform, by brute expansion.

    Each creation operator is substituted by its transformed row and the
    product polynomial is multiplied out factor by factor; coefficients are
    then converted back to Fock amplitudes with the factorial weights.
    """
    p, q = occ
    start = 1.0 / math.sqrt(math.factorial(p) * math.factorial(q))
    poly = {(0, 0): complex(start)}
    row0 = {(1, 0): complex(matrix[0][0]), (0, 1): complex(matrix[0][1])}
    row1 = {(1, 0): complex(matrix[1][0]), (0, 1): complex(matrix[1][1])}
    for _ in range(p):
        poly = _poly_mul(poly, row0)
    for _ in range(q):
        poly = _poly_mul(poly, row1)
    return {
        key: c * math.sqrt(math.factorial(key[0]) * math.factorial(key[1]))
        for key, c in poly.items()
        if abs(c) > 0
    }


def beamsplitter_matrix(t: float):
    r = math.sqrt(1.0 - t * t)
    return [[t, 1j * r], [1j * r, t]]


def dense_two_mode_matrix(matrix, max_total: int):
    """Dense transform matrix on the 2-mode Fock space with <= max_total photons."""
    basis = [
        (p, total - p) for total in range(max_total + 1) for p in range(total + 1)
    ]
    index = {b: i for i, b in enumerate(basis)}
    dim = len(basis)
    dense = [[0j] * dim for _ in range(dim)]
    for j, occ in enumerate(basis):
        image = poly_two_mode_image(occ, matrix)
        for key, amp in image.items():
            dense[index[key]][j] = amp
    return basis, dense


def assert_dense_unitary(dense, tol: float = 1e-12) -> None:
    dim = len(dense)
    for i in range(dim):
        for j in range(dim):
            acc = 0j
            for k in range(dim):
                acc += dense[k][i].conjugate() * dense[k][j]
            target = 1.0 if i == j else 0.0
            assert abs(acc - target) < tol, (i, j, acc)
