"""The immutable records: construction, defaults, equality, hashing,
immutability and ``repr`` of each class built on ``fock._Record``."""

import copy
import pickle

import pytest

from loqc_ancilla.dots import (
    InteractionPhase,
    LoadFromReservoir,
    PulseSchedule,
    RabiPulse,
    Thermalize,
    UGateCorrection,
)
from loqc_ancilla.errors import InvalidProfile
from loqc_ancilla.gates import TransferSetting
from loqc_ancilla.pipeline import PhaseMethod
from loqc_ancilla.profiles import AmplitudeProfile, TransferSchedule
from loqc_ancilla.resources import AttemptEstimate, FailureScaling, GateCountReport
from loqc_ancilla.teleport import CzBranch, CzGateResult, InputQubit

# (class, positional arguments, repr).  Each repr is the one the frozen
# dataclasses these classes replaced gave for the same arguments.
RECORDS = [
    (TransferSetting, (0.6, 0.8), "TransferSetting(t=0.6, r=0.8, phi=0.0)"),
    # Stored normalized: n an int, f a tuple of unit norm.
    (AmplitudeProfile, (2.0, [3, 4, 0]), "AmplitudeProfile(n=2, f=(0.6, 0.8, 0.0))"),
    (TransferSchedule, ((0.5, 1.0),), "TransferSchedule(probabilities=(0.5, 1.0))"),
    (
        GateCountReport,
        (2, PhaseMethod.PAIRWISE_GATES, 2, 4, 0, 6, 0.25, 0.25**6),
        "GateCountReport(n=2, method=<PhaseMethod.PAIRWISE_GATES: 'pairwise'>, "
        "conditional_transfer_gates=2, phase_gates=4, fixed_gates=0, total_gates=6, "
        "per_gate_success=0.25, success_probability=0.000244140625)",
    ),
    (FailureScaling, (0.5, 0.25), "FailureScaling(klm=0.5, high_fidelity=0.25)"),
    (AttemptEstimate, (1.5, 0.25, 4), "AttemptEstimate(mean=1.5, standard_error=0.25, trials=4)"),
    (InputQubit, (0.6, 0.8j), "InputQubit(alpha=0.6, beta=0.8j)"),
    (
        CzGateResult,
        (0.5, 0.5, 1.0, None, (CzBranch((1, 0, 0, 1), 1, 1, 0.5, 1.0),)),
        "CzGateResult(success_probability=0.5, failure_probability=0.5, min_fidelity=1.0, "
        "output_qubits=None, branches=(CzBranch(counts=(1, 0, 0, 1), k=1, kp=1, "
        "probability=0.5, fidelity=1.0),))",
    ),
    (Thermalize, (), "Thermalize()"),
    (LoadFromReservoir, (3,), "LoadFromReservoir(dot=3)"),
    (RabiPulse, (0, 1, 0.5), "RabiPulse(src=0, dst=1, theta=0.5, only_if=None)"),
    (InteractionPhase, (0.25,), "InteractionPhase(coupling_angle=0.25, intra_coefficient=0.0)"),
    (UGateCorrection, ((0.0, 0.5),), "UGateCorrection(phases=(0.0, 0.5))"),
    (
        PulseSchedule,
        (1, 2, (Thermalize(), LoadFromReservoir(1))),
        "PulseSchedule(n=1, pairs=2, pulses=(Thermalize(), LoadFromReservoir(dot=1)))",
    ),
]

DEFAULTS = {
    TransferSetting: ("phi", 0.0),
    RabiPulse: ("only_if", None),
    InteractionPhase: ("intra_coefficient", 0.0),
}


@pytest.mark.parametrize("cls, args, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_is_an_immutable_value_of_its_own_class(cls, args, text):
    record = cls(*args)
    fields = tuple(getattr(record, name) for name in cls.__slots__)
    assert repr(record) == text
    assert cls(**dict(zip(cls.__slots__, args))) == record
    if cls in DEFAULTS:  # the one defaulted field, left out of ``args``
        name, default = DEFAULTS[cls]
        value = getattr(record, name)
        assert len(args) == len(cls.__slots__) - 1
        assert value == default and type(value) is type(default)
    else:
        assert len(args) == len(cls.__slots__)

    # Equal to an equal record of its class only, never to a tuple or another record.
    twin = cls(*args)
    assert twin is not record and twin == record and not twin != record
    assert hash(twin) == hash(record) == hash(fields)
    assert record != fields and bool(record)
    for other_cls, other_args, _ in RECORDS:
        if other_cls is not cls:
            assert record.__eq__(other_cls(*other_args)) is NotImplemented
    assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))

    for name in (*cls.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in cls.__slots__) == fields
    assert not hasattr(record, "extra") and not hasattr(record, "__dict__")



# (class, arguments with one list, name of the field given the list).  Each
# field is stored as a tuple, so the record hashes and no later change to the
# list reaches it.
LIST_INPUTS = [
    (TransferSchedule, ([0.5],), "probabilities"),
    (UGateCorrection, ([0.0, 0.5],), "phases"),
    (PulseSchedule, (1, 1, [Thermalize()]), "pulses"),
    (CzGateResult, (0.5, 0.5, 1.0, None, []), "branches"),
]


@pytest.mark.parametrize("cls, args, name", LIST_INPUTS, ids=[r[0].__name__ for r in LIST_INPUTS])
def test_record_stores_a_given_list_as_a_tuple(cls, args, name):
    given = next(a for a in args if isinstance(a, list))
    record = cls(*args)
    stored = getattr(record, name)
    assert type(stored) is tuple and stored == tuple(given)
    assert hash(record) == hash(cls(*(tuple(a) if a is given else a for a in args)))
    given.append(2.0)
    assert getattr(record, name) == stored


def test_transfer_schedule_checks_the_tuple_it_stores():
    # An iterator is read once: the check and the field see the same values.
    assert TransferSchedule(iter([0.5, 1.0])).probabilities == (0.5, 1.0)
    with pytest.raises(InvalidProfile):
        TransferSchedule(iter([0.5, 2.0]))
