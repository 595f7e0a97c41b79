"""Exact simulation of entangled multiphoton register preparation.

Sparse Fock-basis simulator plus the full post-selected preparation
pipeline of the entangled register states consumed by probabilistic
linear-optics teleportation gates, a charge-qubit (quantum-dot) variant of
the same preparation, and the associated gate-count bookkeeping.
"""

from .errors import (
    AncillaError,
    AncillaNotDisentangled,
    BlockadeViolation,
    DimensionMismatch,
    DotOutOfRange,
    InfeasibleParameters,
    InvalidCoefficient,
    InvalidProfile,
    InvalidState,
    ModeOutOfRange,
    NonBinaryTarget,
    OutOfRange,
    ShapeMismatch,
    ZeroState,
)
from .fock import MeasurementOutcome, SparseState, fidelity
from .gates import (
    TransferSetting,
    cnot_logical,
    conditional_transfer,
    controlled_sign,
    toffoli_logical,
    transfer_gadget,
    transmission_for_probability,
)
from .pipeline import (
    PhaseMethod,
    apply_entangling_phase,
    build_entangled_pair,
    build_single_register,
    direct_oracle_pair,
    direct_oracle_single,
)
from .profiles import AmplitudeProfile, TransferSchedule, schedule_from_profile
from .resources import (
    AttemptEstimate,
    FailureScaling,
    GateCountReport,
    expected_attempts,
    failure_scaling,
    gate_counts,
    success_probability,
)
from .teleport import (
    Classification,
    CzGateResult,
    InputQubit,
    TeleportOutcome,
    apply_qft,
    cz_via_double_teleportation,
    failure_probability,
    teleport,
)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeProfile",
    "AncillaError",
    "AncillaNotDisentangled",
    "AttemptEstimate",
    "BlockadeViolation",
    "Classification",
    "CzGateResult",
    "DimensionMismatch",
    "DotOutOfRange",
    "FailureScaling",
    "GateCountReport",
    "InfeasibleParameters",
    "InputQubit",
    "InvalidCoefficient",
    "InvalidProfile",
    "InvalidState",
    "MeasurementOutcome",
    "ModeOutOfRange",
    "NonBinaryTarget",
    "OutOfRange",
    "PhaseMethod",
    "ShapeMismatch",
    "SparseState",
    "TeleportOutcome",
    "TransferSchedule",
    "TransferSetting",
    "ZeroState",
    "apply_entangling_phase",
    "apply_qft",
    "build_entangled_pair",
    "build_single_register",
    "cnot_logical",
    "conditional_transfer",
    "controlled_sign",
    "cz_via_double_teleportation",
    "direct_oracle_pair",
    "direct_oracle_single",
    "expected_attempts",
    "failure_probability",
    "failure_scaling",
    "fidelity",
    "gate_counts",
    "schedule_from_profile",
    "success_probability",
    "teleport",
    "toffoli_logical",
    "transfer_gadget",
    "transmission_for_probability",
]
