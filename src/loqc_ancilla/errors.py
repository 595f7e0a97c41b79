"""Exception types shared across the package."""


class AncillaError(Exception):
    """Base class for all errors raised by this package."""


class InvalidState(AncillaError, ValueError):
    """State data that is malformed: a negative photon count, a non-finite
    amplitude, or a state file that does not follow the JSON state schema."""


class ZeroState(AncillaError):
    """Normalization requested for a state with no amplitude above tolerance."""


class DimensionMismatch(AncillaError):
    """Two states with different mode counts were combined."""


class ModeOutOfRange(AncillaError):
    """A mode index does not exist in the state."""


class InvalidCoefficient(AncillaError):
    """A beamsplitter transmission outside [0, 1], or an infinite phase."""


class OutOfRange(AncillaError):
    """A probability or rate parameter outside its admissible interval."""


class NonBinaryTarget(AncillaError):
    """A logical qubit operation hit a mode holding more than one photon."""


class InvalidProfile(AncillaError):
    """An amplitude profile that the requested construction cannot use."""


class AncillaNotDisentangled(AncillaError):
    """Helper qubits failed to return exactly to |000> after uncomputation."""


class ShapeMismatch(AncillaError):
    """A state does not have the register shape an operation expects."""


class DotOutOfRange(AncillaError):
    """A quantum-dot index does not exist in the array."""


class BlockadeViolation(AncillaError):
    """A dot-array state acquired a double-occupied dot."""


class InfeasibleParameters(AncillaError):
    """Parameters whose estimated cost exceeds a guard, refused up front.

    Carries the estimate in ``estimate``: the analytically expected attempt
    count of a Monte Carlo retry loop, which callers can report instead of
    sampling, or the bound on the measurement outcomes a teleport or CZ run
    would enumerate.
    """

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate
