"""Interferometric transfer gadget and logical-level controlled gates.

The transfer gadget is a Mach-Zehnder pair of identical beamsplitters with
an internal phase of 0 or pi.  With phi = pi the photon stays in the source
path (amplitude -1); with phi = 0 it moves to the destination with
amplitude 2iRT and stays with amplitude -(1-2T^2).  A deterministic phase
fixup after the gadget turns both branch amplitudes real non-negative
(+sqrt(1-P) stay, +sqrt(P) go), which is what lets the register builders
produce superpositions with literal real weights.

Both beamsplitters are the 2 x 2 case of the one linear-transform kernel.
The internal phase is an exact sign on odd src counts: everywhere at phi =
pi, and in a gated transfer where the control mode is empty.
``conditional_transfer`` folds the fixup, (-1) per src photon and (-i) per
dst photon, into its second beamsplitter's output columns.

Controlled signs and occupancy flips are exact per-term conditions, with no
float phase: a sign negates the amplitudes of the terms that meet its
condition in a copy of the term dict (``fock._negated``), and a flip
rewrites the target count in a list copy of each such key.  Neither changes
a modulus, and a 0 <-> 1 flip maps distinct keys to distinct keys, so their
results need neither the prune nor the finiteness scan of
``SparseState._like``.  The count tests read the control and target modes
through ``fock._picker``, one C call per term however many modes it reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ModeOutOfRange, NonBinaryTarget, OutOfRange
from .fock import Occupation, SparseState, _negated, _picker, _state


@dataclass(frozen=True)
class TransferSetting:
    """Beamsplitter coefficients and internal phase of one gadget.

    R and T are both real with R^2 + T^2 = 1; phi is 0 (transfer enabled)
    or pi (transfer inhibited).
    """

    t: float
    r: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.t <= 1.0:  # NaN fails the comparison
            raise OutOfRange(f"transmission {self.t} outside [0, 1]")
        if not abs(self.r**2 + self.t**2 - 1.0) <= 1e-12:  # so does a NaN R
            raise OutOfRange(f"R^2 + T^2 = {self.r**2 + self.t**2} != 1")
        if self.phi not in (0.0, math.pi):
            raise OutOfRange(f"phi must be exactly 0 or pi, got {self.phi}")


def transmission_for_probability(p: float) -> TransferSetting:
    """Solve 4 T^2 (1 - T^2) = p for the transmission coefficient.

    Uses the smaller root T^2 = (1 - sqrt(1-p))/2, so T grows continuously
    from 0 at p = 0 up to 1/sqrt(2) at p = 1.
    """
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"probability {p} outside [0, 1]")
    t_sq = 0.5 * (1.0 - math.sqrt(1.0 - p))
    t = math.sqrt(t_sq)
    r = math.sqrt(1.0 - t_sq)
    return TransferSetting(t=t, r=r, phi=0.0)


def _first_half(
    state: SparseState, src: int, dst: int, setting: TransferSetting, control: int | None
) -> SparseState:
    """First beamsplitter, then the internal phase pi per src photon: a sign
    on odd counts wherever ``setting.phi`` is pi or the control is empty."""
    if src == dst:
        raise ModeOutOfRange("transfer needs distinct source and destination")
    if control is not None:
        state._check_mode(control)
        if control in (src, dst):
            raise ModeOutOfRange("control mode must differ from source and destination")
        if setting.phi:
            raise OutOfRange("a gated transfer takes its internal phase from the control")
    out = state.apply_beamsplitter(src, dst, setting.t)
    if control is None and not setting.phi:
        return out
    signed = [occ for occ in out.terms if occ[src] & 1 and (control is None or not occ[control])]
    return _negated(out, signed)


def transfer_gadget(
    state: SparseState, src: int, dst: int, setting: TransferSetting
) -> SparseState:
    """Raw gadget: beamsplitter(T) -> phase(phi on src) -> beamsplitter(T).

    For one photon in src this reproduces the closed forms
    -(1-2T^2) stay + 2iRT go at phi = 0 and -1 stay at phi = pi.
    """
    out = _first_half(state, src, dst, setting, None)
    return out.apply_beamsplitter(src, dst, setting.t)


def conditional_transfer(
    state: SparseState,
    src: int,
    dst: int,
    setting: TransferSetting,
    control: int | None = None,
) -> SparseState:
    """Gadget plus canonical fixup, optionally gated by a control mode.

    With ``control`` set, the internal phase is 0 (transfer) on terms whose
    control mode is occupied and pi (inhibited) on the rest; ``setting.phi``
    must be 0.  After the fixup the inhibited terms see exactly the identity
    on src, so single-photon transfers leave real non-negative amplitudes:
    +sqrt(1-P) stay and +sqrt(P) go.
    """
    out = _first_half(state, src, dst, setting, control)
    t = setting.t
    r = math.sqrt(1.0 - t * t)  # as apply_beamsplitter computes it
    return out.apply_linear_transform((src, dst), ((-t, r), (-1j * r, -1j * t)))


def controlled_sign(
    state: SparseState, control_modes: set[int] | frozenset[int], target_mode: int
) -> SparseState:
    """Flip the sign of terms where every control and the target are occupied."""
    controls = sorted(int(m) for m in control_modes)
    for m in controls + [target_mode]:
        state._check_mode(m)
    if target_mode in controls:
        raise ModeOutOfRange("target must be disjoint from the controls")
    counts = _picker(controls + [target_mode])
    return _negated(state, [occ for occ in state.terms if 0 not in counts(occ)])


def _flip(state: SparseState, controls: tuple[int, ...], target_mode: int) -> SparseState:
    """Flip the target's occupancy (0 <-> 1) on terms with every control occupied.

    Logical-level gate on a single-rail qubit mode; raises if any term
    holds more than one photon in the target.
    """
    modes = controls + (target_mode,)
    for m in modes:
        state._check_mode(m)
    if len(set(modes)) != len(modes):
        raise ModeOutOfRange("controls and target must be distinct modes")
    counts = _picker(controls)
    terms: dict[Occupation, complex] = {}
    for occ, a in state.terms.items():
        held = occ[target_mode]
        if held > 1:
            raise NonBinaryTarget(f"target mode {target_mode} holds {held} photons")
        if 0 not in counts(occ):
            flipped = list(occ)
            flipped[target_mode] = 1 - held
            occ = tuple(flipped)
        terms[occ] = a
    return _state(state.modes, terms)


def cnot_logical(state: SparseState, control_mode: int, target_mode: int) -> SparseState:
    """Flip the target's occupancy (0 <-> 1) on terms with the control occupied."""
    return _flip(state, (control_mode,), target_mode)


def toffoli_logical(
    state: SparseState, control_a: int, control_b: int, target_mode: int
) -> SparseState:
    """Two-control occupancy flip of a logical qubit mode."""
    return _flip(state, (control_a, control_b), target_mode)
