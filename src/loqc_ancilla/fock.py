"""Exact sparse simulation of multimode bosonic states in the Fock basis.

A state is a mapping from occupation vectors (one photon count per global
mode) to complex amplitudes.  All operations are pure: inputs are never
mutated and every method returns a fresh state, whose dict only the code
that built it edits in place.  Amplitudes with modulus below the fixed
:data:`PRUNE_TOLERANCE` (1e-12) are dropped after each operation, which
keeps the exact-cancellation junk of double precision out of the term set.

Keys and amplitudes are validated where data enters (the constructor,
``basis``, ``from_json_dict``); operations derive new states through the
trusted ``_like``, which only prunes and refuses non-finite amplitudes.  So
do the ``pipeline`` oracles, whose keys are joined register patterns and
whose amplitudes are products of a validated profile's weights.
``apply_linear_transform`` prunes its fresh output dict without a rebuild
through ``_like``, which would hash every kept key again (a tuple does not
cache its hash).  On modes that lead in order each input term has a class,
its photon total there and its other counts.  When every term is alone in
its class, as in every teleport and CZ Fourier input (one term per photon
total), each product is written once and only if it is not faint, so the
exact zeros of Fourier interference are never stored, and the modulus that
prune reads also refuses a non-finite product, so no separate scan runs.
Any other input sums its products, runs ``_like``'s scan on the sums and
deletes the faint keys after it.  Two more builds skip the scan and prune
inline:

* ``measure``, when it lists every mode of the state in order (as
  ``teleport`` and the CZ do), makes each key its own outcome: one sort of
  the terms, and each residual the 0-mode state a/|a|, which needs no
  prune.  Any other modes group the terms by outcome, and each group's
  residual goes through ``normalized``.
* the CZ's join of its two sides' Fourier tables, keyed by both sides'
  counts (modes [c, c']): each term is the product of two table
  amplitudes and the norm of its branch's qubit pair, which is at most
  the largest pair weight, and the CZ refuses, before either of its
  transforms, a pair weight whose |w|^2 overflows and a pair whose
  success and failure totals do.

The KLM feedforward needs no prune of its own: ``teleport`` applies it
before the transform, as the choice of one input pattern per photon total,
and the transform prunes its output as above.

Three more skip both the scan and the prune.  Every exact sign goes through
``_negated``, which copies the term dict (``dict.copy``, so dict order is
kept) and negates only the selected keys in place: ``gates.controlled_sign``,
the transfer gadget's internal sign, the ``oracle`` entangling phase of
``pipeline`` and the CZ's ideal output in ``teleport``.  The flip behind
``cnot_logical`` and ``toffoli_logical`` moves amplitudes to distinct keys.
An input state is already pruned and finite, and none of the three changes
a modulus.  No stored amplitude has a -0.0 part: every build adds ``+ 0j``
or, as the transform does unless every class is lone, sums each amplitude
from ``0j``, and no addition to +0.0 gives -0.0; a negation writes
``-a + 0j`` to keep it so.

Float sums run strictly left to right, through ``_sum_in_order`` or an
explicit loop from 0.0, so every printed digit is the same on every
supported Python version.

Global phase is deliberately never normalized away; state comparisons go
through :func:`fidelity`, which is phase-insensitive.

The one thing kept across calls is the last transform's expansions: its
matrix and a dict from sub-occupation to expansion (see
:meth:`SparseState.apply_linear_transform`).  An expansion is a
deterministic function of the sub-occupation and the matrix and is stored
as tuples, so results never depend on what ran before.  A published dict is
never edited, so threads share it without a lock.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    DimensionMismatch,
    InvalidCoefficient,
    InvalidState,
    ModeOutOfRange,
    ZeroState,
)

Occupation = tuple[int, ...]

PRUNE_TOLERANCE = 1e-12  # amplitudes with a smaller modulus are dropped
_PRUNE_PROBABILITY = PRUNE_TOLERANCE**2  # outcomes and norms at most this are zero
_NON_FINITE = "an operation produced a non-finite amplitude"

# The last transform's matrix and its expansions by sub-occupation.  A call
# with an equal matrix starts from a copy of the dict, and publishes its own
# when its expansions hold at most _MEMO_PRODUCTS products (about 2 MB).  An
# n=6 teleport's Fourier transform expands 8 sub-occupations into 3 432
# products, so repeated teleports up to n=6 expand nothing after the first,
# and the second CZ side reuses what the first expanded.  A larger set, as
# at n=7 (12 870 products) or n=8 (48 620, about 11 MB), is not kept and
# leaves the slot as it was.
_MEMO_PRODUCTS = 8_000
_last_transform: tuple[tuple, dict[Occupation, tuple[float, tuple]]] = ((), {})


class SparseState:
    """Sparse complex superposition over multimode occupation vectors.

    Parameters
    ----------
    modes : int
        Number of global modes; every occupation key has this length.  A
        float equal to an int is read as it; 2.7 or a bool raises
        ``InvalidState``.
    terms : mapping, optional
        Occupation vector -> complex amplitude.  Copied; amplitudes with
        modulus below ``PRUNE_TOLERANCE`` are dropped.
    """

    __slots__ = ("modes", "terms")

    def __init__(self, modes: int, terms: Mapping[Occupation, complex] | None = None):
        if type(modes) is not int:
            whole = _whole_number(modes)
            if whole is None:
                raise InvalidState(f"mode count {modes!r} is not an integer")
            modes = whole
        if modes < 0:
            raise InvalidState(f"mode count {modes} is negative")
        self.modes = modes
        self.terms: dict[Occupation, complex] = {}
        if terms:
            for raw, amp in terms.items():
                try:  # only counts that are not ints need converting
                    kinds = set(map(type, raw))
                    occ = tuple(map(int, raw)) if kinds - {int} else tuple(raw)
                except (TypeError, ValueError, OverflowError):
                    occ = None
                # int() takes 1.5, "1" and True too: a count must equal it and not be a bool
                if occ is None or bool in kinds or occ != tuple(raw):
                    raise InvalidState(f"photon counts {raw} are not all integers")
                if len(occ) != self.modes:
                    raise DimensionMismatch(
                        f"occupation {occ} has {len(occ)} entries, state has "
                        f"{self.modes} modes"
                    )
                if occ and min(occ) < 0:
                    raise InvalidState(f"negative photon count in {occ}")
                amp = complex(amp)
                try:
                    size = abs(amp)  # inf or nan when a part is
                except OverflowError:  # finite parts, modulus past the float range
                    size = math.inf
                if not math.isfinite(size):
                    raise InvalidState(f"amplitude {amp} at {occ} has no finite modulus")
                if size >= PRUNE_TOLERANCE:
                    self.terms[occ] = self.terms.get(occ, 0j) + amp

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def basis(cls, occ: Sequence[int]) -> "SparseState":
        """Single basis state |occ> with amplitude 1."""
        return cls(len(occ), {tuple(occ): 1.0 + 0j})

    @classmethod
    def vacuum(cls, modes: int) -> "SparseState":
        """All modes empty; the constructor checks ``modes``, so -1 cannot
        give an empty key and a 0-mode state."""
        return cls(modes, {(0,) * modes: 1.0 + 0j})

    def _like(self, terms: Mapping[Occupation, complex], modes: int | None = None) -> "SparseState":
        """Trusted constructor: keys are taken as valid for ``modes`` (default:
        this state's) and amplitudes are only pruned.  A NaN fails the prune's
        comparison and would vanish silently, hence the finiteness check;
        ``+ 0j`` maps -0.0 to +0.0 as the public constructor's sum does.

        ``measure`` and ``apply_linear_transform`` write this prune inline,
        each on a dict it built itself: ``measure`` when it lists every mode
        in order, by writing each residual's lone unit-modulus term, which
        no prune drops (a helper call per residual cost a teleport about a
        tenth of its time), and the transform, when every term is alone in
        its class, by never storing a faint product, refusing a non-finite
        one through the modulus that prune reads, and otherwise by deleting
        the faint keys after this finiteness check.
        What holds them to it: ``check_state`` in ``tests/invariants.py`` on
        every output, the pinned sha256 digests of their bits in dict order,
        and one reference each in ``test_fock``, the permanent formula for
        the transform and the enumerating ``reference_measure``."""
        _require_finite(terms.values())
        return _state(
            self.modes if modes is None else modes,
            {occ: a + 0j for occ, a in terms.items() if abs(a) >= PRUNE_TOLERANCE},
        )

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def amplitude(self, occ: Sequence[int]) -> complex:
        return self.terms.get(tuple(occ), 0j)

    def norm_squared(self) -> float:
        """Sum of |amplitude|^2; inf when it exceeds the float range."""
        try:
            return _sum_in_order(abs(a) ** 2 for a in self.terms.values())
        except OverflowError:
            return math.inf

    def normalized(self) -> "SparseState":
        """Rescale to unit 2-norm.  Relative and global phases untouched."""
        n2 = self.norm_squared()
        if n2 <= _PRUNE_PROBABILITY:
            raise ZeroState("cannot normalize a state with no amplitude")
        if n2 == math.inf:
            # Divide by the largest component first; only states this large
            # take the detour, so ordinary ones normalize bit for bit as before.
            peak = max(max(abs(a.real), abs(a.imag)) for a in self.terms.values())
            return self._like({occ: a / peak for occ, a in self.terms.items()}).normalized()
        scale = 1.0 / math.sqrt(n2)
        return self._like({occ: a * scale for occ, a in self.terms.items()})

    def items_sorted(self) -> list[tuple[Occupation, complex]]:
        return sorted(self.terms.items())

    def _check_mode(self, mode: int) -> None:
        """Refuse a mode index that is not an int in 0..modes-1.  A float or
        a bool is refused, not read through ``int()``, which truncates 0.7
        to mode 0."""
        if not _is_int(mode):
            raise ModeOutOfRange(f"mode index {mode!r} is not an integer")
        if not 0 <= mode < self.modes:
            raise ModeOutOfRange(f"mode {mode} not in 0..{self.modes - 1}")

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:  # debugging aid only
        parts = ", ".join(f"|{','.join(map(str, occ))}>: {a:.6g}" for occ, a in self.items_sorted())
        return f"SparseState({self.modes} modes; {parts})"

    # ------------------------------------------------------------------
    # elementary unitaries
    # ------------------------------------------------------------------

    def apply_phase(self, mode: int, phi: float) -> "SparseState":
        """Phase shifter: each term gains exp(i*phi*count(mode))."""
        self._check_mode(mode)
        return self._like({occ: a * _cis(phi * occ[mode]) for occ, a in self.terms.items()})

    def apply_basis_phase(self, phase_fn: Callable[[Occupation], float]) -> "SparseState":
        """Diagonal unitary: each term gains exp(i*phase_fn(occ))."""
        return self._like({occ: a * _cis(phase_fn(occ)) for occ, a in self.terms.items()})

    def apply_beamsplitter(self, m1: int, m2: int, t: float) -> "SparseState":
        """Exact beamsplitter on modes (m1, m2), in-place convention.

        Creation operators transform as

            a'(m1) = T a(m1) + iR a(m2)
            a'(m2) = T a(m2) + iR a(m1)

        with R = sqrt(1 - T^2), both real: the 2 x 2 case of
        :meth:`apply_linear_transform`, so photon number on {m1, m2} and the
        total norm are conserved exactly (up to float roundoff).
        """
        if not 0.0 <= t <= 1.0:
            raise InvalidCoefficient(f"transmission {t} outside [0, 1]")
        ir = 1j * math.sqrt(1.0 - t * t)
        return self.apply_linear_transform((m1, m2), ((t, ir), (ir, t)))

    def apply_linear_transform(
        self, modes: Sequence[int], matrix: Sequence[Sequence[complex]]
    ) -> "SparseState":
        """Apply an N x N linear mode transform to the listed modes.

        The creation operator of ``modes[l]`` maps to
        sum_m matrix[l][m] * (creation operator of ``modes[m]``).
        Exact for any photon numbers; unitary input matrices preserve
        the norm.
        """
        mlist = list(modes)
        for m in mlist:
            self._check_mode(m)
        if len(set(mlist)) != len(mlist):
            raise ModeOutOfRange("transform modes must be distinct")
        n_sub = len(mlist)
        if len(matrix) != n_sub or any(len(row) != n_sub for row in matrix):
            raise DimensionMismatch("matrix shape must match the mode list")
        matrix = tuple(map(tuple, matrix))  # compared with the last transform's

        sub_of = _picker(mlist)
        # An output key is its sub-occupation then the input key's tail when
        # the transformed modes lead in order (the teleport and CZ Fourier
        # mixing).  The general loop, which any layout can take, writes each
        # product's counts into one list copy of the input key, whose
        # transformed entries every product overwrites.
        leading = mlist == list(range(n_sub))

        # Terms that share a sub-occupation share its expansion, so each
        # distinct pattern is expanded once per call, or not at all when the
        # last transform had an equal matrix and expanded it.
        global _last_transform
        last_matrix, last_expansions = _last_transform
        expansions = dict(last_expansions) if last_matrix == matrix else {}
        expanded = False
        terms = self.terms
        out: dict[Occupation, complex] = {}
        # A term's class is its photon total on the transformed modes and
        # its tail.  The transform keeps the total, so only terms of one
        # class can write the same output key, and one term's products have
        # distinct keys.  When every term on leading modes is alone in its
        # class, each product is written once, pruned and checked as it is
        # written, and neither the finiteness scan nor a faint-key pass
        # runs; any other input adds up from 0j.
        lone = False
        if leading:
            subs = list(map(sub_of, terms))
            tails = list(map(operator.itemgetter(slice(n_sub, None)), terms))
            classes = list(zip(map(sum, subs), tails))
            lone = len(set(classes)) == len(classes)
        if lone:
            # The prune's modulus is the finiteness check too: NaN and inf
            # fail ``size < tol`` and then ``size < inf``, and finite parts
            # past the float range raise in ``abs``.  ``+ 0j`` is the 0j a
            # sum starts at.
            tol, inf = PRUNE_TOLERANCE, math.inf
            try:
                for a, sub, rest in zip(terms.values(), subs, tails):
                    expansion = expansions.get(sub)
                    if expansion is None:
                        expansion = expansions[sub] = _expand(sub, matrix)
                        expanded = True
                    root_in, products = expansion
                    base = a / root_in
                    for key, coeff, root_out in products:
                        v = base * coeff * root_out
                        size = abs(v)
                        if not size < tol:
                            if not size < inf:
                                raise InvalidState(_NON_FINITE)
                            out[key + rest] = v + 0j
            except OverflowError:
                raise InvalidState(_NON_FINITE) from None
        else:
            for occ, a in terms.items():
                sub = sub_of(occ)
                expansion = expansions.get(sub)
                if expansion is None:
                    expansion = expansions[sub] = _expand(sub, matrix)
                    expanded = True
                root_in, products = expansion
                base = a / root_in
                counts = list(occ)
                for key, coeff, root_out in products:
                    for m, c in zip(mlist, key):
                        counts[m] = c
                    full = tuple(counts)
                    out[full] = out.get(full, 0j) + base * coeff * root_out
        if expanded and sum(len(e[1]) for e in expansions.values()) <= _MEMO_PRODUCTS:
            _last_transform = (matrix, expansions)
        # ``out`` is this call's own dict, so it is pruned in place.  Every
        # value is a sum started at 0j, or a lone product plus 0j, which no
        # addition turns into -0.0, so the ``+ 0j`` of ``_like`` would change
        # no bit.
        if not lone:
            _require_finite(out.values())
            faint = [full for full, a in out.items() if abs(a) < PRUNE_TOLERANCE]
            for full in faint:
                del out[full]
        return _state(self.modes, out)

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------

    def measure(self, modes: Sequence[int]) -> list["MeasurementOutcome"]:
        """Exhaustive photon-number measurement of the listed modes.

        Returns every outcome with its probability and the normalized
        residual state over the remaining modes (measured modes removed).
        Probabilities sum to 1 for a normalized input.  An outcome whose
        norm^2 exceeds the float range raises InvalidState.
        """
        mlist = list(modes)
        for m in mlist:
            self._check_mode(m)
        mset = set(mlist)
        if len(mset) != len(mlist):
            raise ModeOutOfRange("measurement modes must be distinct")
        results: list[MeasurementOutcome] = []

        # Every mode listed in order, as ``teleport`` and the CZ list them:
        # each key is its own outcome, distinct from every other, so one
        # sort of the terms gives the outcome order, and the residual is the
        # 0-mode state of a * (1/sqrt(|a|^2)), the bits ``normalized`` gives
        # a one-term state.  That amplitude has modulus 1 to rounding, so no
        # residual needs the prune.  Rows and residuals are built by
        # ``tuple.__new__`` and ``object.__new__``, skipping the Python-level
        # constructors.
        if mlist == list(range(self.modes)):
            pairs = sorted(self.terms.items(), key=operator.itemgetter(0))
            append, new_row, new_state = results.append, tuple.__new__, object.__new__
            row_type, floor, sqrt = MeasurementOutcome, _PRUNE_PROBABILITY, math.sqrt
            try:  # a stored modulus is finite, so only its square can overflow
                for outcome, a in pairs:
                    prob = abs(a) ** 2
                    if prob <= floor:
                        continue
                    residual = new_state(SparseState)  # as ``_state`` builds one
                    residual.modes = 0
                    residual.terms = {(): a * (1.0 / sqrt(prob)) + 0j}
                    append(new_row(row_type, (outcome, prob, residual)))
            except OverflowError:
                raise InvalidState(f"outcome {outcome} has a norm^2 past the float range") from None
            return results

        # Any other modes: an occupation is its outcome plus its residual
        # key, so each term lands in its outcome's group once, and each group
        # is a residual state that ``normalized`` scales and prunes.
        keep = [m for m in range(self.modes) if m not in mset]
        outcome_of, residual_of = _picker(mlist), _picker(keep)
        grouped: dict[Occupation, dict[Occupation, complex]] = {}
        for occ, a in self.terms.items():
            grouped.setdefault(outcome_of(occ), {})[residual_of(occ)] = a
        for outcome in sorted(grouped):
            residual = _state(len(keep), grouped[outcome])
            prob = residual.norm_squared()
            if prob == math.inf:
                raise InvalidState(f"outcome {outcome} has a norm^2 past the float range")
            if prob > _PRUNE_PROBABILITY:
                results.append(MeasurementOutcome(outcome, prob, residual.normalized()))
        return results

    # ------------------------------------------------------------------
    # structural helpers
    # ------------------------------------------------------------------

    def tensor(self, other: "SparseState") -> "SparseState":
        """Tensor product; this state's modes come first."""
        outer, inner = self.terms.items(), other.terms.items()
        terms = {occ1 + occ2: a1 * a2 for occ1, a1 in outer for occ2, a2 in inner}
        return self._like(terms, self.modes + other.modes)

    def extend(self, extra_modes: int) -> "SparseState":
        """Append ``extra_modes`` vacuum modes; a negative count raises
        ModeOutOfRange."""
        if not _is_int(extra_modes) or extra_modes < 0:
            raise ModeOutOfRange(f"cannot append {extra_modes!r} modes")
        pad = (0,) * extra_modes
        terms = {occ + pad: a for occ, a in self.terms.items()}
        return self._like(terms, self.modes + extra_modes)

    def drop_modes(self, modes: Iterable[int]) -> "SparseState":
        """Remove the listed modes from every key.

        Caller must know the modes are unentangled (e.g. uncomputed
        helpers); counts on them are discarded, not measured.
        """
        mset = set(modes)
        for m in mset:
            self._check_mode(m)
        keep = [m for m in range(self.modes) if m not in mset]
        pick = _picker(keep)
        terms: dict[Occupation, complex] = {}
        for occ, a in self.terms.items():
            key = pick(occ)
            terms[key] = terms.get(key, 0j) + a
        return self._like(terms, len(keep))

    def permute_modes(self, perm: Sequence[int]) -> "SparseState":
        """Relabel modes: new mode i holds old mode perm[i]'s count."""
        for m in perm:
            self._check_mode(m)
        if sorted(perm) != list(range(self.modes)):
            raise ModeOutOfRange("perm must be a permutation of all modes")
        pick = _picker(perm)
        return self._like({pick(occ): a for occ, a in self.terms.items()})

    # ------------------------------------------------------------------
    # serialization (the JSON state schema used by the CLI)
    # ------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "modes": self.modes,
            "terms": [
                {"occ": list(occ), "re": a.real, "im": a.imag}
                for occ, a in self.items_sorted()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SparseState":
        """Parse the JSON state schema; malformed data raises InvalidState.

        The mode count and the photon counts are the constructor's to check;
        ``[1]`` and ``[1.0]`` are one key, so listing both is listing one
        occupation twice."""
        try:
            modes = data["modes"]
            rows = [
                (tuple(t["occ"]), (t["re"], t["im"]), complex(t["re"], t["im"]))
                for t in data["terms"]
            ]
            hash(tuple(occ for occ, _, _ in rows))  # a list inside occ cannot be a key
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidState(f"malformed state data: {exc!r}") from exc
        terms: dict[Occupation, complex] = {}
        for occ, parts, amp in rows:
            # JSON true and false load as bools, which complex() takes as 1 and 0.
            if any(isinstance(x, bool) for x in parts):
                raise InvalidState(f"amplitude parts {list(parts)} are not all numbers")
            if occ in terms:
                raise InvalidState(f"occupation {list(occ)} is listed twice")
            terms[occ] = amp
        return cls(modes, terms)


class MeasurementOutcome(NamedTuple):
    """One exhaustive-measurement branch."""

    counts: Occupation
    probability: float
    residual: SparseState


class _Record:
    """Immutable record whose fields are its class's ``__slots__``.

    Each subclass writes its own ``__init__``, which checks its arguments and
    sets each field through ``object.__setattr__``.  A record refuses
    assignment and deletion, equals only a record of its own class with equal
    fields, hashes as its field tuple and shows as ``Name(field=value, ...)``.
    It is not a tuple: ``Thermalize()`` is true and unequal to ``()``.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _fields(self) == _fields(other)

    def __hash__(self):
        return hash(_fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setstate__(self, state):
        # copy and pickle restore the slots through here, not __setattr__.
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


def _fields(record: _Record) -> tuple:
    """The field values of ``record`` in ``__slots__`` order."""
    return tuple(getattr(record, name) for name in record.__slots__)


def fidelity(a: SparseState, b: SparseState) -> float:
    """|<a|b>|^2 for normalized states; symmetric in its arguments.

    Clamped into [0, 1]: roundoff can push the raw overlap a few ulp past 1.
    """
    if a.modes != b.modes:
        raise DimensionMismatch(f"{a.modes} modes vs {b.modes} modes")
    small, large = (a.terms, b.terms) if len(a.terms) <= len(b.terms) else (b.terms, a.terms)
    overlap = 0j
    for occ, amp in small.items():
        other = large.get(occ)
        if other is not None:
            overlap += amp.conjugate() * other
    # The bits of min(1.0, x), a NaN included, without the call.
    x = abs(overlap) ** 2
    return x if x < 1.0 else 1.0


def _state(modes: int, terms: dict[Occupation, complex]) -> SparseState:
    """State holding ``terms`` as given: keys, amplitudes and pruning are the
    caller's to guarantee."""
    out = object.__new__(SparseState)
    out.modes = modes
    out.terms = terms
    return out


def _require_finite(amplitudes: Iterable[complex]) -> None:
    """Refuse, as ``InvalidState``, an amplitude with a NaN or infinite part
    or with finite parts whose modulus passes the float range."""
    try:
        total = sum(map(abs, amplitudes))
    except OverflowError:  # ``abs`` of finite parts past the float range
        total = math.inf
    if not math.isfinite(total):
        raise InvalidState(_NON_FINITE)


def _negated(state: SparseState, keys: Iterable[Occupation]) -> SparseState:
    """``state`` with the amplitude at each of ``keys`` negated, in dict order.

    An exact sign changes no modulus, so the copy needs neither the prune nor
    the finiteness scan; ``-a + 0j`` keeps -0.0 out of every part."""
    terms = state.terms.copy()
    for occ in keys:
        terms[occ] = -terms[occ] + 0j
    return _state(state.modes, terms)


def _sum_in_order(values: Iterable[float]) -> float:
    """Float sum added strictly left to right from 0.0.

    This is what ``sum`` did before Python 3.12, which compensates float
    sums and so moves their last bit; printed probabilities, norms and
    fidelities stay the same digits on every Python version."""
    return functools.reduce(operator.add, values, 0.0)


def _picker(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """Function returning the entries at ``indices`` (non-negative) of a
    sequence as a tuple.

    A run of consecutive ascending indices, one index included, is one
    slice; ``operator.itemgetter`` of several indices fetches each entry on
    its own, and returns a bare entry for one index.  No indices take an
    empty slice.  Each is one C call, and each slice of a tuple is a tuple."""
    if not indices:
        return operator.itemgetter(slice(0, 0))
    first = indices[0]
    if list(indices) == list(range(first, first + len(indices))):
        return operator.itemgetter(slice(first, first + len(indices)))
    return operator.itemgetter(*indices)


def _whole_number(value) -> int | None:
    """``value`` as an int when it equals one and is not a bool, else None:
    2.0 reads as 2, and 2.7, True, "2", NaN and infinity give None (``int()``
    would take 2.7, "2" and True).  A mode count and a profile's register
    size follow this rule."""
    if isinstance(value, bool):
        return None
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return whole if whole == value else None


def _is_int(value) -> bool:
    """Whether ``value`` is an int and not a bool (a mode index or count)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _expand(
    sub: Occupation, matrix: Sequence[Sequence[complex]]
) -> tuple[float, tuple[tuple[Occupation, complex, float], ...]]:
    """Expansion of one sub-occupation under a linear mode transform.

    Returns sqrt(prod sub!) and (output sub-occupation, coefficient,
    sqrt(prod out!)) per output key; the amplitude of a term with this
    sub-occupation then contributes a / root_in * coeff * root_out.

    At most one photon needs no fold: the products are the photon's row,
    its nonzero entries in mode order, with the bits the fold gives them.
    """
    total = sum(sub)
    if not total:
        return 1.0, ((sub, 1.0 + 0j, 1.0),)
    if total == 1:
        l, width = sub.index(1), len(sub)
        return 1.0, tuple(
            ((0,) * m + (1,) + (0,) * (width - m - 1), 0j + (1.0 + 0j) * cm, 1.0)
            for m, cm in enumerate(matrix[l])
            if cm != 0
        )
    return _fold(sub, matrix)


def _fold(
    sub: Occupation, matrix: Sequence[Sequence[complex]]
) -> tuple[float, tuple[tuple[Occupation, complex, float], ...]]:
    """:func:`_expand` of any sub-occupation, one photon at a time."""
    # Fold photons in one at a time: poly maps sub-occupations of the
    # transformed modes, coded as integers in base total+1 (mode m is digit
    # m), to expansion coefficients.
    radix = sum(sub) + 1
    poly: dict[int, complex] = {0: 1.0 + 0j}
    norm_in = 1.0
    for l, count in enumerate(sub):
        if not count:  # an empty mode adds no factor; 0! and 1! are 1
            continue
        if count > 1:
            norm_in *= math.factorial(count)
        row = [(radix**m, cm) for m, cm in enumerate(matrix[l]) if cm != 0]
        for _ in range(count):
            nxt: dict[int, complex] = {}
            for code, coeff in poly.items():
                for step, cm in row:
                    key = code + step
                    nxt[key] = nxt.get(key, 0j) + coeff * cm
            poly = nxt
    products = []
    for code, coeff in poly.items():
        key = []
        norm_out = 1.0
        for _ in sub:
            code, c = divmod(code, radix)
            key.append(c)
            if c > 1:
                norm_out *= math.factorial(c)
        products.append((tuple(key), coeff, math.sqrt(norm_out)))
    return math.sqrt(norm_in), tuple(products)


_QUARTER_TURNS = (1.0 + 0j, 1j, -1.0 + 0j, -1j)


def _cis(phi: float) -> complex:
    # Exact values at integer multiples of pi/2 keep quarter-turn and
    # pi * count phases free of 1e-16 junk up to count 10 only:
    # math.pi * c for c = 11, 13, 15, 22, 26, 30, ... does not divide back to
    # an integer, and cos/sin leave an imaginary part near 1e-15.  Exact
    # signs are therefore negations, never phases through here.  A small
    # float whose quotient by pi/2 rounds to an integer lies within an ulp
    # of that multiple, so the lookup is as accurate as cos/sin of the float
    # itself.  The bound keeps large phases out: every float past ~1.4e16
    # divides to an integer, however far it lies from a multiple.
    quarters = phi / (math.pi / 2)
    if quarters.is_integer() and abs(quarters) < 2.0**20:
        return _QUARTER_TURNS[int(quarters) % 4]
    try:
        return complex(math.cos(phi), math.sin(phi))
    except ValueError:  # cos/sin of an infinite phase
        raise InvalidCoefficient(f"phase {phi} is not finite") from None

