"""Exact sparse simulation of multimode bosonic states in the Fock basis.

A state is a mapping from occupation vectors (one photon count per global
mode) to complex amplitudes.  All operations are pure: inputs are never
mutated and every method returns a fresh state, whose dict only the code
that built it edits in place.  Amplitudes with modulus below the fixed
:data:`PRUNE_TOLERANCE` (1e-12) are dropped after each operation, which
keeps the exact-cancellation junk of double precision out of the term set.

Keys and amplitudes are validated where data enters (the constructor,
``basis``, ``from_json_dict``); operations derive new states through the
trusted ``_like``, which only prunes and refuses non-finite amplitudes.
Three builds skip that amplitude scan and prune inline:

* ``measure`` scales each outcome's bucket, a dict it built itself, in place
  into the residual; each amplitude a goes to a/sqrt(p) with |a|^2 <= p, so
  every one stays within 1.
* the KLM feedforward (``teleport._feedforward``) multiplies the success
  terms of the transform's fresh output in place by unit factors of finite
  table phases;
* the CZ's weighted join of its two corrected sides refuses, before it
  starts, pair weights large enough for a product to overflow.

Three more skip both the scan and the prune.  Every exact sign goes through
``_negated``, which copies the term dict (``dict.copy``, so dict order is
kept) and negates only the selected keys in place: ``gates.controlled_sign``,
the transfer gadget's internal sign, the ``oracle`` entangling phase of
``pipeline`` and the CZ's ideal output in ``teleport``.  The flip behind
``cnot_logical`` and ``toffoli_logical`` moves amplitudes to distinct keys.
An input state is already pruned and finite, and none of the three changes
a modulus.  No stored amplitude has a -0.0 part, since every build adds
``+ 0j``; a negation writes ``-a + 0j`` to keep it so.

Float sums run strictly left to right, through ``_sum_in_order`` or, where
a call per sum costs too much (``measure``'s outcome probabilities), an
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

# The last transform's matrix and its expansions by sub-occupation.  A call
# with an equal matrix starts from a copy of the dict, and publishes its own
# when its expansions hold at most _MEMO_PRODUCTS products (about 2 MB).  An
# n=6 teleport's Fourier transform expands 14 sub-occupations into 5 147
# products, so repeated teleports up to n=6 expand nothing after the first,
# and the second CZ side reuses what the first expanded.  The n=8 set (72 929 products,
# about 17 MB) would add a quarter to the peak memory of an n=8 teleport, so
# a larger set is not kept and leaves the slot as it was.
_MEMO_PRODUCTS = 8_000
_last_transform: tuple[tuple, dict[Occupation, tuple[float, tuple]]] = ((), {})


class SparseState:
    """Sparse complex superposition over multimode occupation vectors.

    Parameters
    ----------
    modes : int
        Number of global modes; every occupation key has this length.
    terms : mapping, optional
        Occupation vector -> complex amplitude.  Copied; amplitudes with
        modulus below ``PRUNE_TOLERANCE`` are dropped.
    """

    __slots__ = ("modes", "terms")

    def __init__(self, modes: int, terms: Mapping[Occupation, complex] | None = None):
        self.modes = int(modes)
        self.terms: dict[Occupation, complex] = {}
        if terms:
            for raw, amp in terms.items():
                try:  # int() takes 1.5 and "1" too, so the counts must equal it
                    occ = tuple(map(int, raw))
                except (TypeError, ValueError, OverflowError):
                    occ = None
                if occ is None or occ != tuple(raw):
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
        return cls.basis((0,) * modes)

    def _like(self, terms: Mapping[Occupation, complex], modes: int | None = None) -> "SparseState":
        """Trusted constructor: keys are taken as valid for ``modes`` (default:
        this state's) and amplitudes are only pruned.  A NaN fails the prune's
        comparison and would vanish silently, hence the finiteness check;
        ``+ 0j`` maps -0.0 to +0.0 as the public constructor's sum does.

        ``measure`` writes this prune inline while it scales each bucket in
        place, because a helper call per residual costs a teleport about a
        tenth of its time; a fast-path test in ``test_fock`` holds it to this
        one."""
        if not math.isfinite(sum(map(abs, terms.values()))):
            raise InvalidState("an operation produced a non-finite amplitude")
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
        out: dict[Occupation, complex] = {}
        for occ, a in self.terms.items():
            out[occ] = a * _cis(phase_fn(occ))
        return self._like(out)

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
        mlist = [int(m) for m in modes]
        for m in mlist:
            self._check_mode(m)
        mset = set(mlist)
        if len(mset) != len(mlist):
            raise ModeOutOfRange("transform modes must be distinct")
        n_sub = len(mlist)
        if len(matrix) != n_sub or any(len(row) != n_sub for row in matrix):
            raise DimensionMismatch("matrix shape must match the mode list")
        matrix = tuple(map(tuple, matrix))  # compared with the last transform's

        rest_modes = [m for m in range(self.modes) if m not in mset]
        sub_of, rest_of = _picker(mlist), _picker(rest_modes)
        # An output key is its sub-occupation then the rest when the
        # transformed modes lead in order (the teleport and CZ Fourier
        # mixing); any other layout is rebuilt from rest + sub-occupation
        # by one picker.
        leading = mlist == list(range(n_sub))
        slot = {m: i for i, m in enumerate(rest_modes + mlist)}
        place = _picker([slot[m] for m in range(self.modes)])

        # Terms that share a sub-occupation share its expansion, so each
        # distinct pattern is expanded once per call, or not at all when the
        # last transform had an equal matrix and expanded it.
        global _last_transform
        last_matrix, last_expansions = _last_transform
        expansions = dict(last_expansions) if last_matrix == matrix else {}
        expanded = False
        out: dict[Occupation, complex] = {}
        for occ, a in self.terms.items():
            sub = sub_of(occ)
            expansion = expansions.get(sub)
            if expansion is None:
                expansion = expansions[sub] = _expand(sub, matrix)
                expanded = True
            root_in, products = expansion
            rest = rest_of(occ)
            base = a / root_in
            for key, coeff, root_out in products:
                full = key + rest if leading else place(rest + key)
                out[full] = out.get(full, 0j) + base * coeff * root_out
        if expanded and sum(len(e[1]) for e in expansions.values()) <= _MEMO_PRODUCTS:
            _last_transform = (matrix, expansions)
        return self._like(out)

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
        mlist = [int(m) for m in modes]
        for m in mlist:
            self._check_mode(m)
        mset = set(mlist)
        if len(mset) != len(mlist):
            raise ModeOutOfRange("measurement modes must be distinct")
        keep = [m for m in range(self.modes) if m not in mset]
        outcome_of, residual_of = _picker(mlist), _picker(keep)

        # An occupation is its outcome plus its residual key, so each key
        # lands in its bucket once.
        grouped: dict[Occupation, dict[Occupation, complex]] = {}
        for occ, a in self.terms.items():
            outcome = outcome_of(occ)
            bucket = grouped.get(outcome)
            if bucket is None:
                bucket = grouped[outcome] = {}
            bucket[residual_of(occ)] = a

        results: list[MeasurementOutcome] = []
        for outcome, bucket in sorted(grouped.items()):
            prob = 0.0  # summed left to right, as _sum_in_order does
            try:
                for a in bucket.values():
                    prob += abs(a) ** 2
            except OverflowError:  # a modulus squared past the float range
                prob = math.inf
            if prob == math.inf:
                raise InvalidState(f"outcome {outcome} has a norm^2 past the float range")
            if prob <= _PRUNE_PROBABILITY:
                continue
            # The bucket is this call's own dict, so it becomes the residual
            # in place.  |a| * scale <= 1, so it needs no finiteness scan.
            scale = 1.0 / math.sqrt(prob)
            faint = []
            for k, a in bucket.items():
                b = a * scale
                if abs(b) >= PRUNE_TOLERANCE:
                    bucket[k] = b + 0j
                else:
                    faint.append(k)
            for k in faint:
                del bucket[k]
            results.append(MeasurementOutcome(outcome, prob, _state(len(keep), bucket)))
        return results

    # ------------------------------------------------------------------
    # structural helpers
    # ------------------------------------------------------------------

    def tensor(self, other: "SparseState") -> "SparseState":
        """Tensor product; this state's modes come first."""
        terms: dict[Occupation, complex] = {}
        for occ1, a1 in self.terms.items():
            for occ2, a2 in other.terms.items():
                terms[occ1 + occ2] = a1 * a2
        return self._like(terms, self.modes + other.modes)

    def extend(self, extra_modes: int) -> "SparseState":
        """Append ``extra_modes`` vacuum modes."""
        pad = (0,) * extra_modes
        terms = {occ + pad: a for occ, a in self.terms.items()}
        return self._like(terms, self.modes + extra_modes)

    def drop_modes(self, modes: Iterable[int]) -> "SparseState":
        """Remove the listed modes from every key.

        Caller must know the modes are unentangled (e.g. uncomputed
        helpers); counts on them are discarded, not measured.
        """
        mset = set(modes)
        keep = [m for m in range(self.modes) if m not in mset]
        pick = _picker(keep)
        terms: dict[Occupation, complex] = {}
        for occ, a in self.terms.items():
            key = pick(occ)
            terms[key] = terms.get(key, 0j) + a
        return self._like(terms, len(keep))

    def permute_modes(self, perm: Sequence[int]) -> "SparseState":
        """Relabel modes: new mode i holds old mode perm[i]'s count."""
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
        """Parse the JSON state schema; malformed data raises InvalidState."""
        try:
            raw_modes = data["modes"]
            modes = int(raw_modes)
            rows = [
                (t["occ"], tuple(int(c) for c in t["occ"]), (t["re"], t["im"]),
                 complex(t["re"], t["im"]))
                for t in data["terms"]
            ]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidState(f"malformed state data: {exc!r}") from exc
        # JSON true and false load as bools, which int() and complex() take as 1 and 0.
        if modes != raw_modes or isinstance(raw_modes, bool):
            raise InvalidState(f"mode count {raw_modes!r} is not an integer")
        terms: dict[Occupation, complex] = {}
        for raw, occ, parts, amp in rows:
            if occ != tuple(raw) or any(isinstance(c, bool) for c in raw):
                raise InvalidState(f"photon counts {raw} are not all integers")
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
    return min(1.0, abs(overlap) ** 2)


def _state(modes: int, terms: dict[Occupation, complex]) -> SparseState:
    """State holding ``terms`` as given: keys, amplitudes and pruning are the
    caller's to guarantee."""
    out = object.__new__(SparseState)
    out.modes = modes
    out.terms = terms
    return out


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
    """Function returning the entries at ``indices`` of a sequence as a tuple.

    ``operator.itemgetter`` returns a bare entry for one index and needs at
    least one, so those two cases take a one- or zero-length slice, which
    on a tuple is again a tuple and is still one C call."""
    if len(indices) > 1:
        return operator.itemgetter(*indices)
    if indices:
        (i,) = indices
        return operator.itemgetter(slice(i, i + 1))
    return operator.itemgetter(slice(0, 0))


def _expand(
    sub: Occupation, matrix: Sequence[Sequence[complex]]
) -> tuple[float, tuple[tuple[Occupation, complex, float], ...]]:
    """Expansion of one sub-occupation under a linear mode transform.

    Returns sqrt(prod sub!) and (output sub-occupation, coefficient,
    sqrt(prod out!)) per output key; the amplitude of a term with this
    sub-occupation then contributes a / root_in * coeff * root_out.
    """
    # Fold photons in one at a time: poly maps sub-occupations of the
    # transformed modes, coded as integers in base total+1 (mode m is digit
    # m), to expansion coefficients.
    radix = sum(sub) + 1
    poly: dict[int, complex] = {0: 1.0 + 0j}
    norm_in = 1.0
    for l, count in enumerate(sub):
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

