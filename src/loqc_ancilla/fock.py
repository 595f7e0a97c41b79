"""Exact sparse simulation of multimode bosonic states in the Fock basis.

A state is a mapping from occupation vectors (one photon count per global
mode) to complex amplitudes.  All operations are pure: inputs are never
mutated and every method returns a fresh state.  Amplitudes with modulus
below the state's pruning tolerance are dropped after each operation, which
keeps the exact-cancellation junk of double precision out of the term set.

Keys and amplitudes are validated where data enters (the constructor,
``basis``, ``from_json_dict``); operations derive new states through the
trusted ``_like``, which only prunes and refuses non-finite amplitudes.

Global phase is deliberately never normalized away; state comparisons go
through :func:`fidelity`, which is phase-insensitive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    DimensionMismatch,
    InvalidCoefficient,
    InvalidState,
    ModeOutOfRange,
    ZeroState,
)

Occupation = tuple[int, ...]

DEFAULT_TOLERANCE = 1e-12


class SparseState:
    """Sparse complex superposition over multimode occupation vectors.

    Parameters
    ----------
    modes : int
        Number of global modes; every occupation key has this length.
    terms : mapping, optional
        Occupation vector -> complex amplitude.  Copied, filtered against
        ``tolerance``.
    tolerance : float
        Pruning threshold on |amplitude|.
    """

    __slots__ = ("modes", "terms", "tolerance")

    def __init__(
        self,
        modes: int,
        terms: Mapping[Occupation, complex] | None = None,
        tolerance: float = DEFAULT_TOLERANCE,
    ):
        self.modes = int(modes)
        self.tolerance = float(tolerance)
        self.terms: dict[Occupation, complex] = {}
        if terms:
            for occ, amp in terms.items():
                occ = tuple(int(c) for c in occ)
                if len(occ) != self.modes:
                    raise DimensionMismatch(
                        f"occupation {occ} has {len(occ)} entries, state has "
                        f"{self.modes} modes"
                    )
                if any(c < 0 for c in occ):
                    raise InvalidState(f"negative photon count in {occ}")
                amp = complex(amp)
                if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
                    raise InvalidState(f"non-finite amplitude {amp} at {occ}")
                if abs(amp) >= self.tolerance:
                    self.terms[occ] = self.terms.get(occ, 0j) + amp

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def basis(cls, occ: Sequence[int], tolerance: float = DEFAULT_TOLERANCE) -> "SparseState":
        """Single basis state |occ> with amplitude 1."""
        occ = tuple(int(c) for c in occ)
        return cls(len(occ), {occ: 1.0 + 0j}, tolerance)

    @classmethod
    def vacuum(cls, modes: int, tolerance: float = DEFAULT_TOLERANCE) -> "SparseState":
        return cls.basis((0,) * modes, tolerance)

    def _like(self, terms: Mapping[Occupation, complex], modes: int | None = None) -> "SparseState":
        """Trusted constructor: keys are taken as valid for ``modes`` (default:
        this state's) and amplitudes are only pruned.  A NaN fails the prune's
        comparison and would vanish silently, hence the finiteness check;
        ``+ 0j`` maps -0.0 to +0.0 as the public constructor's sum does."""
        if not math.isfinite(sum(map(abs, terms.values()))):
            raise InvalidState("an operation produced a non-finite amplitude")
        out = object.__new__(SparseState)
        out.modes = self.modes if modes is None else modes
        out.tolerance = tol = self.tolerance
        out.terms = {occ: a + 0j for occ, a in terms.items() if abs(a) >= tol}
        return out

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def amplitude(self, occ: Sequence[int]) -> complex:
        return self.terms.get(tuple(occ), 0j)

    def norm_squared(self) -> float:
        return sum(abs(a) ** 2 for a in self.terms.values())

    def normalized(self) -> "SparseState":
        """Rescale to unit 2-norm.  Relative and global phases untouched."""
        n2 = self.norm_squared()
        if n2 <= self.tolerance**2:
            raise ZeroState("cannot normalize a state with no amplitude")
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
        out: dict[Occupation, complex] = {}
        for occ, a in self.terms.items():
            out[occ] = a * _cis(phi * occ[mode])
        return self._like(out)

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

        with R = sqrt(1 - T^2), both real.  Multi-photon terms expand
        binomially with the factorial normalization of Fock amplitudes,
        so photon number on {m1, m2} and the total norm are conserved
        exactly (up to float roundoff).
        """
        self._check_mode(m1)
        self._check_mode(m2)
        if m1 == m2:
            raise ModeOutOfRange("beamsplitter needs two distinct modes")
        if not 0.0 <= t <= 1.0:
            raise InvalidCoefficient(f"transmission {t} outside [0, 1]")
        r = math.sqrt(max(0.0, 1.0 - t * t))
        ir = 1j * r
        out: dict[Occupation, complex] = {}
        for occ, a in self.terms.items():
            n1, n2 = occ[m1], occ[m2]
            if n1 == 0 and n2 == 0:
                out[occ] = out.get(occ, 0j) + a
                continue
            base = a / math.sqrt(math.factorial(n1) * math.factorial(n2))
            total = n1 + n2
            # (T a1 + iR a2)^n1 (iR a1 + T a2)^n2, collected by the power
            # k+l of a1 in the product.
            for k in range(n1 + 1):
                c1 = math.comb(n1, k) * (t**k) * (ir ** (n1 - k))
                for l in range(n2 + 1):
                    c2 = math.comb(n2, l) * (ir**l) * (t ** (n2 - l))
                    p1 = k + l
                    p2 = total - p1
                    coeff = (
                        base
                        * c1
                        * c2
                        * math.sqrt(math.factorial(p1) * math.factorial(p2))
                    )
                    new = list(occ)
                    new[m1] = p1
                    new[m2] = p2
                    key = tuple(new)
                    out[key] = out.get(key, 0j) + coeff
        return self._like(out)

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
        if len(set(mlist)) != len(mlist):
            raise ModeOutOfRange("transform modes must be distinct")
        n_sub = len(mlist)
        if len(matrix) != n_sub or any(len(row) != n_sub for row in matrix):
            raise DimensionMismatch("matrix shape must match the mode list")

        out: dict[Occupation, complex] = {}
        for occ, a in self.terms.items():
            sub = [occ[m] for m in mlist]
            total = sum(sub)
            if total == 0:
                out[occ] = out.get(occ, 0j) + a
                continue
            # Fold photons in one at a time: poly maps sub-occupations of
            # the transformed modes to expansion coefficients.
            poly: dict[Occupation, complex] = {(0,) * n_sub: 1.0 + 0j}
            norm_in = 1.0
            for l, count in enumerate(sub):
                norm_in *= math.factorial(count)
                row = matrix[l]
                for _ in range(count):
                    nxt: dict[Occupation, complex] = {}
                    for key, coeff in poly.items():
                        for m in range(n_sub):
                            cm = row[m]
                            if cm == 0:
                                continue
                            new = list(key)
                            new[m] += 1
                            k2 = tuple(new)
                            nxt[k2] = nxt.get(k2, 0j) + coeff * cm
                    poly = nxt
            base = a / math.sqrt(norm_in)
            for key, coeff in poly.items():
                norm_out = 1.0
                for c in key:
                    norm_out *= math.factorial(c)
                new = list(occ)
                for m, c in zip(mlist, key):
                    new[m] = c
                full = tuple(new)
                out[full] = out.get(full, 0j) + base * coeff * math.sqrt(norm_out)
        return self._like(out)

    def apply_controlled(
        self, mode: int, on: Callable, off: Callable | None = None
    ) -> "SparseState":
        """Apply ``on`` to the terms where ``mode`` is occupied and ``off`` (the
        identity when None) to the rest, then add the two results; a branch
        with no terms is skipped and the occupied one is added first."""
        self._check_mode(mode)
        occupied: dict[Occupation, complex] = {}
        empty: dict[Occupation, complex] = {}
        for occ, a in self.terms.items():
            (occupied if occ[mode] else empty)[occ] = a
        merged: dict[Occupation, complex] = {}
        if occupied:
            merged.update(on(self._like(occupied)).terms)
        if empty:
            rest = empty if off is None else off(self._like(empty)).terms
            for occ, a in rest.items():
                merged[occ] = merged.get(occ, 0j) + a
        return self._like(merged)

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------

    def measure(self, modes: Sequence[int]) -> list["MeasurementOutcome"]:
        """Exhaustive photon-number measurement of the listed modes.

        Returns every outcome with its probability and the normalized
        residual state over the remaining modes (measured modes removed).
        Probabilities sum to 1 for a normalized input.
        """
        mlist = [int(m) for m in modes]
        for m in mlist:
            self._check_mode(m)
        mset = set(mlist)
        if len(mset) != len(mlist):
            raise ModeOutOfRange("measurement modes must be distinct")
        keep = [m for m in range(self.modes) if m not in mset]

        grouped: dict[Occupation, dict[Occupation, complex]] = {}
        for occ, a in self.terms.items():
            outcome = tuple(occ[m] for m in mlist)
            residual_key = tuple(occ[m] for m in keep)
            bucket = grouped.setdefault(outcome, {})
            bucket[residual_key] = bucket.get(residual_key, 0j) + a

        results: list[MeasurementOutcome] = []
        for outcome in sorted(grouped):
            bucket = grouped[outcome]
            prob = sum(abs(a) ** 2 for a in bucket.values())
            if prob <= self.tolerance**2:
                continue
            scale = 1.0 / math.sqrt(prob)
            residual = self._like({k: a * scale for k, a in bucket.items()}, len(keep))
            results.append(MeasurementOutcome(outcome, prob, residual))
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
        terms: dict[Occupation, complex] = {}
        for occ, a in self.terms.items():
            key = tuple(occ[m] for m in keep)
            terms[key] = terms.get(key, 0j) + a
        return self._like(terms, len(keep))

    def permute_modes(self, perm: Sequence[int]) -> "SparseState":
        """Relabel modes: new mode i holds old mode perm[i]'s count."""
        if sorted(perm) != list(range(self.modes)):
            raise ModeOutOfRange("perm must be a permutation of all modes")
        terms = {
            tuple(occ[p] for p in perm): a for occ, a in self.terms.items()
        }
        return self._like(terms)

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
    def from_json_dict(cls, data: Mapping, tolerance: float = DEFAULT_TOLERANCE) -> "SparseState":
        """Parse the JSON state schema; malformed data raises InvalidState."""
        try:
            modes = int(data["modes"])
            terms = {
                tuple(int(c) for c in t["occ"]): complex(t["re"], t["im"])
                for t in data["terms"]
            }
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidState(f"malformed state data: {exc!r}") from exc
        return cls(modes, terms, tolerance)


@dataclass(frozen=True)
class MeasurementOutcome:
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
    small, large = (a.terms, b.terms) if len(a) <= len(b) else (b.terms, a.terms)
    overlap = 0j
    for occ, amp in small.items():
        other = large.get(occ)
        if other is not None:
            overlap += amp.conjugate() * other
    return min(1.0, abs(overlap) ** 2)


_QUARTER_TURNS = (1.0 + 0j, 1j, -1.0 + 0j, -1j)


def _cis(phi: float) -> complex:
    # Exact values at every integer multiple of pi/2 keep sign gates, the
    # canonical fixups and pi * count phases free of 1e-16 junk.  A float
    # whose quotient by pi/2 rounds to an integer lies within an ulp of that
    # multiple, so the lookup is as accurate as cos/sin of the float itself.
    quarters = phi / (math.pi / 2)
    if quarters.is_integer():
        return _QUARTER_TURNS[int(quarters) % 4]
    return complex(math.cos(phi), math.sin(phi))


class RegisterLayout:
    """Named registers mapped onto contiguous ranges of global modes.

    Built from an ordered list of (name, size) pairs, so the ranges are
    disjoint by construction and cover 0..total-1 exactly.
    """

    def __init__(self, registers: Sequence[tuple[str, int]]):
        self._ranges: dict[str, range] = {}
        start = 0
        for name, size in registers:
            if size < 0:
                raise ValueError(f"register {name!r} has negative size")
            if name in self._ranges:
                raise ValueError(f"duplicate register name {name!r}")
            self._ranges[name] = range(start, start + size)
            start += size
        self.total = start

    def modes(self, name: str) -> range:
        return self._ranges[name]

    def mode(self, name: str, index: int) -> int:
        """Global index of the (0-based) ``index``-th mode of a register."""
        r = self._ranges[name]
        if not 0 <= index < len(r):
            raise ModeOutOfRange(f"{name}[{index}] out of range")
        return r[index]

    def names(self) -> list[str]:
        return list(self._ranges)

    def __contains__(self, name: str) -> bool:
        return name in self._ranges
