"""Amplitude profiles over the register weight j and their transfer schedules.

A profile assigns a real weight f(j) to each number j = 0..n of transferred
photons.  The sequential construction realizes those weights as a chain of
conditional transfers: step k succeeds with probability

    P_k = sum_{j>=k} f(j)^2 / sum_{j>=k-1} f(j)^2

so the product of "go" branches through step j and a "stay" at step j+1
reproduces f(j)^2 exactly.  An exhausted tail (0/0) resolves to P_k = 0.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Sequence

from .errors import InvalidProfile
from .fock import _Record, _sum_in_order, _whole_number


class AmplitudeProfile(_Record):
    """Normalized weights f(0)..f(n); sum of squares is 1 on construction.

    ``n`` follows ``SparseState``'s mode-count rule: 2.0 reads as 2, and 2.5
    or a bool raises ``InvalidProfile``.  Each value must be a real number:
    a bool, a string or a complex number raises ``InvalidProfile``.
    """

    __slots__ = ("n", "f")

    def __init__(self, n: int, f: Sequence[float]):
        whole = _whole_number(n)
        if whole is None:
            raise InvalidProfile(f"profile n {n!r} is not an integer")
        if whole < 1:
            raise InvalidProfile(f"need n >= 1, got {whole}")
        try:
            values = tuple(f)
            floats = tuple(map(float, values))
        except (TypeError, ValueError):  # complex, None or a list, say
            values = None
        except OverflowError:  # an int past the float range
            raise InvalidProfile("profile values must be finite") from None
        # float() takes True, "1" and b"1" too.
        if values is None or any(isinstance(v, (bool, str, bytes)) for v in values):
            raise InvalidProfile(f"profile values {f!r} are not all numbers")
        if len(floats) != whole + 1:
            raise InvalidProfile(
                f"profile for n={whole} needs {whole + 1} values, got {len(floats)}"
            )
        if not all(math.isfinite(v) for v in floats):
            raise InvalidProfile("profile values must be finite")
        peak = max(map(abs, floats))
        norm2 = _sum_in_order(v * v for v in floats)
        if not sys.float_info.min <= norm2 < math.inf and peak > 0.0:
            # Squares past the normal float range: divide by the largest |f|
            # first.  Only such profiles take the detour; others keep their bits.
            floats = tuple(v / peak for v in floats)
            norm2 = _sum_in_order(v * v for v in floats)
        if norm2 == 0.0:
            raise InvalidProfile("profile cannot be all zero")
        norm = math.sqrt(norm2)
        object.__setattr__(self, "n", whole)
        object.__setattr__(self, "f", tuple(v / norm for v in floats))

    @classmethod
    def constant(cls, n: int) -> "AmplitudeProfile":
        """Equal weight on every j (the plain post-selection choice)."""
        return cls(n, (1.0,) * (n + 1))

    @classmethod
    def delta(cls, n: int) -> "AmplitudeProfile":
        """All weight on j = n: every transfer is deterministic."""
        return cls(n, (0.0,) * n + (1.0,))

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "AmplitudeProfile":
        return cls(len(values) - 1, values)

    @classmethod
    def from_json_dict(cls, data: dict) -> "AmplitudeProfile":
        """Parse ``{"n": ..., "f": [...]}``; malformed data raises InvalidProfile.

        ``n`` and the values are the constructor's to check, so a string
        value is refused even where it holds a number, such as "0.5"."""
        try:
            n, f = data["n"], tuple(data["f"])
        except (KeyError, TypeError) as exc:
            raise InvalidProfile(f"malformed profile data: {exc!r}") from exc
        return cls(n, f)

    @classmethod
    def load(cls, path: str) -> "AmplitudeProfile":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
                raise InvalidProfile(f"{path} is not a JSON profile: {exc}") from exc
        return cls.from_json_dict(data)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "f": list(self.f)}

    def weights(self) -> tuple[float, ...]:
        """f(j)^2 for j = 0..n."""
        return tuple(v * v for v in self.f)

    @property
    def is_nonnegative(self) -> bool:
        return all(v >= 0.0 for v in self.f)


def _require_n(profile: AmplitudeProfile, n: int) -> None:
    """Refuse a profile made for another register size than ``n``."""
    if profile.n != n:
        raise InvalidProfile(f"profile is for n={profile.n}, requested n={n}")


class TransferSchedule(_Record):
    """Conditional-transfer probabilities P_1..P_n."""

    __slots__ = ("probabilities",)

    def __init__(self, probabilities: tuple[float, ...]):
        probabilities = tuple(probabilities)
        # schedule_from_profile never exceeds 1: its denominator adds the
        # numerator's terms in the same order after one more non-negative
        # term, and rounded addition is monotone.
        for p in probabilities:
            if not 0.0 <= p <= 1.0:  # NaN fails too
                raise InvalidProfile(f"transfer probability {p} outside [0, 1]")
        object.__setattr__(self, "probabilities", probabilities)

    @property
    def n(self) -> int:
        return len(self.probabilities)

    def implied_weights(self) -> tuple[float, ...]:
        """Branch weights the schedule generates: should reproduce f(j)^2.

        Weight(j) = (product of P_1..P_j) * (1 - P_{j+1}), with the last
        factor omitted at j = n.
        """
        probs = self.probabilities
        weights = []
        running = 1.0
        for j in range(self.n + 1):
            stay = 1.0 - probs[j] if j < self.n else 1.0
            weights.append(running * stay)
            if j < self.n:
                running *= probs[j]
        return tuple(weights)


def schedule_from_profile(profile: AmplitudeProfile) -> TransferSchedule:
    """Tail-ratio recursion on the squared weights; 0/0 tails give P_k = 0.

    It sees only f(j)^2, so a profile with a negative weight is refused.
    """
    if not profile.is_nonnegative:
        raise InvalidProfile(
            "transfers only realize non-negative weights; "
            "signed profiles are supported by the direct oracles"
        )
    w = profile.weights()
    n = profile.n
    probs = []
    for k in range(1, n + 1):
        tail_prev = _sum_in_order(w[k - 1 :])
        tail_here = _sum_in_order(w[k:])
        probs.append(0.0 if tail_prev == 0.0 else tail_here / tail_prev)
    return TransferSchedule(tuple(probs))
