"""Gate counting, success probabilities, and retry-cost estimation.

Preparing the entangled pair costs 2(n-1) conditional transfer gates plus
either n^2 controlled signs (pairwise method) or 4n CNOTs (parity method,
whose constant Toffoli overhead is reported separately and excluded from
the scaling totals).  With per-gate success probability p the whole
post-selected pipeline succeeds with p^total, and the expected number of
repetitions is its inverse.
"""

from __future__ import annotations

import math
import random

from .errors import InfeasibleParameters, OutOfRange
from .fock import _Record, _sum_in_order
from .pipeline import PhaseMethod

ATTEMPTS_GUARD = 1e6


class GateCountReport(_Record):
    __slots__ = (
        "n",
        "method",
        "conditional_transfer_gates",
        "phase_gates",
        "fixed_gates",
        "total_gates",
        "per_gate_success",
        "success_probability",
    )

    def __init__(
        self,
        n: int,
        method: PhaseMethod,
        conditional_transfer_gates: int,
        phase_gates: int,
        fixed_gates: int,
        total_gates: int,
        per_gate_success: float,
        success_probability: float,
    ):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "conditional_transfer_gates", conditional_transfer_gates)
        object.__setattr__(self, "phase_gates", phase_gates)
        object.__setattr__(self, "fixed_gates", fixed_gates)
        object.__setattr__(self, "total_gates", total_gates)
        object.__setattr__(self, "per_gate_success", per_gate_success)
        object.__setattr__(self, "success_probability", success_probability)


def gate_counts(n: int, method: PhaseMethod, p: float = 0.25) -> GateCountReport:
    """Counts and success probability for one pair preparation."""
    if n < 1:
        raise OutOfRange(f"need n >= 1, got {n}")
    if not 0.0 < p <= 1.0:
        raise OutOfRange(f"per-gate success {p} outside (0, 1]")
    conditional = 2 * (n - 1)
    if method is PhaseMethod.PAIRWISE_GATES:
        phase, fixed = n * n, 0
    elif method is PhaseMethod.PARITY_ANCILLA:
        phase, fixed = 4 * n, 3
    else:
        raise OutOfRange(f"no gate counts for method {method!r}")
    total = conditional + phase
    return GateCountReport(
        n=n,
        method=method,
        conditional_transfer_gates=conditional,
        phase_gates=phase,
        fixed_gates=fixed,
        total_gates=total,
        per_gate_success=p,
        success_probability=p**total,
    )


def success_probability(n: int, method: PhaseMethod, p: float = 0.25) -> float:
    return gate_counts(n, method, p).success_probability


class FailureScaling(_Record):
    __slots__ = ("klm", "high_fidelity")

    def __init__(self, klm: float, high_fidelity: float):
        object.__setattr__(self, "klm", klm)
        object.__setattr__(self, "high_fidelity", high_fidelity)


def failure_scaling(n: int) -> FailureScaling:
    """Teleportation-gate failure rate 2/(n+1) vs error rate 4/(n+1)^2."""
    if n < 1:
        raise OutOfRange(f"need n >= 1, got {n}")
    return FailureScaling(klm=2.0 / (n + 1), high_fidelity=4.0 / (n + 1) ** 2)


class AttemptEstimate(_Record):
    __slots__ = ("mean", "standard_error", "trials")

    def __init__(self, mean: float, standard_error: float, trials: int):
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "standard_error", standard_error)
        object.__setattr__(self, "trials", trials)


def expected_attempts(
    n: int, method: PhaseMethod, p: float, trials: int, seed: int
) -> AttemptEstimate:
    """Monte Carlo of the retry loop: attempts until every gate succeeds.

    Each attempt draws independent Bernoulli(p) outcomes gate by gate and
    aborts at the first failure.  Raises InfeasibleParameters (carrying the
    analytic mean 1/p^G as its estimate) when the expected attempt count
    exceeds the guard.
    """
    if trials < 1:
        raise OutOfRange(f"need at least one trial, got {trials}")
    report = gate_counts(n, method, p)
    gates = report.total_gates
    analytic = 1.0 / report.success_probability
    if analytic > ATTEMPTS_GUARD:
        raise InfeasibleParameters(
            f"expected {analytic:.3g} attempts exceeds the {ATTEMPTS_GUARD:.0e} "
            "sampling guard; use the analytic value",
            estimate=analytic,
        )
    rng = random.Random(seed)
    samples = []
    for _ in range(trials):
        attempts = 0
        while True:
            attempts += 1
            for _ in range(gates):
                if rng.random() >= p:
                    break
            else:
                break
        samples.append(attempts)
    mean = sum(samples) / trials
    if trials > 1:
        var = _sum_in_order((s - mean) ** 2 for s in samples) / (trials - 1)
        stderr = math.sqrt(var / trials)
    else:
        stderr = float("inf")
    return AttemptEstimate(mean=mean, standard_error=stderr, trials=trials)
