"""Gate counting, success probabilities, and the retry Monte Carlo."""

import pytest

from loqc_ancilla import (
    AmplitudeProfile,
    InfeasibleParameters,
    OutOfRange,
    PhaseMethod,
    build_entangled_pair,
    expected_attempts,
    failure_scaling,
    gate_counts,
    success_probability,
)


# ----------------------------------------------------------------------
# counts
# ----------------------------------------------------------------------


def test_counts_n3_pairwise():
    report = gate_counts(3, PhaseMethod.PAIRWISE_GATES)
    assert report.conditional_transfer_gates == 4
    assert report.phase_gates == 9
    assert report.total_gates == 13
    assert report.fixed_gates == 0


def test_counts_n1_pairwise():
    report = gate_counts(1, PhaseMethod.PAIRWISE_GATES)
    assert report.conditional_transfer_gates == 0
    assert report.phase_gates == 1
    assert report.total_gates == 1


@pytest.mark.parametrize("n", range(1, 9))
def test_counts_parity_total_is_6n_minus_2(n):
    report = gate_counts(n, PhaseMethod.PARITY_ANCILLA)
    assert report.conditional_transfer_gates == 2 * (n - 1)
    assert report.phase_gates == 4 * n
    assert report.total_gates == 6 * n - 2
    assert report.fixed_gates == 3


def test_counts_validation():
    with pytest.raises(OutOfRange):
        gate_counts(0, PhaseMethod.PAIRWISE_GATES)
    with pytest.raises(OutOfRange):
        gate_counts(3, PhaseMethod.DIRECT_ORACLE)
    with pytest.raises(OutOfRange):
        gate_counts(3, PhaseMethod.PAIRWISE_GATES, p=0.0)
    with pytest.raises(OutOfRange):
        gate_counts(3, PhaseMethod.PAIRWISE_GATES, p=1.5)


# ----------------------------------------------------------------------
# success probabilities
# ----------------------------------------------------------------------


def test_success_n3_pairwise_quarter():
    assert success_probability(3, PhaseMethod.PAIRWISE_GATES, 0.25) == 0.25**13


@pytest.mark.parametrize("n", range(1, 7))
def test_success_parity_exponent(n):
    assert success_probability(n, PhaseMethod.PARITY_ANCILLA, 0.25) == 0.25 ** (6 * n - 2)


def test_success_perfect_gates():
    assert success_probability(5, PhaseMethod.PAIRWISE_GATES, 1.0) == 1.0


# ----------------------------------------------------------------------
# failure scaling
# ----------------------------------------------------------------------


def test_failure_scaling_values():
    s1 = failure_scaling(1)
    assert (s1.klm, s1.high_fidelity) == (1.0, 1.0)
    s3 = failure_scaling(3)
    assert (s3.klm, s3.high_fidelity) == (0.5, 0.25)
    s7 = failure_scaling(7)
    assert (s7.klm, s7.high_fidelity) == (0.25, 0.0625)


@pytest.mark.parametrize("n", range(1, 10))
def test_failure_scaling_ordering(n):
    s = failure_scaling(n)
    if n == 1:
        assert s.klm == s.high_fidelity
    else:
        assert s.klm > s.high_fidelity


# ----------------------------------------------------------------------
# cross-module consistency with the gate calls a build makes
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize(
    "method", [PhaseMethod.PAIRWISE_GATES, PhaseMethod.PARITY_ANCILLA]
)
def test_counts_match_pipeline_tallies(n, method, gate_calls):
    build_entangled_pair(n, AmplitudeProfile.constant(n), method)
    report = gate_counts(n, method)
    # The parity method's scaling gates are its CNOTs; its Toffoli pair and
    # single controlled sign are the fixed overhead.
    if method is PhaseMethod.PARITY_ANCILLA:
        phase, fixed = "cnot_logical", ("toffoli_logical", "controlled_sign")
    else:
        phase, fixed = "controlled_sign", ("toffoli_logical", "cnot_logical")
    assert gate_calls["gated_transfer"] == report.conditional_transfer_gates
    assert gate_calls[phase] == report.phase_gates
    assert sum(gate_calls[g] for g in fixed) == report.fixed_gates
    assert gate_calls["gated_transfer"] + gate_calls[phase] == report.total_gates


# ----------------------------------------------------------------------
# Monte Carlo
# ----------------------------------------------------------------------


def test_attempts_perfect_gates_mean_one():
    est = expected_attempts(2, PhaseMethod.PAIRWISE_GATES, 1.0, trials=100, seed=1)
    assert est.mean == 1.0
    assert est.standard_error == 0.0


def test_attempts_single_gate_geometric():
    est = expected_attempts(1, PhaseMethod.PAIRWISE_GATES, 0.5, trials=100_000, seed=7)
    assert abs(est.mean - 2.0) <= 3 * est.standard_error


def test_attempts_thirteen_gates_p09():
    analytic = (1 / 0.9) ** 13
    est = expected_attempts(3, PhaseMethod.PAIRWISE_GATES, 0.9, trials=20_000, seed=11)
    assert abs(est.mean - analytic) <= 3 * est.standard_error


def test_attempts_infeasible_reports_analytic_value():
    with pytest.raises(InfeasibleParameters) as err:
        expected_attempts(3, PhaseMethod.PAIRWISE_GATES, 0.25, trials=10, seed=0)
    assert err.value.estimate == 1.0 / 0.25**13
    assert err.value.estimate == 4.0**13


def test_attempts_trials_validation():
    with pytest.raises(OutOfRange):
        expected_attempts(1, PhaseMethod.PAIRWISE_GATES, 0.5, trials=0, seed=0)


def test_attempts_reproducible_given_seed():
    a = expected_attempts(1, PhaseMethod.PARITY_ANCILLA, 0.7, trials=2000, seed=42)
    b = expected_attempts(1, PhaseMethod.PARITY_ANCILLA, 0.7, trials=2000, seed=42)
    assert a == b


def test_attempts_three_sigma_coverage_over_seeds():
    # 100 independent seeded runs: the 3-sigma interval around the sample
    # mean should cover the analytic mean at least 99 times.
    analytic = 2.0 ** 4  # n=1 parity: 4 gates at p = 1/2
    hits = 0
    for seed in range(100):
        est = expected_attempts(1, PhaseMethod.PARITY_ANCILLA, 0.5, trials=3000, seed=seed)
        if abs(est.mean - analytic) <= 3 * est.standard_error:
            hits += 1
    assert hits >= 99
