"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Tolerances are pinned here and nowhere relaxed:

  fidelity floors     1 - 1e-10   (criteria 1, 6, 7)
  method equivalence  1 - 1e-12   (criterion 4)
  algebraic checks    1e-12       (criteria 2, 3, 8 norms)
  probability sums    1e-9        (criteria 6, 8)
  bit-exact integers and powers   (criterion 5)
  runtime  criterion 1 < 10 s, criterion 6 < 60 s
"""

import math
import random
import time
from contextlib import contextmanager

import pytest

from loqc_ancilla import (
    AmplitudeProfile,
    Classification,
    InfeasibleParameters,
    InputQubit,
    PhaseMethod,
    SparseState,
    TransferSetting,
    apply_entangling_phase,
    apply_qft,
    build_entangled_pair,
    build_single_register,
    cz_via_double_teleportation,
    direct_oracle_pair,
    direct_oracle_single,
    expected_attempts,
    failure_probability,
    fidelity,
    gate_counts,
    schedule_from_profile,
    success_probability,
    teleport,
    transfer_gadget,
)
from loqc_ancilla.dots import (
    PulseSchedule,
    compile_pair_schedule,
    compile_schedule,
    execute,
    prepare_pair,
    scheduled_pulse_count,
)
from conftest import random_qubit, random_state


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}: FAIL — {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS — {description}")


def random_profile(rng: random.Random, n: int) -> AmplitudeProfile:
    return AmplitudeProfile.from_values([rng.uniform(0.05, 1.0) for _ in range(n + 1)])


def test_criterion_1_register_construction():
    with criterion(1, "register construction matches oracles, n=1..5, <10 s"):
        start = time.perf_counter()
        rng = random.Random(20260809)
        for n in range(1, 6):
            profiles = [AmplitudeProfile.constant(n)] + [
                random_profile(rng, n) for _ in range(20)
            ]
            for profile in profiles:
                single = build_single_register(n, profile)
                assert fidelity(single, direct_oracle_single(n, profile)) >= 1 - 1e-10
                pair = build_entangled_pair(n, profile, PhaseMethod.PAIRWISE_GATES)
                assert fidelity(pair, direct_oracle_pair(n, profile)) >= 1 - 1e-10
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"construction took {elapsed:.2f} s"


def test_criterion_2_transfer_gadget_law():
    with criterion(2, "gadget transfer probability 4(1-T^2)T^2; blocked at 180 deg"):
        for i in range(11):
            t = i / 10
            r = math.sqrt(1 - t * t)
            out = transfer_gadget(
                SparseState.basis((1, 0)), 0, 1, TransferSetting(t=t, r=r, phi=0.0)
            )
            transferred = {o.counts: o.probability for o in out.measure([1])}
            assert transferred.get((1,), 0.0) == pytest.approx(
                4 * (1 - t * t) * t * t, abs=1e-12
            )
            blocked = transfer_gadget(
                SparseState.basis((1, 0)), 0, 1, TransferSetting(t=t, r=r, phi=math.pi)
            )
            stays = {o.counts: o.probability for o in blocked.measure([1])}
            assert stays.get((0,), 0.0) == pytest.approx(1.0, abs=1e-12)


def test_criterion_3_schedule_correctness():
    with criterion(3, "transfer schedule: exact constant values, weight round-trip"):
        schedule = schedule_from_profile(AmplitudeProfile.constant(3))
        assert schedule.probabilities == (0.75, 2.0 / 3.0, 0.5)
        rng = random.Random(4242)
        for n in range(1, 7):
            for _ in range(20):
                profile = random_profile(rng, n)
                implied = schedule_from_profile(profile).implied_weights()
                for got, want in zip(implied, profile.weights()):
                    assert got == pytest.approx(want, abs=1e-12)


def test_criterion_4_phase_method_equivalence():
    with criterion(4, "pairwise == parity == direct sign oracle, helpers uncomputed"):
        rng = random.Random(777)
        for n in range(1, 6):
            for profile in (AmplitudeProfile.constant(n), random_profile(rng, n)):
                base = direct_oracle_single(n, profile).tensor(
                    direct_oracle_single(n, profile)
                )
                oracle = apply_entangling_phase(base, PhaseMethod.DIRECT_ORACLE)
                pairwise = apply_entangling_phase(base, PhaseMethod.PAIRWISE_GATES)
                # The parity path raises unless q_a, q_b, q_c return to |000>.
                parity = apply_entangling_phase(base, PhaseMethod.PARITY_ANCILLA)
                assert parity.modes == 4 * n
                assert fidelity(pairwise, oracle) >= 1 - 1e-12
                assert fidelity(parity, oracle) >= 1 - 1e-12


def test_criterion_5_gate_counts_bit_exact():
    with criterion(5, "gate counts 2(n-1), n^2, 4n and quarter-power successes"):
        for n in range(1, 9):
            pw = gate_counts(n, PhaseMethod.PAIRWISE_GATES)
            assert pw.conditional_transfer_gates == 2 * (n - 1)
            assert pw.phase_gates == n * n
            par = gate_counts(n, PhaseMethod.PARITY_ANCILLA)
            assert par.phase_gates == 4 * n
            assert par.total_gates == 6 * n - 2
            assert success_probability(n, PhaseMethod.PARITY_ANCILLA, 0.25) == 0.25 ** (
                6 * n - 2
            )
        assert success_probability(3, PhaseMethod.PAIRWISE_GATES, 0.25) == 0.25**13


def test_criterion_6_teleportation_scaling():
    with criterion(6, "teleport failure 1/(n+1); gate failure 1-(n/(n+1))^2; <60 s"):
        start = time.perf_counter()
        rng = random.Random(1337)
        for n in range(1, 5):
            ancilla = direct_oracle_single(n, AmplitudeProfile.constant(n))
            for qubit in (InputQubit.zero(), InputQubit.one(), random_qubit(rng)):
                outcomes = teleport(qubit, ancilla, n)
                probs = sum(o.probability for o in outcomes)
                assert probs == pytest.approx(1.0, abs=1e-9)
                assert failure_probability(outcomes) == pytest.approx(
                    1.0 / (n + 1), abs=1e-12
                )
                for o in outcomes:
                    if o.classification is Classification.SUCCESS:
                        assert o.fidelity >= 1 - 1e-10
        for n in range(1, 4):
            pair = direct_oracle_pair(n, AmplitudeProfile.constant(n))
            result = cz_via_double_teleportation(
                InputQubit.plus(), InputQubit.plus(), pair, n
            )
            gate_failure = 1.0 - (n / (n + 1)) ** 2
            assert result.failure_probability == pytest.approx(gate_failure, abs=1e-12)
            # First-order term of the gate failure is 2/(n+1).
            assert abs(gate_failure - 2.0 / (n + 1)) <= 1.0 / (n + 1) ** 2 + 1e-12
            assert result.min_fidelity >= 1 - 1e-10
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"teleportation checks took {elapsed:.2f} s"


def test_criterion_7_dot_array_end_to_end():
    with criterion(7, "dot pipeline matches pair oracle; blockade safe; O(n^2) pulses"):
        rng = random.Random(808)
        for n in range(1, 5):
            for profile in (AmplitudeProfile.constant(n), random_profile(rng, n)):
                photonic, _ = prepare_pair(n, profile, intra_coefficient=0.25)
                assert fidelity(photonic, direct_oracle_pair(n, profile)) >= 1 - 1e-10
        # Every intermediate state stays single-occupancy: replay prefixes.
        schedule = compile_pair_schedule(2, AmplitudeProfile.constant(2))
        for cut in range(1, len(schedule.pulses) + 1):
            state = execute(PulseSchedule(2, 2, schedule.pulses[:cut]))
            for occ in state.terms:
                assert all(c <= 1 for c in occ)
        for n in range(1, 9):
            count = len(compile_schedule(n, AmplitudeProfile.constant(n)).pulses)
            assert count == scheduled_pulse_count(n, pairs=1) == n * n + n + 1
            assert count <= 2 * n * n + 2  # quadratic bound


def test_criterion_8_numerical_hygiene():
    with criterion(8, "1000 random unitaries preserve norm; probabilities sum to 1"):
        rng = random.Random(31415)
        for case in range(1000):
            modes = rng.randint(2, 4)
            state = random_state(rng, modes, 3)
            kind = case % 3
            if kind == 0:
                m1, m2 = rng.sample(range(modes), 2)
                out = state.apply_beamsplitter(m1, m2, rng.random())
            elif kind == 1:
                out = state.apply_phase(rng.randrange(modes), rng.uniform(0, 2 * math.pi))
            else:
                size = rng.randint(2, modes)
                out = apply_qft(state, rng.sample(range(modes), size))
            assert out.norm_squared() == pytest.approx(1.0, abs=1e-12)
            picked = rng.sample(range(modes), rng.randint(1, modes))
            total = sum(o.probability for o in out.measure(picked))
            assert total == pytest.approx(1.0, abs=1e-9)


def test_criterion_9_monte_carlo_attempts():
    with criterion(9, "retry estimate within 3 sigma; infeasible grid rejected"):
        grid = [
            (1, PhaseMethod.PAIRWISE_GATES, 0.5, 50_000),
            (1, PhaseMethod.PARITY_ANCILLA, 0.7, 20_000),
            (2, PhaseMethod.PARITY_ANCILLA, 0.9, 20_000),
            (3, PhaseMethod.PAIRWISE_GATES, 0.9, 20_000),
        ]
        for seed, (n, method, p, trials) in enumerate(grid, start=100):
            report = gate_counts(n, method, p)
            analytic = 1.0 / report.success_probability
            est = expected_attempts(n, method, p, trials=trials, seed=seed)
            assert abs(est.mean - analytic) <= 3 * est.standard_error
        with pytest.raises(InfeasibleParameters) as err:
            expected_attempts(3, PhaseMethod.PAIRWISE_GATES, 0.25, trials=10, seed=0)
        assert err.value.estimate == 4.0**13
