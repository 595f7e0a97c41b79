"""Amplitude profiles and the transfer-probability recursion."""

import json
import math
import random

import pytest

from loqc_ancilla import (
    AmplitudeProfile,
    InvalidProfile,
    TransferSchedule,
    build_single_register,
    schedule_from_profile,
)


def test_profile_normalizes_on_construction():
    p = AmplitudeProfile.from_values([1.0, 2.0, 2.0, 1.0])
    assert sum(v * v for v in p.f) == pytest.approx(1.0, abs=1e-12)
    assert [v * v for v in p.f] == pytest.approx([0.1, 0.4, 0.4, 0.1], abs=1e-12)


def test_profile_validation():
    with pytest.raises(InvalidProfile):
        AmplitudeProfile(2, (1.0, 1.0))  # wrong length
    with pytest.raises(InvalidProfile):
        AmplitudeProfile.from_values([0.0, 0.0])
    with pytest.raises(InvalidProfile):
        AmplitudeProfile.from_values([1.0, math.inf])
    with pytest.raises(InvalidProfile):
        AmplitudeProfile(0, (1.0,))
    # n follows SparseState's mode-count rule: 2.0 reads as 2.
    whole = AmplitudeProfile(2.0, (1, 1, 1))
    assert whole == AmplitudeProfile.constant(2) and type(whole.n) is int
    assert AmplitudeProfile.from_json_dict({"n": 2.0, "f": [1, 1, 1.0]}) == whole
    with pytest.raises(InvalidProfile, match="are not all numbers"):
        AmplitudeProfile.from_json_dict({"n": 2.0, "f": [1, "1", 1.0]})
    assert len(build_single_register(2, whole)) == 3
    for n in (2.5, True, "2", math.nan):
        with pytest.raises(InvalidProfile, match="is not an integer"):
            AmplitudeProfile(n, (1, 1, 1))
    # from_values passes its values to the constructor as given, so it
    # refuses what the constructor refuses, and an int loads as its float.
    for value in (True, "1", "0.5", b"1", 1j, None):
        with pytest.raises(InvalidProfile, match="are not all numbers"):
            AmplitudeProfile(1, (value, 1.0))
        with pytest.raises(InvalidProfile, match="are not all numbers"):
            AmplitudeProfile.from_values([value, 1])
    with pytest.raises(InvalidProfile, match="must be finite"):
        AmplitudeProfile(1, (10**400, 1))
    with pytest.raises(InvalidProfile, match="must be finite"):
        AmplitudeProfile.from_values([10**400, 1])
    assert AmplitudeProfile.from_values([3, 4]).f == AmplitudeProfile.from_values([3.0, 4.0]).f


@pytest.mark.parametrize("scale", [1e200, 1e-170, 5e-324])
def test_profile_of_extreme_values_normalizes_like_its_scaled_copy(scale):
    # Squares past the float range or below its normal floor are divided by
    # the largest |f| first, so the profile keeps its shape.
    for n in (1, 2, 5):
        assert AmplitudeProfile(n, (scale,) * (n + 1)) == AmplitudeProfile.constant(n)
    assert AmplitudeProfile(2, (-scale, 0.0, scale)).f == AmplitudeProfile(2, (-1.0, 0.0, 1.0)).f


def test_constant_and_delta():
    c = AmplitudeProfile.constant(3)
    assert all(v == pytest.approx(0.5) for v in c.f)
    d = AmplitudeProfile.delta(3)
    assert d.f == (0.0, 0.0, 0.0, 1.0)


def test_profile_file_round_trip(tmp_path):
    p = AmplitudeProfile.from_values([0.5, 3.0, -1.0])
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(p.to_json_dict()))
    loaded = AmplitudeProfile.load(str(path))
    assert loaded == p
    with pytest.raises(InvalidProfile, match="profile for n=3 needs 4 values, got 2"):
        AmplitudeProfile.from_json_dict({"n": 3, "f": [1.0, 1.0]})


def test_schedule_constant_n3_exact():
    schedule = schedule_from_profile(AmplitudeProfile.constant(3))
    assert schedule.probabilities == (0.75, 2.0 / 3.0, 0.5)


def test_schedule_constant_n1():
    schedule = schedule_from_profile(AmplitudeProfile.constant(1))
    assert schedule.probabilities == (0.5,)


def test_schedule_delta_forces_every_transfer():
    schedule = schedule_from_profile(AmplitudeProfile.delta(3))
    assert schedule.probabilities == (1.0, 1.0, 1.0)


def test_schedule_zero_tail_resolves_to_zero():
    # All weight below j = 2: steps past the support get P = 0, not 0/0.
    p = AmplitudeProfile.from_values([1.0, 2.0, 0.0, 0.0])
    schedule = schedule_from_profile(p)
    assert schedule.probabilities[1] == 0.0
    assert schedule.probabilities[2] == 0.0


def test_schedule_round_trip_reproduces_weights():
    rng = random.Random(2024)
    for n in range(1, 7):
        for _ in range(20):
            values = [rng.uniform(0, 1) for _ in range(n + 1)]
            if rng.random() < 0.3:
                values[-1] = 0.0  # exercise degenerate tails
            if all(v == 0.0 for v in values):
                values[0] = 1.0
            profile = AmplitudeProfile.from_values(values)
            schedule = schedule_from_profile(profile)
            implied = schedule.implied_weights()
            for got, want in zip(implied, profile.weights()):
                assert got == pytest.approx(want, abs=1e-12)


def test_transfer_schedule_refuses_probabilities_outside_unit_interval():
    assert TransferSchedule((0.0, 1.0)).probabilities == (0.0, 1.0)
    for p in (math.nextafter(1.0, 2.0), -0.25, math.nan):
        with pytest.raises(InvalidProfile):
            TransferSchedule((p,))
