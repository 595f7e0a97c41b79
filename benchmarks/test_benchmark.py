"""Self-tests of the benchmark: run with ``python3 -m pytest benchmarks -q``.

They check that the verifier catches results ``fidelity`` alone would pass,
that a failed check is counted and does not end the run, and that a short
run at small n prints every metric of ``BENCHMARK.json`` with its unit,
passes every check and repeats its counts exactly for a given seed.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import worker  # noqa: E402
from workloads import (  # noqa: E402
    SMALL_SIZES,
    Package,
    PrepareWorkload,
    TeleportWorkload,
    state_problems,
    teleport_problems,
)

PKG = Package(os.path.join(ROOT, "src"))
WORKLOADS = ["prepare", "teleport", "czgate", "cli"]
COUNT_SUFFIXES = (".calls", "fock.init.terms", "fock.peak_terms", "teleport.outcomes")


def _doubled(state):
    return PKG.fock.SparseState(state.modes, {k: 2 * a for k, a in state.terms.items()})


class DoubledPrepare(PrepareWorkload):
    """Returns 2*psi: fidelity clamps to 1, the norm check must catch it."""

    def run(self, kind, inp):
        state, _ = super().run(kind, inp)
        state = _doubled(state)
        profile, _ = inp
        oracle = PKG.pipeline.direct_oracle_pair(self.sizes["n"], profile)
        return state, PKG.fock.fidelity(state, oracle)


class DroppedOutcomeTeleport(TeleportWorkload):
    """Loses the last success outcome, so probabilities no longer sum to 1."""

    def run(self, kind, qubit):
        outcomes = super().run(kind, qubit)
        success = [i for i, o in enumerate(outcomes) if o.classification.value == "success"]
        return outcomes[: success[-1]] + outcomes[success[-1] + 1 :]


def test_fidelity_alone_passes_a_doubled_state_but_the_verifier_does_not():
    n = 2
    profile = PKG.profiles.AmplitudeProfile.constant(n)
    state = PKG.pipeline.build_entangled_pair(n, profile)
    oracle = PKG.pipeline.direct_oracle_pair(n, profile)
    assert state_problems("ok", state, PKG.fock.fidelity(state, oracle)) == []
    doubled = _doubled(state)
    fid = PKG.fock.fidelity(doubled, oracle)
    assert fid == 1.0
    assert any("norm" in p for p in state_problems("doubled", doubled, fid))


def test_dropped_outcome_is_caught():
    n = 2
    ancilla = PKG.pipeline.direct_oracle_single(n, PKG.profiles.AmplitudeProfile.constant(n))
    outcomes = PKG.teleport.teleport(PKG.teleport.InputQubit.plus(), ancilla, n)
    assert teleport_problems(outcomes, n) == []
    assert any("sum to" in p for p in teleport_problems(outcomes[1:], n))


@pytest.mark.parametrize("cls", [DoubledPrepare, DroppedOutcomeTeleport])
def test_failed_checks_count_and_do_not_abort(tmp_path, cls):
    wl = cls(PKG, SMALL_SIZES[cls.name], str(tmp_path))
    wl.setup()
    result = worker.timed_run(wl, random.Random(1), 0.3)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["times"] == []
    assert result["failures"]


def _run(workload: str, trace: int, seed: int = 7) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_prints_every_metric_and_passes_its_checks(declared, workload, trace):
    meta, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, meta["failures"]
    assert result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared[trace]
    assert meta["seed"] == 7 and meta["machine"]["cpu_count"] == os.cpu_count()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_counts_exactly(workload):
    counts = []
    for _ in range(2):
        _, result = _run(workload, 1)
        counts.append(
            {
                name: m["value"]
                for name, m in result["metrics"].items()
                if name.endswith(COUNT_SUFFIXES) or name.startswith("teleport.cz.branches_")
            }
        )
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_missing_package_source_fails_without_result(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "prepare", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
