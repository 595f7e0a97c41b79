"""The four benchmark workloads: seeded inputs, the timed operation, its checks.

Every workload is closed-loop with one client: one operation at a time, the
next one generated only after the previous one was verified.  An operation's
timed window covers the package call plus the package's own oracle
comparison, so what is timed is a verified result.  The extra checks in
``problems`` run outside the window; they do not trust ``fidelity`` alone,
which clamps to 1 (``fidelity(2 psi, psi) == 1``), so they also require unit
norm, probability completeness and the closed-form failure rates.

Why these workloads:

* ``prepare`` makes many small calls (hundreds of ``SparseState``
  constructions on states of at most (n+1)^2 terms) and never reaches the
  linear transform or the measurement: it stresses per-call overhead in
  ``fock``, ``gates``, ``pipeline`` and ``dots``.
* ``teleport`` makes few large kernel calls (one Fourier transform, one
  exhaustive measurement) with the feedforward table warm, so per-term
  kernel throughput shows.
* ``czgate`` has the largest state and enumerates every joint branch of the
  double teleport; ``teleport`` bypasses that path.
* ``cli`` runs the installed entry point's code as real processes, so
  interpreter start, import, cold feedforward tables and JSON output show;
  in-process kernel gains barely move it.

Teleport and CZ use the constant profile on purpose: with a random profile
the teleported qubit is distorted by design, so a 1 - 1e-10 oracle check
only holds at constant weights.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Any

from reference import LOOP_MS, SPAWN_MS, reference_loop, reference_spawn

FIDELITY_TOL = 1e-10
PROBABILITY_TOL = 1e-9
NORM_TOL = 1e-9

SIZES = {
    "prepare": {"n": 8},
    "teleport": {"n": 6},
    "czgate": {"n": 3},
    "cli": {"build": 6, "teleport": 5, "czgate": 2, "dots": 6, "resources": 8},
}
SMALL_SIZES = {
    "prepare": {"n": 3},
    "teleport": {"n": 2},
    "czgate": {"n": 2},
    "cli": {"build": 3, "teleport": 2, "czgate": 2, "dots": 3, "resources": 3},
}

CLI_TIMEOUT_S = 60.0


class Package:
    """The package's modules, fetched via ``sys.modules``.

    ``import loqc_ancilla.teleport as m`` would return the ``teleport``
    function, which the package re-exports under the module's name.
    Workloads call through these module objects at call time, so a tracer
    that rebinds module attributes sees every call.
    """

    MODULES = ("fock", "gates", "pipeline", "profiles", "dots", "teleport", "resources")

    def __init__(self, src: str):
        if src not in sys.path:
            sys.path.insert(0, src)
        for name in self.MODULES:
            setattr(self, name, importlib.import_module(f"loqc_ancilla.{name}"))


# ----------------------------------------------------------------------
# checks (pure functions of a result, so tests can feed them broken ones)
# ----------------------------------------------------------------------


def _norm2(terms) -> float:
    return sum(abs(a) ** 2 for a in terms)


def state_problems(label: str, state, fid: float) -> list[str]:
    """A prepared state must match its oracle *and* have unit norm."""
    problems = []
    if not fid >= 1.0 - FIDELITY_TOL:
        problems.append(f"{label}: oracle fidelity {fid!r} below 1 - {FIDELITY_TOL}")
    norm2 = _norm2(state.terms.values())
    if not abs(norm2 - 1.0) <= NORM_TOL:
        problems.append(f"{label}: norm^2 {norm2!r} is not 1")
    return problems


def teleport_problems(outcomes, n: int) -> list[str]:
    """Completeness, the 1/(n+1) failure rate and every corrected output."""
    problems = []
    total = sum(o.probability for o in outcomes)
    if not abs(total - 1.0) <= PROBABILITY_TOL:
        problems.append(f"teleport: outcome probabilities sum to {total!r}")
    failure = sum(o.probability for o in outcomes if o.classification.value == "failure")
    if not abs(failure - 1.0 / (n + 1)) <= PROBABILITY_TOL:
        problems.append(f"teleport: failure probability {failure!r}, expected 1/{n + 1}")
    for o in outcomes:
        if o.classification.value != "success":
            continue
        if not (o.fidelity is not None and o.fidelity >= 1.0 - FIDELITY_TOL):
            problems.append(f"teleport: outcome {o.counts} fidelity {o.fidelity!r}")
            break
        norm2 = _norm2(o.output_state.terms.values())
        if not abs(norm2 - 1.0) <= NORM_TOL:
            problems.append(f"teleport: outcome {o.counts} output norm^2 {norm2!r}")
            break
    return problems


def cz_problems(result, n: int) -> list[str]:
    """Success (n/(n+1))^2, branch completeness and every branch's fidelity."""
    problems = []
    expected = (n / (n + 1)) ** 2
    if not abs(result.success_probability - expected) <= PROBABILITY_TOL:
        problems.append(
            f"czgate: success {result.success_probability!r}, expected ({n}/{n + 1})^2"
        )
    kept = sum(b.probability for b in result.branches)
    if not abs(kept - result.success_probability) <= PROBABILITY_TOL:
        problems.append(f"czgate: kept branches carry {kept!r}, success is {result.success_probability!r}")
    if not abs(result.success_probability + result.failure_probability - 1.0) <= PROBABILITY_TOL:
        problems.append("czgate: success + failure != 1")
    if not (result.min_fidelity is not None and result.min_fidelity >= 1.0 - FIDELITY_TOL):
        problems.append(f"czgate: min fidelity {result.min_fidelity!r}")
    if result.output_qubits is None or not abs(
        _norm2(result.output_qubits.terms.values()) - 1.0
    ) <= NORM_TOL:
        problems.append("czgate: post-selected output is missing or not normalized")
    return problems


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


def random_profile(pkg: Package, rng, n: int):
    """The acceptance suite's generator: non-negative weights in [0.05, 1]."""
    return pkg.profiles.AmplitudeProfile.from_values([rng.uniform(0.05, 1.0) for _ in range(n + 1)])


def random_qubit_amplitudes(rng) -> tuple[complex, complex]:
    return (
        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
    )


class Workload:
    """One closed-loop workload; ``kinds`` is the rotation of operation kinds."""

    name = ""
    kinds: tuple[str, ...] = ()
    rss_of_children = False
    reference_ms = LOOP_MS  # nominal time of ``reference()``

    def __init__(self, pkg: Package, sizes: dict, work_dir: str):
        self.pkg = pkg
        self.sizes = sizes
        self.work_dir = work_dir
        self.traced = False
        self.table = pkg.teleport.feedforward_table
        self.cold_ms: list[float] = []
        self._cache_base = (0, 0)

    def setup(self) -> None:
        """Build what every operation shares; runs before the first timed op."""

    def reference(self) -> float:
        """Time the host-speed reference once (ms)."""
        return reference_loop()

    def _warm_table(self, n: int) -> None:
        start = time.perf_counter()
        self.table(n)
        self.cold_ms.append((time.perf_counter() - start) * 1e3)
        info = self.table.cache_info()
        self._cache_base = (info.hits, info.misses)

    def cache_counts(self) -> tuple[int, int]:
        """Feedforward-table (hits, misses) since the end of setup."""
        info = self.table.cache_info()
        return info.hits - self._cache_base[0], info.misses - self._cache_base[1]

    def make_input(self, rng, i: int) -> tuple[str, Any]:
        raise NotImplementedError

    def run(self, kind: str, inp) -> Any:
        """The timed window: package call plus the package's oracle check."""
        raise NotImplementedError

    def problems(self, kind: str, inp, result) -> list[str]:
        raise NotImplementedError

    def expected_spans(self, kind: str, inp, result) -> list[tuple[tuple[str, ...], str, int]]:
        """Span counts the traced run must see for this op."""
        raise NotImplementedError

    def layer_metrics(self) -> dict[str, float]:
        """Layer metrics the workload measures itself, outside the tracer."""
        return {}


class PrepareWorkload(Workload):
    name = "prepare"
    kinds = ("pairwise", "parity", "dots")

    def make_input(self, rng, i):
        n = self.sizes["n"]
        kind = self.kinds[i % len(self.kinds)]
        profile = random_profile(self.pkg, rng, n)
        intra = rng.uniform(-1.0, 1.0) if kind == "dots" else 0.0
        return kind, (profile, intra)

    def run(self, kind, inp):
        pkg, n = self.pkg, self.sizes["n"]
        profile, intra = inp
        if kind == "dots":
            state, _ = pkg.dots.prepare_pair(n, profile, intra_coefficient=intra)
        else:
            method = pkg.pipeline.PhaseMethod(kind)
            state = pkg.pipeline.build_entangled_pair(n, profile, method)
        oracle = pkg.pipeline.direct_oracle_pair(n, profile)
        return state, pkg.fock.fidelity(state, oracle)

    def problems(self, kind, inp, result):
        state, fid = result
        return state_problems(f"prepare/{kind}", state, fid)

    def expected_spans(self, kind, inp, result):
        n = self.sizes["n"]
        if kind == "dots":
            return [(("dots.rabi",), "calls", 2 * n * n)]
        method = self.pkg.pipeline.PhaseMethod(kind)
        report = self.pkg.resources.gate_counts(n, method)
        checks = [
            (("gates.conditional_transfer",), "calls", 2 * n),
            (("gates.conditional_transfer",), "calls", report.conditional_transfer_gates + 2),
        ]
        if kind == "pairwise":
            checks.append((("gates.controlled_sign",), "calls", report.phase_gates))
            checks.append((("gates.controlled_sign",), "calls", n * n))
        else:
            checks.append((("gates.cnot_logical",), "calls", report.phase_gates))
            checks.append((("gates.cnot_logical",), "calls", 4 * n))
            checks.append(
                (("gates.toffoli_logical", "gates.controlled_sign"), "calls", report.fixed_gates)
            )
        return checks


class TeleportWorkload(Workload):
    name = "teleport"
    kinds = ("teleport",)

    def setup(self):
        n = self.sizes["n"]
        profile = self.pkg.profiles.AmplitudeProfile.constant(n)
        self.ancilla = self.pkg.pipeline.direct_oracle_single(n, profile)
        self._warm_table(n)

    def make_input(self, rng, i):
        return "teleport", self.pkg.teleport.InputQubit.of(*random_qubit_amplitudes(rng))

    def run(self, kind, qubit):
        return self.pkg.teleport.teleport(qubit, self.ancilla, self.sizes["n"])

    def problems(self, kind, qubit, outcomes):
        return teleport_problems(outcomes, self.sizes["n"])

    def expected_spans(self, kind, qubit, outcomes):
        success = sum(1 for o in outcomes if o.classification.value == "success")
        return [
            (("teleport.teleport>fock.measure",), "outcomes", len(outcomes)),
            (("teleport.teleport>fock.fidelity",), "calls", success),
            (("teleport.teleport>teleport.apply_qft",), "calls", 1),
        ]


class CzWorkload(Workload):
    name = "czgate"
    kinds = ("cz",)

    def setup(self):
        n = self.sizes["n"]
        profile = self.pkg.profiles.AmplitudeProfile.constant(n)
        self.ancilla = self.pkg.pipeline.direct_oracle_pair(n, profile)
        self._warm_table(n)

    def make_input(self, rng, i):
        of = self.pkg.teleport.InputQubit.of
        return "cz", (of(*random_qubit_amplitudes(rng)), of(*random_qubit_amplitudes(rng)))

    def run(self, kind, qubits):
        q, qp = qubits
        return self.pkg.teleport.cz_via_double_teleportation(q, qp, self.ancilla, self.sizes["n"])

    def problems(self, kind, qubits, result):
        return cz_problems(result, self.sizes["n"])

    def expected_spans(self, kind, qubits, result):
        return [
            (("teleport.cz>teleport.apply_qft",), "calls", 2),
            (("teleport.cz>fock.measure",), "calls", 1),
            (("teleport.cz>fock.fidelity",), "calls", len(result.branches)),
        ]


class CliWorkload(Workload):
    """One ``python -m loqc_ancilla`` process per operation.

    The traced variant runs the same arguments through ``worker.py --probe``,
    which installs the tracer in the child before calling ``cli.main``.
    """

    name = "cli"
    kinds = ("build", "verify", "teleport", "czgate", "dots", "resources")
    rss_of_children = True
    reference_ms = SPAWN_MS

    def __init__(self, pkg, sizes, work_dir):
        super().__init__(pkg, sizes, work_dir)
        self.root = os.path.dirname(os.path.dirname(pkg.fock.__file__))
        self.env = dict(os.environ, PYTHONPATH=self.root)
        self.stats: dict[str, list[float]] = {}
        self.import_ms: list[float] = []
        self.output_bytes: list[int] = []
        self.nonzero_exits = 0
        self.tracer = None

    def layer_metrics(self):
        """Per-subcommand process wall times (untraced ops), import time, output size."""
        out = {f"cli.{kind}.ms": statistics.median(walls) for kind, walls in self.stats.items()}
        out["cli.import_ms"] = statistics.mean(self.import_ms) if self.import_ms else 0.0
        out["cli.output_bytes"] = statistics.mean(self.output_bytes) if self.output_bytes else 0.0
        out["cli.nonzero_exits"] = self.nonzero_exits
        return out

    def reference(self):
        return reference_spawn(self.work_dir)

    def _path(self, name: str) -> str:
        return os.path.join(self.work_dir, name)

    def make_input(self, rng, i):
        kind = self.kinds[i % len(self.kinds)]
        s = self.sizes
        if kind == "build":
            n = s["build"]
            profile = random_profile(self.pkg, rng, n)
            with open(self._path("profile.json"), "w", encoding="utf-8") as fh:
                json.dump(profile.to_json_dict(), fh)
            oracle = self.pkg.pipeline.direct_oracle_pair(n, profile)
            with open(self._path("oracle.json"), "w", encoding="utf-8") as fh:
                json.dump(oracle.to_json_dict(), fh)
            args = ["build", "--n", str(n), "--method", "parity",
                    "--profile", self._path("profile.json"), "--output", self._path("pair.json")]
            return kind, {"args": args, "n": n}
        if kind == "verify":
            return kind, {"args": ["verify", self._path("pair.json"), self._path("oracle.json")]}
        if kind == "teleport":
            n = s["teleport"]
            alpha, beta = random_qubit_amplitudes(rng)
            amps = ",".join(repr(v) for v in (alpha.real, alpha.imag, beta.real, beta.imag))
            # "--input=" form: the amplitudes may start with a minus sign.
            args = ["teleport", "--n", str(n), f"--input={amps}", "--format", "json",
                    "--output", self._path("teleport.json")]
            return kind, {"args": args, "n": n}
        if kind == "czgate":
            n = s["czgate"]
            return kind, {"args": ["czgate", "--n", str(n), "--format", "json"], "n": n}
        if kind == "dots":
            n = s["dots"]
            intra = rng.uniform(-1.0, 1.0)
            args = ["dots", "--n", str(n), f"--intra-coefficient={intra!r}"]
            return kind, {"args": args, "n": n}
        n = s["resources"]
        return kind, {"args": ["resources", "--n", str(n), "--format", "json"], "n": n}

    def run(self, kind, inp):
        if self.traced:
            spans_path = self._path("spans.json")
            cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "worker.py"),
                   "--probe", spans_path, "--"] + inp["args"]
        else:
            cmd = [sys.executable, "-m", "loqc_ancilla"] + inp["args"]
        start = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=self.work_dir, env=self.env, capture_output=True, timeout=CLI_TIMEOUT_S
        )
        wall = time.perf_counter() - start
        out_path = inp["args"][inp["args"].index("--output") + 1] if "--output" in inp["args"] else None
        written = os.path.getsize(out_path) if out_path and proc.returncode == 0 else 0
        if proc.returncode != 0:
            self.nonzero_exits += 1
        if self.traced:
            with open(spans_path, "r", encoding="utf-8") as fh:
                probe = json.load(fh)
            self.import_ms.append(probe["import_ms"])
            self.tracer.add_foreign(probe["spans"], probe["counters"])
        else:
            self.stats.setdefault(kind, []).append(wall * 1e3)
            self.output_bytes.append(len(proc.stdout) + written)
        return proc

    def problems(self, kind, inp, proc):
        if proc.returncode != 0:
            return [f"cli/{kind}: exit {proc.returncode}: {proc.stderr.decode()[-200:]}"]
        check = getattr(self, f"_check_{kind}")
        try:
            return check(inp, proc)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            return [f"cli/{kind}: unparsable output: {exc!r}"]

    def _check_build(self, inp, proc):
        stderr = proc.stderr.decode()
        fid = float(stderr.rsplit("fidelity=", 1)[1].split()[0])
        with open(self._path("pair.json"), "r", encoding="utf-8") as fh:
            data = json.load(fh)
        problems = []
        if not fid >= 1.0 - FIDELITY_TOL:
            problems.append(f"cli/build: fidelity {fid!r}")
        norm2 = _norm2(complex(t["re"], t["im"]) for t in data["terms"])
        if not abs(norm2 - 1.0) <= NORM_TOL:
            problems.append(f"cli/build: norm^2 {norm2!r}")
        if data["modes"] != 4 * inp["n"]:
            problems.append(f"cli/build: {data['modes']} modes")
        return problems

    def _check_verify(self, inp, proc):
        fid = float(proc.stdout.decode())
        return [] if fid >= 1.0 - FIDELITY_TOL else [f"cli/verify: fidelity {fid!r}"]

    def _check_teleport(self, inp, proc):
        n = inp["n"]
        with open(self._path("teleport.json"), "r", encoding="utf-8") as fh:
            data = json.load(fh)
        rows = data["outcomes"]
        problems = []
        total = sum(r["probability"] for r in rows)
        failure = sum(r["probability"] for r in rows if r["classification"] == "failure")
        if not abs(total - 1.0) <= PROBABILITY_TOL:
            problems.append(f"cli/teleport: probabilities sum to {total!r}")
        if not abs(failure - 1.0 / (n + 1)) <= PROBABILITY_TOL:
            problems.append(f"cli/teleport: failure probability {failure!r}, expected 1/{n + 1}")
        if not abs(data["failure_probability"] - failure) <= PROBABILITY_TOL:
            problems.append("cli/teleport: reported failure probability disagrees with rows")
        bad = [r for r in rows if r["classification"] == "success" and not r["fidelity"] >= 1.0 - FIDELITY_TOL]
        if bad:
            problems.append(f"cli/teleport: {len(bad)} success outcomes below fidelity tolerance")
        inp["outcomes"] = len(rows)
        return problems

    def _check_czgate(self, inp, proc):
        n = inp["n"]
        rows = json.loads(proc.stdout)["rows"]
        expected = (n / (n + 1)) ** 2
        problems = []
        if sorted(r["input"] for r in rows) != ["00", "01", "10", "11"]:
            problems.append("cli/czgate: truth table rows missing")
        for r in rows:
            if not abs(r["success_probability"] - expected) <= PROBABILITY_TOL:
                problems.append(f"cli/czgate: {r['input']} success {r['success_probability']!r}")
            if not abs(r["success_probability"] + r["failure_probability"] - 1.0) <= PROBABILITY_TOL:
                problems.append(f"cli/czgate: {r['input']} success + failure != 1")
            if not r["min_fidelity"] >= 1.0 - FIDELITY_TOL:
                problems.append(f"cli/czgate: {r['input']} fidelity {r['min_fidelity']!r}")
        return problems

    def _check_dots(self, inp, proc):
        n = inp["n"]
        report = json.loads(proc.stdout)
        problems = []
        if not report["fidelity"] >= 1.0 - FIDELITY_TOL:
            problems.append(f"cli/dots: fidelity {report['fidelity']!r}")
        if report["pulses"] != 2 * n * n + 2 * n + 3:
            problems.append(f"cli/dots: {report['pulses']} pulses, expected 2n^2 + 2n + 3")
        return problems

    def _check_resources(self, inp, proc):
        n = inp["n"]
        rows = {r["method"]: r for r in json.loads(proc.stdout)}
        problems = []
        for method, phase in (("pairwise", n * n), ("parity", 4 * n)):
            r = rows[method]
            total = 2 * (n - 1) + phase
            if (int(r["conditional_gates"]), int(r["phase_gates"]), int(r["total"])) != (
                2 * (n - 1), phase, total
            ):
                problems.append(f"cli/resources: {method} gate counts {r}")
            if not math.isclose(float(r["success_probability"]), float(r["p"]) ** total, rel_tol=1e-12):
                problems.append(f"cli/resources: {method} success probability")
            if not math.isclose(float(r["klm_failure"]), 2 / (n + 1), rel_tol=1e-12):
                problems.append(f"cli/resources: {method} KLM failure rate")
            if not math.isclose(float(r["hf_failure"]), 4 / (n + 1) ** 2, rel_tol=1e-12):
                problems.append(f"cli/resources: {method} high-fidelity failure rate")
        return problems

    def expected_spans(self, kind, inp, proc):
        n = inp.get("n")
        if kind == "build":
            return [
                (("gates.conditional_transfer",), "calls", 2 * n),
                (("gates.cnot_logical",), "calls", 4 * n),
                (("gates.toffoli_logical", "gates.controlled_sign"), "calls", 3),
            ]
        if kind == "verify":
            return [(("fock.fidelity",), "calls", 1)]
        if kind == "teleport":
            return [(("teleport.teleport>fock.measure",), "outcomes", inp["outcomes"])]
        if kind == "czgate":
            return [(("teleport.cz",), "calls", 4), (("teleport.cz>teleport.apply_qft",), "calls", 8)]
        if kind == "dots":
            return [(("dots.rabi",), "calls", 2 * n * n)]
        return [(("fock.init",), "calls", 0)]


WORKLOADS = {w.name: w for w in (PrepareWorkload, TeleportWorkload, CzWorkload, CliWorkload)}
