"""Benchmark of the loqc_ancilla simulator: verified operations, end to end.

Run from the repository root (stdlib only; the package is loaded from src/):

    python3 benchmarks/run.py --workload prepare --seed 1 --seconds 30 --trace 0
    python3 -m pytest benchmarks -q          # the benchmark's self-tests

Workloads (``workloads.py`` says why each exists): ``prepare``, ``teleport``,
``czgate`` and ``cli``.  Each is a closed loop with one client, run in a fresh
interpreter (``worker.py``), so the feedforward-table cache never carries
over.  The seed drives every input; the program sees only the inputs.  Every
operation is checked against its oracle before its time counts; a failed
check counts in ``failed`` and the run goes on.

``--trace 0`` prints the end-to-end metrics of an untraced run:

* ``ops_per_s``, ``op_p50_ms``, ``op_p90_ms``: throughput, median and 90th
  percentile of the verified operations' timed windows;
* ``verified_ratio``: verified / attempted operations (1 - error rate; the
  error rate itself is 0 on a correct program, and a metric that reads 0
  cannot carry a relative bound);
* ``setup_s``: process start to the first timed operation (interpreter,
  import, oracle ancilla, warm feedforward table), median of seven processes;
* ``peak_rss_mb``: peak resident memory of the workload process, or of the
  largest CLI child for ``cli``.

Times are rescaled to a nominal host speed with the references of
``reference.py``, because shared hosts drift by up to a third within seconds;
the raw wall-clock values are printed in the metadata line as ``wall``.

``--trace 1`` prints per-layer metrics (calls, self time and counts per
operation) from a separate run that alternates untraced and traced rotations
of operations; it fails an operation whose span counts disagree with what the
operation implies.  Its spans go to ``.bench_work/trace-<workload>-<seed>.jsonl``.

Standard output ends with one metadata line (seed, machine, sample count,
error rate and its base, feedforward-cache counts) and then the result line
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when a
result was printed and non-zero when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from reference import local_scale

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "verified_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"fock.{m}.{f}": u for m in ("init", "apply_linear_transform", "measure", "apply_beamsplitter",
                                      "apply_phase", "apply_basis_phase", "fidelity")
       for f, u in (("calls", "count"), ("self_ms", "ms"))},
    "fock.init.terms": "count",
    "fock.apply_linear_transform.terms_in": "count",
    "fock.apply_linear_transform.terms_out": "count",
    "fock.measure.outcomes": "count",
    "fock.structural.self_ms": "ms",
    "fock.peak_terms": "count",
    "fock.norm_drift_max": "norm2",
    **{f"gates.{g}.{f}": u for g in ("conditional_transfer", "controlled_sign", "cnot_logical",
                                       "toffoli_logical")
       for f, u in (("calls", "count"), ("self_ms", "ms"))},
    "dots.execute.self_ms": "ms",
    "dots.rabi.calls": "count",
    "dots.rabi.self_ms": "ms",
    "dots.compile_pair_schedule.self_ms": "ms",
    **{f"pipeline.{p}.self_ms": "ms" for p in ("build_entangled_pair", "apply_entangling_phase",
                                                "direct_oracle_pair", "direct_oracle_single")},
    "teleport.feedforward_table.cold_ms": "ms",
    "teleport.feedforward_table.hits": "count",
    "teleport.feedforward_table.misses": "count",
    "teleport.feedforward_table.hit_ratio": "ratio",
    "teleport.teleport.self_ms": "ms",
    "teleport.apply_qft.self_ms": "ms",
    "teleport.outcomes": "count",
    "teleport.success_ratio": "ratio",
    "teleport.cz.self_ms": "ms",
    "teleport.cz.branches_enumerated": "count",
    "teleport.cz.branches_kept": "count",
    "teleport.cz.kept_ratio": "ratio",
    "cli.import_ms": "ms",
    **{f"cli.{c}.ms": "ms" for c in ("build", "verify", "teleport", "czgate", "dots", "resources")},
    "cli.output_bytes": "bytes",
    "cli.nonzero_exits": "count",
    "trace.overhead_ratio": "ratio",
}

SETUP_PROBES = 6  # set-up-only processes; the timed process adds a seventh sample
DEADLINE_S = 170.0  # the whole benchmark must end within 180 s


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def machine_info() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": f"{platform.system()} {platform.release()} {platform.machine()}",
        "cpu_model": cpu,
        "cpu_count": os.cpu_count(),
    }


def spawn_worker(args: list[str], deadline: float) -> dict:
    """Run ``worker.py`` in its own session and return its result object.

    On timeout the whole process group (the worker and any CLI child it
    started) is killed and reaped.
    """
    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
    cmd = [sys.executable, worker, "--spawned-ns", str(time.monotonic_ns())] + args
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError("worker did not finish before the benchmark deadline") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    return json.loads(stdout.decode().strip().splitlines()[-1])


def timing_metrics(times: list[float]) -> dict[str, float]:
    """Throughput, median and p90 of per-op times in seconds (0 when none)."""
    if not times:
        return {"ops_per_s": 0.0, "op_p50_ms": 0.0, "op_p90_ms": 0.0}
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1] if len(times) > 1 else times[0]
    return {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": p90 * 1e3,
    }


def run(args) -> tuple[dict, dict]:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "loqc_ancilla", "__init__.py")):
        raise BenchmarkError(f"package source not found under {src}")
    work_root = os.path.join(root, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    work = tempfile.mkdtemp(dir=work_root)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--src", src, "--work-dir", work] + (["--small"] if args.small else [])
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine_info()}
    try:
        if args.trace:
            trace_out = os.path.join(work_root, f"trace-{args.workload}-{args.seed}.jsonl")
            raw = spawn_worker(common + ["--mode", "traced", "--trace-out", trace_out], deadline)
            unknown = set(raw["layers"]) - set(PER_LAYER)
            if unknown:
                raise BenchmarkError(f"worker reported unlisted metrics {sorted(unknown)}")
            values = {name: float(raw["layers"].get(name, 0.0)) for name in PER_LAYER}
            units = PER_LAYER
            meta["traced_ops"] = raw["traced_ops"]
            meta["spans_file"] = os.path.relpath(trace_out, root)
        else:
            setups = []  # (wall seconds, host-speed scale) of each set-up sample
            for _ in range(SETUP_PROBES):
                before = local_scale()
                probe = spawn_worker(common + ["--mode", "setup"], deadline)
                setups.append((probe["setup_s"], (before + local_scale()) / 2))
            before = local_scale()
            raw = spawn_worker(common + ["--mode", "timed"], deadline)
            setups.append((raw["setup_s"], before))
            values = timing_metrics(raw["times"])
            values["verified_ratio"] = (raw["attempted"] - raw["failed"]) / raw["attempted"]
            values["setup_s"] = statistics.median(wall * scale for wall, scale in setups)
            values["peak_rss_mb"] = raw["maxrss_kb"] / 1024.0
            units = END_TO_END
            meta["samples"] = len(raw["times"])
            meta["wall"] = timing_metrics(raw["wall_times"])
            meta["wall"]["setup_s"] = statistics.median(wall for wall, _ in setups)
            meta["reference_ms"] = raw["ref_ms"]
            meta["feedforward_cache"] = raw.get("feedforward_cache", "see the traced run")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    meta["error_rate"] = raw["failed"] / raw["attempted"]
    meta["error_rate_base"] = f"{raw['attempted']} attempted operations"
    meta["failures"] = raw["failures"]
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return meta, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="loqc_ancilla benchmark")
    parser.add_argument("--workload", required=True, choices=["prepare", "teleport", "czgate", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must be in (0, 120]")
    try:
        meta, result = run(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
