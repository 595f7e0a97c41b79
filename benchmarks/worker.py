"""One benchmark workload in a fresh interpreter (started by ``run.py``).

A fresh process per run keeps the unbounded ``feedforward_table`` cache from
carrying over between workloads or runs.  Modes:

``--mode setup``   set up, report the set-up time, exit;
``--mode timed``   set up, then run verified operations for ``--seconds``;
``--mode traced``  set up, then alternate an untraced and a traced rotation of
                   operations for ``--seconds`` and report layer metrics.

``worker.py --probe SPANS -- ARGS`` runs ``loqc_ancilla.cli.main(ARGS)`` with
the tracer installed and writes the spans to SPANS; the ``cli`` workload
uses it for its traced operations.

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import sys
import time

from reference import scales
from tracer import Tracer, check_counts, layer_metrics
from workloads import SIZES, SMALL_SIZES, WORKLOADS, Package

SPAN_BUDGET = 150_000


def run_one(wl, kind: str, inp):
    """Time one operation; checks run after the window closes.

    A failed check or an exception is reported, never raised, so one bad
    operation counts as a failure instead of ending the run.
    """
    start = time.perf_counter()
    try:
        result = wl.run(kind, inp)
    except Exception as exc:  # the run must go on; the failure is counted
        return None, None, [f"{wl.name}/{kind}: raised {exc!r}"]
    elapsed = time.perf_counter() - start
    try:
        problems = wl.problems(kind, inp, result)
    except Exception as exc:  # a check that cannot read the result is a failure
        problems = [f"{wl.name}/{kind}: check raised {exc!r}"]
    return elapsed, result, problems


def timed_run(wl, rng, seconds: float) -> dict:
    """Run verified operations for ``seconds``; time each one and its host speed.

    The workload's host-speed reference runs before every operation, outside
    its window, so each time can be rescaled to the nominal host speed
    (``reference.py``).
    """
    walls: list[float | None] = []  # None marks a failed operation
    refs: list[float] = []
    failures: list[str] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        kind, inp = wl.make_input(rng, len(walls))
        refs.append(wl.reference())
        elapsed, _, problems = run_one(wl, kind, inp)
        failures.extend(problems)
        walls.append(None if problems else elapsed)
    verified = [(w, f) for w, f in zip(walls, scales(refs, wl.reference_ms)) if w is not None]
    who = resource.RUSAGE_CHILDREN if wl.rss_of_children else resource.RUSAGE_SELF
    out = {
        "times": [w * f for w, f in verified],
        "wall_times": [w for w, _ in verified],
        "ref_ms": statistics.median(refs) if refs else 0.0,
        "attempted": len(walls),
        "failed": len(walls) - len(verified),
        "failures": failures[:5],
        "maxrss_kb": resource.getrusage(who).ru_maxrss,
    }
    if not wl.rss_of_children:
        hits, misses = wl.cache_counts()
        out["feedforward_cache"] = {"hits": hits, "misses": misses, "cold_ms": wl.cold_ms}
    return out


def traced_run(wl, rng, seconds: float, trace_out: str | None) -> dict:
    """Alternate untraced and traced rotations for ``seconds``.

    The run ends early once it holds ``SPAN_BUDGET`` spans, which bounds its
    memory; the per-op averages need far fewer ops than that.

    Every traced op is cross-checked: the spans must show the call counts
    the op implies (``wl.expected_spans``), which proves the tracer sees the
    package's internal calls.  A mismatch counts the op as failed.
    """
    tracer = Tracer()
    wl.tracer = tracer
    spent = {False: [0.0, 0], True: [0.0, 0]}
    failures: list[str] = []
    attempted = 0
    deadline = time.perf_counter() + seconds
    while len(tracer.spans) < SPAN_BUDGET:
        for traced in (False, True):
            if traced:
                tracer.install()
                wl.traced = True
            try:
                for _ in wl.kinds:
                    kind, inp = wl.make_input(rng, attempted)
                    root = tracer.begin_op(kind) if traced else None
                    elapsed, result, problems = run_one(wl, kind, inp)
                    if traced:
                        tracer.end_op(root)
                        if not problems:
                            expected = wl.expected_spans(kind, inp, result)
                            problems = [
                                f"{wl.name}/{kind}: {p}"
                                for p in check_counts(tracer.op_counts(root), expected)
                            ]
                    attempted += 1
                    if problems:
                        failures.extend(problems)
                    else:
                        spent[traced][0] += elapsed
                        spent[traced][1] += 1
            finally:
                if traced:
                    tracer.uninstall()
                    wl.traced = False
        if time.perf_counter() >= deadline:
            break

    layers = layer_metrics(tracer, wl.cold_ms)
    plain_op, traced_op = (spent[k][0] / max(spent[k][1], 1) for k in (False, True))
    layers["trace.overhead_ratio"] = traced_op / plain_op if plain_op else 0.0
    layers.update(wl.layer_metrics())
    if trace_out:
        tracer.write(trace_out)
    return {
        "attempted": attempted,
        "failed": attempted - spent[False][1] - spent[True][1],
        "failures": failures[:5],
        "traced_ops": tracer.ops,
        "layers": layers,
    }


def probe(argv: list[str]) -> int:
    """Run the CLI in this process with the tracer installed."""
    spans_path, cli_args = argv[0], argv[2:]
    start = time.perf_counter()
    cli = importlib.import_module("loqc_ancilla.cli")
    import_ms = (time.perf_counter() - start) * 1e3
    tracer = Tracer()
    tracer.install()
    root = tracer.begin_op("cli")
    try:
        return cli.main(cli_args)
    finally:
        tracer.end_op(root)
        tracer.uninstall()
        spans = [rec[:3] + [rec[3] - 1] + rec[4:] for rec in tracer.spans[1:]]
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_ms": import_ms, "spans": spans, "counters": tracer.counters()}, fh)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "--probe":
        return probe(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True, choices=["setup", "timed", "traced"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-ns", type=int, required=True,
                        help="time.monotonic_ns() of the parent just before it started this process")
    parser.add_argument("--src", required=True, help="directory holding the loqc_ancilla package")
    parser.add_argument("--work-dir", required=True, help="scratch directory for files the run writes")
    parser.add_argument("--trace-out", default=None, help="where the traced run writes its spans")
    parser.add_argument("--small", action="store_true", help="small register sizes (self-test)")
    args = parser.parse_args(argv)

    sizes = (SMALL_SIZES if args.small else SIZES)[args.workload]
    wl = WORKLOADS[args.workload](Package(args.src), sizes, args.work_dir)
    wl.setup()
    rng = random.Random(args.seed)
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    if args.mode == "setup":
        result = {"setup_s": setup_s}
    elif args.mode == "timed":
        result = timed_run(wl, rng, args.seconds)
        result["setup_s"] = setup_s
    else:
        result = traced_run(wl, rng, args.seconds, args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
