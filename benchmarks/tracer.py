"""Span tracer that instruments the loqc_ancilla package from outside.

The tracer wraps the public functions of each layer (``fock``, ``gates``,
``pipeline``, ``dots``, ``teleport``) without touching the package's source:

* ``SparseState`` methods are replaced on the class, so calls the package
  makes internally (``_like`` -> ``__init__``, ``apply_qft`` ->
  ``apply_linear_transform``) are seen too;
* module functions are rebound in *every* ``loqc_ancilla`` namespace that
  holds them, because ``pipeline`` imports the ``gates`` functions by name
  and ``teleport`` calls its own ``apply_qft``/``feedforward_table`` globals.

Each span records its name, start, end, parent and operation index.  Spans
are kept in memory; self time (duration minus the child spans and minus the
tracer's own bookkeeping inside the interval) is computed afterwards by
:func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from typing import Any, Callable

_now = time.perf_counter

# (span name, module, attribute) of every instrumented module function.
FUNCTION_TARGETS = [
    ("fock.fidelity", "loqc_ancilla.fock", "fidelity"),
    ("gates.conditional_transfer", "loqc_ancilla.gates", "conditional_transfer"),
    ("gates.controlled_sign", "loqc_ancilla.gates", "controlled_sign"),
    ("gates.cnot_logical", "loqc_ancilla.gates", "cnot_logical"),
    ("gates.toffoli_logical", "loqc_ancilla.gates", "toffoli_logical"),
    ("pipeline.build_entangled_pair", "loqc_ancilla.pipeline", "build_entangled_pair"),
    ("pipeline.apply_entangling_phase", "loqc_ancilla.pipeline", "apply_entangling_phase"),
    ("pipeline.direct_oracle_pair", "loqc_ancilla.pipeline", "direct_oracle_pair"),
    ("pipeline.direct_oracle_single", "loqc_ancilla.pipeline", "direct_oracle_single"),
    ("dots.execute", "loqc_ancilla.dots", "execute"),
    ("dots.rabi", "loqc_ancilla.dots", "rabi"),
    ("dots.compile_pair_schedule", "loqc_ancilla.dots", "compile_pair_schedule"),
    ("teleport.teleport", "loqc_ancilla.teleport", "teleport"),
    ("teleport.apply_qft", "loqc_ancilla.teleport", "apply_qft"),
    ("teleport.feedforward_table", "loqc_ancilla.teleport", "feedforward_table"),
    ("teleport.cz", "loqc_ancilla.teleport", "cz_via_double_teleportation"),
]

# SparseState methods: (span name, method).  The norm-preserving primitives
# also record |norm^2(out) - norm^2(in)|.
UNITARY_METHODS = ["apply_phase", "apply_basis_phase", "apply_beamsplitter", "apply_linear_transform"]
STRUCTURAL_METHODS = ["tensor", "extend", "drop_modes", "permute_modes"]
METHOD_TARGETS = (
    [("fock.init", "__init__"), ("fock.measure", "measure")]
    + [(f"fock.{m}", m) for m in UNITARY_METHODS]
    + [(f"fock.{m}", m) for m in STRUCTURAL_METHODS]
)

NAME, START, END, PARENT, OP, INFO, OVERHEAD = range(7)


def _norm2(state) -> float:
    return sum(abs(a) ** 2 for a in state.terms.values())


def _info_hooks(tracer: "Tracer", table_fn) -> dict[str, tuple[Callable | None, Callable]]:
    """Per-span (pre, post) hooks.

    A post hook returns a dict of counts kept on the span, or updates one of
    the tracer's running counters and returns None: ``fock.init`` spans are
    the most numerous, so their term counts are summed, not stored.
    """

    def init(pre, args, kwargs, result):
        terms = len(args[0].terms)
        tracer.init_terms += terms
        tracer.peak_terms = max(tracer.peak_terms, terms)

    def drift(pre, args, kwargs, result):
        tracer.max_drift = max(tracer.max_drift, abs(_norm2(result) - _norm2(args[0])))

    def transform(pre, args, kwargs, result):
        drift(pre, args, kwargs, result)
        return {"terms_in": len(args[0].terms), "terms_out": len(result.terms)}

    def teleport_info(pre, args, kwargs, result):
        success = sum(1 for o in result if o.classification.value == "success")
        return {"outcomes": len(result), "success": success}

    hooks: dict[str, tuple[Callable | None, Callable]] = {
        "fock.init": (None, init),
        "fock.measure": (None, lambda pre, args, kwargs, result: {"outcomes": len(result)}),
        "fock.apply_linear_transform": (None, transform),
        "teleport.teleport": (None, teleport_info),
        "teleport.cz": (None, lambda pre, args, kwargs, result: {"kept": len(result.branches)}),
        "teleport.feedforward_table": (
            lambda args, kwargs: table_fn.cache_info().misses,
            lambda pre, args, kwargs, result: {"miss": table_fn.cache_info().misses > pre},
        ),
    }
    for m in UNITARY_METHODS:
        hooks.setdefault(f"fock.{m}", (None, drift))
    return hooks


class Tracer:
    """Records nested spans of instrumented package calls, one op at a time."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.ops = 0
        self.init_terms = 0  # terms of every constructed state, summed
        self.peak_terms = 0  # terms of the largest constructed state
        self.max_drift = 0.0  # max |norm^2(out) - norm^2(in)| of a unitary primitive
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` restores the originals."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        fock = sys.modules["loqc_ancilla.fock"]
        table_fn = sys.modules["loqc_ancilla.teleport"].feedforward_table
        hooks = _info_hooks(self, table_fn)
        cls = fock.SparseState
        for name, method in METHOD_TARGETS:
            original = cls.__dict__[method]
            self._patch(cls, method, original, self._wrap(name, original, hooks.get(name)))
        namespaces = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "loqc_ancilla" or key.startswith("loqc_ancilla."))
        ]
        for name, module, attr in FUNCTION_TARGETS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, hooks.get(name))
            for mod in namespaces:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _wrap(self, name: str, fn: Callable, hook) -> Callable:
        spans = self.spans
        stack = self._stack
        pre_fn, post_fn = hook if hook else (None, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:  # outside an operation: input generation, not work
                return fn(*args, **kwargs)
            parent = stack[-1]
            pre = None
            if pre_fn is not None:
                t = _now()
                pre = pre_fn(args, kwargs)
                spans[parent][OVERHEAD] += _now() - t
            rec = [name, 0.0, 0.0, parent, self.ops, None, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = _now()
                stack.pop()
            if post_fn is not None:
                t = _now()
                rec[INFO] = post_fn(pre, args, kwargs, result)
                spans[parent][OVERHEAD] += _now() - t
            return result

        return wrapper

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def begin_op(self, kind: str) -> int:
        """Open the root span of one benchmark operation."""
        self._stack.append(len(self.spans))
        self.spans.append(["op." + kind, _now(), 0.0, -1, self.ops, None, 0.0])
        return self._stack[-1]

    def end_op(self, root: int) -> None:
        self.spans[root][END] = _now()
        self._stack.pop()
        self.ops += 1

    def counters(self) -> dict[str, float]:
        return {"init_terms": self.init_terms, "peak_terms": self.peak_terms, "max_drift": self.max_drift}

    def add_foreign(self, spans: list[list[Any]], counters: dict[str, float]) -> None:
        """Adopt spans and counters recorded by another process under the open op."""
        self.init_terms += counters["init_terms"]
        self.peak_terms = max(self.peak_terms, counters["peak_terms"])
        self.max_drift = max(self.max_drift, counters["max_drift"])
        base = len(self.spans)
        root = self._stack[-1]
        for rec in spans:
            rec = list(rec)
            rec[PARENT] = root if rec[PARENT] < 0 else rec[PARENT] + base
            rec[OP] = self.ops
            self.spans.append(rec)

    def op_counts(self, root: int) -> dict[str, dict[str, float]]:
        """Call counts and summed info fields of the spans under one op root.

        Each span counts under its own name and under ``parent>name``, so a
        check can single out, say, the measurement a teleport makes itself.
        """
        counts: dict[str, dict[str, float]] = {}
        op = self.spans[root][OP]
        for rec in self.spans[root + 1 :]:
            if rec[OP] != op:
                break
            parent = self.spans[rec[PARENT]][NAME]
            for key in (rec[NAME], f"{parent}>{rec[NAME]}"):
                entry = counts.setdefault(key, {"calls": 0})
                entry["calls"] += 1
                for field, value in (rec[INFO] or {}).items():
                    entry[field] = entry.get(field, 0) + value
        return counts

    def write(self, path: str) -> None:
        """Write every span as one JSON line: name, start and end (us), parent, op, info."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                start = round((rec[START] - origin) * 1e6, 1)
                end = round((rec[END] - origin) * 1e6, 1)
                row = [rec[NAME], start, end, rec[PARENT], rec[OP], rec[INFO]]
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")


def check_counts(counts: dict[str, dict[str, float]], expected) -> list[str]:
    """Compare an op's span counts with ``(names, field, value)`` expectations."""
    problems = []
    for names, field, value in expected:
        seen = sum(counts.get(name, {}).get(field, 0) for name in names)
        if seen != value:
            problems.append(f"span count {'+'.join(names)}.{field} = {seen}, expected {value}")
    return problems


def layer_metrics(tracer: Tracer, cold_ms: list[float]) -> dict[str, float]:
    """Per-operation layer metrics from the recorded spans."""
    spans = tracer.spans
    ops = max(tracer.ops, 1)
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    info: dict[str, float] = {}
    misses = []
    for i, rec in enumerate(spans):
        name = rec[NAME]
        calls[name] = calls.get(name, 0) + 1
        own = rec[END] - rec[START] - child[i] - rec[OVERHEAD]
        self_s[name] = self_s.get(name, 0.0) + own
        extra = rec[INFO] or {}
        for key, value in extra.items():
            info[f"{name}.{key}"] = info.get(f"{name}.{key}", 0) + value
        if extra.get("miss"):
            misses.append((rec[END] - rec[START]) * 1e3)

    def per_op(value: float) -> float:
        return value / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name, fields in [
        ("fock.init", ("calls", "self_ms")),
        ("fock.apply_linear_transform", ("calls", "self_ms")),
        ("fock.measure", ("calls", "self_ms")),
        ("fock.apply_beamsplitter", ("calls", "self_ms")),
        ("fock.apply_phase", ("calls", "self_ms")),
        ("fock.apply_basis_phase", ("calls", "self_ms")),
        ("fock.fidelity", ("calls", "self_ms")),
        ("gates.conditional_transfer", ("calls", "self_ms")),
        ("gates.controlled_sign", ("calls", "self_ms")),
        ("gates.cnot_logical", ("calls", "self_ms")),
        ("gates.toffoli_logical", ("calls", "self_ms")),
        ("dots.execute", ("self_ms",)),
        ("dots.rabi", ("calls", "self_ms")),
        ("dots.compile_pair_schedule", ("self_ms",)),
        ("pipeline.build_entangled_pair", ("self_ms",)),
        ("pipeline.apply_entangling_phase", ("self_ms",)),
        ("pipeline.direct_oracle_pair", ("self_ms",)),
        ("pipeline.direct_oracle_single", ("self_ms",)),
        ("teleport.teleport", ("self_ms",)),
        ("teleport.apply_qft", ("self_ms",)),
        ("teleport.cz", ("self_ms",)),
    ]:
        if "calls" in fields:
            out[f"{name}.calls"] = per_op(calls.get(name, 0))
        if "self_ms" in fields:
            out[f"{name}.self_ms"] = per_op(self_s.get(name, 0.0)) * 1e3
    out["fock.init.terms"] = per_op(tracer.init_terms)
    out["fock.apply_linear_transform.terms_in"] = per_op(info.get("fock.apply_linear_transform.terms_in", 0))
    out["fock.apply_linear_transform.terms_out"] = per_op(info.get("fock.apply_linear_transform.terms_out", 0))
    out["fock.measure.outcomes"] = per_op(info.get("fock.measure.outcomes", 0))
    out["fock.structural.self_ms"] = per_op(
        sum(self_s.get(f"fock.{m}", 0.0) for m in STRUCTURAL_METHODS)
    ) * 1e3
    out["fock.peak_terms"] = tracer.peak_terms
    out["fock.norm_drift_max"] = tracer.max_drift

    n_miss = len(misses)
    hits = calls.get("teleport.feedforward_table", 0) - n_miss
    cold = cold_ms + misses
    out["teleport.feedforward_table.cold_ms"] = statistics.mean(cold) if cold else 0.0
    out["teleport.feedforward_table.hits"] = per_op(hits)
    out["teleport.feedforward_table.misses"] = per_op(n_miss)
    out["teleport.feedforward_table.hit_ratio"] = ratio(hits, hits + n_miss)
    outcomes = info.get("teleport.teleport.outcomes", 0)
    out["teleport.outcomes"] = per_op(outcomes)
    out["teleport.success_ratio"] = ratio(info.get("teleport.teleport.success", 0), outcomes)
    enumerated = sum(
        (rec[INFO] or {}).get("outcomes", 0)
        for rec in spans
        if rec[NAME] == "fock.measure" and spans[rec[PARENT]][NAME] == "teleport.cz"
    )
    kept = info.get("teleport.cz.kept", 0)
    out["teleport.cz.branches_enumerated"] = per_op(enumerated)
    out["teleport.cz.branches_kept"] = per_op(kept)
    out["teleport.cz.kept_ratio"] = ratio(kept, enumerated)
    return out

