"""Host-speed references, timed next to every operation.

Shared cloud hosts like the one this benchmark was defined on change speed
by up to a third within seconds: on a 2-vCPU Intel Xeon host, 5 s window
medians of one fixed operation ranged 46-82 ms within a 90 s run, while the
ratio of that operation to the reference loop below stayed within 10.2-10.9.
So every reported time is rescaled to a nominal host speed:

    normalized = measured * nominal / (local time of the reference)

where the local time is the median of the reference's runs around the
measured interval.  In-process workloads use a fixed pure-Python loop; the
``cli`` workload, whose operations are mostly interpreter start-up, uses the
start of a bare interpreter (``python -S -c pass``), which tracked its drift
better (4% against 7% variation of a six-op rotation's ratio).  The references belong to the
benchmark and touch no package code, so a slower package still shows as a
larger normalized time.  Raw wall-clock values are reported next to the
normalized ones.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

# Nominal times of the references on an uncontended core of the 2-vCPU Intel
# Xeon host (CPython 3.11) the benchmark was defined on: normalized times
# read as milliseconds on that host.
LOOP_MS = 1.5
SPAWN_MS = 12.0
LOOP_SIZE = 1000
HALF_WINDOW = 3


def reference_loop() -> float:
    """Run the fixed reference work once; return its wall time in ms."""
    start = time.perf_counter()
    acc: dict[tuple[int, ...], complex] = {}
    for i in range(LOOP_SIZE):
        key = (i % 7, i % 11, i % 13, i % 17)
        acc[key] = acc.get(key, 0j) + complex(math.cos(i), math.sin(i)) * 0.5
    sorted(acc.items())
    return (time.perf_counter() - start) * 1e3


def reference_spawn(cwd: str) -> float:
    """Start and wait for a bare interpreter (no site import); return ms."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], cwd=cwd, check=True, timeout=60)
    return (time.perf_counter() - start) * 1e3


def scales(ref_ms: list[float], nominal: float) -> list[float]:
    """Per-sample factor nominal / (centred rolling median of the reference times)."""
    out = []
    for i in range(len(ref_ms)):
        window = ref_ms[max(0, i - HALF_WINDOW) : i + HALF_WINDOW + 1]
        out.append(nominal / statistics.median(window))
    return out


def local_scale(samples: int = 9) -> float:
    """LOOP_MS over the median of a few loop runs made now."""
    return LOOP_MS / statistics.median(reference_loop() for _ in range(samples))
