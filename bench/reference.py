"""A fixed piece of pure-Python work that measures how fast the machine is
running right now.

The benchmark's host is shared: the same CPU-bound Python code runs up to
twice as slow for tens of seconds at a time when neighbours are busy, which
is longer than a run. Each worker times this reference right before and
right after its analysis, and ``run.py`` reports every time at the
reference speed: ``seconds * NOMINAL_S / reference_s``, with the mean of
the two reference times. The reference uses nothing from privflow, so a
change to privflow moves the reported times by the same factor as the wall
times.

The work (string formatting, dict and set lookups, tuple keys, list walks,
a sort) is the kind privflow's interpreter time is spent on. It makes no
reference cycles and runs with the garbage collector off, so its time does
not depend on what the process allocated before it.
"""

from __future__ import annotations

import gc
import statistics
import time

# The reference's median time on the machine the benchmark's numbers were
# first taken on (2-vCPU Xeon, 2.1 GHz, Python 3.11.7), in seconds. Any
# fixed value works: it only sets the scale of the reported times.
NOMINAL_S = 0.003
N = 2000
REPS = 9


def reference_work() -> int:
    names = [f"svc{i % 37}.ep{i}" for i in range(N)]
    weights = [i * 7 % 101 for i in range(N)]
    succ = [(i * 13 + 5) % N for i in range(N)]
    index: dict[str, list[int]] = {}
    for i, name in enumerate(names):
        index.setdefault(name.split(".")[0], []).append(i)
    seen: set[tuple[str, int]] = set()
    total = 0
    for start in range(N):
        stack = [start]
        depth = 0
        while stack and depth < 8:
            i = stack.pop()
            depth += 1
            key = (names[succ[i]], weights[i])
            if key in seen:
                continue
            seen.add(key)
            total += weights[i]
            stack.append(succ[i])
    order = sorted((len(v), k) for k, v in index.items())
    return total + len(order) + len(seen)


def reference_s() -> float:
    """Median seconds of REPS runs of reference_work, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPS):
            started = time.perf_counter()
            reference_work()
            times.append(time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)
