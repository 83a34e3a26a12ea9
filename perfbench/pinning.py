"""Pin the benchmark to the fastest CPU it may use.

The benchmark runs on a few virtual CPUs of a shared host, and they need
not be equally fast: on a 2-vCPU Xeon slice the same loop ran 1.5-1.7x
slower on one vCPU than on the other, and the scheduler put each run's
process on either, so a run's speed depended on where it landed.  Each
run therefore times a fixed kernel on every CPU it may use and pins
itself to the fastest before anything is timed.

The kernel is interpreter work of the kind the program does most: a walk
of dict lookups around a cycle of 1024 small dicts.
"""

from __future__ import annotations

import os
import random
import time

_NODES = 1024
_STEPS = 40_000


def _cycle() -> tuple:
    order = list(range(_NODES))
    random.Random(0).shuffle(order)
    nodes = [{} for _ in range(_NODES)]
    for index, node in enumerate(order):
        nodes[node]["weight"] = index / _NODES
        nodes[node]["next"] = order[(index + 1) % _NODES]
    return tuple(nodes)


_CYCLE = _cycle()


def kernel() -> float:
    """Seconds for one run of the kernel."""
    nodes, at, total = _CYCLE, 0, 0.0
    start = time.perf_counter()
    for _ in range(_STEPS):
        node = nodes[at]
        total += node["weight"]
        at = node["next"]
    return time.perf_counter() - start


def pin_to_fastest_cpu(trials: int = 5) -> int:
    """Pin this process to the CPU on which the kernel runs fastest now."""
    cpus = sorted(os.sched_getaffinity(0))
    best = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        best[cpu] = min(kernel() for _ in range(trials))
    fastest = min(cpus, key=best.__getitem__)
    os.sched_setaffinity(0, {fastest})
    return fastest
