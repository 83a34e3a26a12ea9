"""Process resource gauges, read when the metrics endpoint is scraped.

:func:`process_families` is a collect-time callback on the
:mod:`repro.obs.metrics` registry, like the parallel pool's and the
serving engine's gauges, so nothing runs between scrapes:

* ``repro_process_rss_bytes`` — resident set size (``/proc/self/statm``,
  falling back to ``resource.getrusage`` peak-RSS on non-Linux);
* ``repro_process_cpu_seconds_total`` — user+system CPU seconds of this
  process (a counter: a scraper's rate over it is the CPU use);
* ``repro_process_gc_collections_total{generation=...}`` — cumulative
  CPython GC collections per generation;
* ``repro_process_gc_collected_total{generation=...}`` — cumulative
  objects the cyclic collector freed per generation (objects that
  reference counting could not free, because they sat in a cycle);
* ``repro_process_open_fds`` — open file descriptors
  (``/proc/self/fd``; absent on platforms without procfs);
* ``repro_process_threads`` — live ``threading`` thread count;
* ``repro_process_uptime_seconds`` — seconds since :mod:`repro.obs` was
  imported.
"""

from __future__ import annotations

import gc
import os
import threading
import time

from .metrics import MetricFamily, register_callback

__all__ = ["process_families", "read_rss_bytes", "count_open_fds"]

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096

_STARTED = time.perf_counter()


def read_rss_bytes() -> int | None:
    """Current resident set size in bytes, or None if unreadable."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * _PAGE_SIZE
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS reports bytes; this branch only runs
        # without procfs, so assume the BSD/macOS convention.
        return int(usage)
    except Exception:
        return None


def count_open_fds() -> int | None:
    """Open file descriptors of this process (procfs; None elsewhere)."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return None


def _gauge(name: str, help: str, value: float | None) -> MetricFamily:
    family = MetricFamily(name, "gauge", help)
    if value is not None:
        family.add(value)
    return family


def process_families() -> list[MetricFamily]:
    """The process gauges and counters, read now."""
    times = os.times()
    cpu = MetricFamily(
        "repro_process_cpu_seconds_total", "counter",
        "User+system CPU seconds of this process.",
    )
    cpu.add(times.user + times.system)
    collections = MetricFamily(
        "repro_process_gc_collections_total", "counter",
        "Cumulative CPython GC collections per generation.",
    )
    collected = MetricFamily(
        "repro_process_gc_collected_total", "counter",
        "Cumulative objects freed by the CPython cyclic GC per generation.",
    )
    for generation, stats in enumerate(gc.get_stats()):
        collections.add(stats.get("collections", 0), generation=generation)
        collected.add(stats.get("collected", 0), generation=generation)
    return [
        _gauge("repro_process_rss_bytes", "Resident set size of this process.",
               read_rss_bytes()),
        cpu,
        collections,
        collected,
        _gauge("repro_process_open_fds", "Open file descriptors.", count_open_fds()),
        _gauge("repro_process_threads", "Live threading.Thread count.",
               threading.active_count()),
        _gauge("repro_process_uptime_seconds", "Seconds since repro.obs was imported.",
               time.perf_counter() - _STARTED),
    ]


register_callback("process", process_families)
