"""Process-global performance counters and stage timers.

The perf layers added for scale (incremental STA, the synthesis result
cache, parallel evaluation) all report what they actually did through this
registry so speedups are *measured*, not asserted:

* counters — monotonically increasing event counts
  (``sta.full``, ``sta.incremental``, ``synthcache.hit`` ...);
* timers — one fixed-bucket :class:`Histogram` of per-call durations per
  stage name.  Code times a stage with :func:`repro.obs.span`, which adds
  the block's duration here whether or not tracing is on;
  :func:`add_time` is the registry's write call;
* stats providers — callables (the caches register theirs) whose output
  ``snapshot()`` surfaces under a ``caches`` key.

Every timer shares :data:`BOUNDS`, so merging another registry's export
(a pool worker's) is bucket-wise addition: the merged snapshot equals the
one a single registry that saw every call reports.  ``total_s``, ``calls``
and ``max_s`` are exact; ``p50_s``/``p95_s`` interpolate within their
bucket.

The registry is thread-safe (the parallel evaluation executor updates it
from worker threads).  Overhead is a dict lookup and a bisect per event,
cheap enough to leave on unconditionally.

Usage::

    from repro import obs, perf

    perf.incr("synthcache.hit")
    with obs.span("sta.kernel"):
        engine.analyze()
    print(perf.snapshot())
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable

__all__ = [
    "BOUNDS",
    "Histogram",
    "PerfRegistry",
    "registry",
    "incr",
    "counter",
    "snapshot",
    "reset",
    "add_time",
    "counters",
    "register_stats_provider",
    "export_state",
    "merge_state",
]

#: Bucket upper bounds in seconds shared by every timer: ten per decade
#: from 10 µs to 100 s (71 bounds; one more bucket counts what lies above).
#: Adjacent bounds differ by at most 1.27x, below the ledger diff's default
#: 1.5x ``latency_ratio``.
BOUNDS: tuple[float, ...] = tuple(
    float(f"{10.0 ** (k / 10 - 5):.3g}") for k in range(71)
)

#: Totals are kept as integer multiples of 1/_UNITS so that adding
#: histograms is exact and independent of order.
_UNITS = 1_000_000_000


class Histogram:
    """Value counts in fixed buckets, with an exact total and maximum.

    ``counts[i]`` counts values in ``(bounds[i-1], bounds[i]]``; the last
    slot counts values above every bound.
    """

    __slots__ = ("bounds", "counts", "total_units", "max")

    def __init__(self, bounds: tuple[float, ...] = BOUNDS) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total_units = 0
        self.max = 0.0

    def add(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total_units += round(value * _UNITS)
        if value > self.max:
            self.max = value

    @property
    def calls(self) -> int:
        return sum(self.counts)

    @property
    def total(self) -> float:
        return self.total_units / _UNITS

    def percentile(self, q: float) -> float:
        """The ``q`` quantile (q in [0, 1]), linear within its bucket."""
        rank = q * self.calls
        below = 0
        for index, count in enumerate(self.counts):
            if count and below + count >= rank:
                lower = self.bounds[index - 1] if index else 0.0
                upper = self.max
                if index < len(self.bounds):
                    upper = min(upper, self.bounds[index])
                return lower + (upper - lower) * (rank - below) / count
            below += count
        return 0.0

    def summary(self) -> dict:
        return {
            "total_s": round(self.total, 6),
            "calls": self.calls,
            "p50_s": round(self.percentile(0.50), 6),
            "p95_s": round(self.percentile(0.95), 6),
            "max_s": round(self.max, 6),
        }

    def copy(self) -> "Histogram":
        clone = Histogram(self.bounds)
        clone.merge(self)
        return clone

    def merge(self, other: "Histogram") -> None:
        """Add ``other``'s calls; both must have the same bounds."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        self.counts = [mine + theirs for mine, theirs in zip(self.counts, other.counts)]
        self.total_units += other.total_units
        self.max = max(self.max, other.max)


class PerfRegistry:
    """Thread-safe registry of named counters and stage timers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._timers: dict[str, Histogram] = {}
        self._providers: dict[str, Callable[[], dict]] = {}

    # -- counters -----------------------------------------------------------

    def incr(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def counters(self) -> dict[str, int]:
        """Copy of every counter (the tracer diffs this per span)."""
        with self._lock:
            return dict(self._counters)

    # -- timers -------------------------------------------------------------

    def add_time(self, name: str, seconds: float) -> None:
        with self._lock:
            timer = self._timers.get(name)
            if timer is None:
                timer = self._timers[name] = Histogram()
            timer.add(seconds)

    # -- stats providers ----------------------------------------------------

    def register_stats_provider(self, name: str, provider: Callable[[], dict]) -> None:
        """Expose an external stats source (a cache) in ``snapshot()``.

        Registering the same name again replaces the provider (modules
        that reload re-register harmlessly).
        """
        with self._lock:
            self._providers[name] = provider

    # -- reporting ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Structured dump: ``{"counters": ..., "timers": ...[, "caches": ...]}``.

        Timer entries report ``total_s``/``calls``/``p50_s``/``p95_s``/``max_s``.
        """
        with self._lock:
            out = {
                "counters": dict(self._counters),
                "timers": {
                    name: timer.summary() for name, timer in self._timers.items()
                },
            }
            providers = dict(self._providers)
        # Providers run outside the registry lock: they take their own
        # locks, and their code paths may call back into incr()/add_time().
        if providers:
            out["caches"] = {name: fn() for name, fn in providers.items()}
        return out

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._timers.clear()

    # -- cross-process aggregation -------------------------------------------

    def export_state(self) -> dict:
        """Mergeable copy of counters and timers (see :meth:`merge_state`).

        Timers are :class:`Histogram` copies (bucket counts, total, max).
        Worker processes of the parallel process backend ship their
        registry to the parent through this whenever it drains them.
        """
        with self._lock:
            return {
                "counters": dict(self._counters),
                "timers": {
                    name: timer.copy() for name, timer in self._timers.items()
                },
            }

    def merge_state(self, state: dict) -> None:
        """Fold another registry's :meth:`export_state` into this one.

        Counters, bucket counts and totals add and maxima combine, so the
        result is exactly what one registry that saw both sides' calls
        would hold.
        """
        for name, value in state.get("counters", {}).items():
            self.incr(name, value)
        for name, other in state.get("timers", {}).items():
            with self._lock:
                timer = self._timers.get(name)
                if timer is None:
                    timer = self._timers[name] = Histogram()
                timer.merge(other)


#: The process-global registry used by the module-level helpers.
registry = PerfRegistry()

incr = registry.incr
counter = registry.counter
counters = registry.counters
snapshot = registry.snapshot
reset = registry.reset
add_time = registry.add_time
register_stats_provider = registry.register_stats_provider
export_state = registry.export_state
merge_state = registry.merge_state
