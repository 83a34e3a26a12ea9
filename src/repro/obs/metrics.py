"""Live metrics: Prometheus text exposition of the process's telemetry.

Where :mod:`repro.perf` is the *write* side of runtime telemetry (cheap
counters and stage timers updated on every hot-path event) and the
trace/report stack is *post-hoc*, this module is the **live read side**:
a registry of metric families rendered in the Prometheus text exposition
format and served by a stdlib background HTTP server, so a running
evaluation — a full Table III sweep on the process pool — can be scraped
mid-flight for stage latencies, queue depths, worker utilization, cache
hit ratios and process resource usage.

Two kinds of source feed one scrape:

* labelled :class:`Histogram` metrics registered here (batch widths and
  the like), each label set one :class:`repro.perf.Histogram`;
* **collect-time callbacks**, which compute families from state the code
  already keeps and cost nothing between scrapes: the perf bridge
  (:func:`collect_perf` — every ``repro.perf`` counter, every timer as a
  histogram with its own bucket counts, every stats provider), the
  process gauges of :mod:`repro.obs.sampler`, and the parallel pool's
  and serving engine's live gauges.

Everything is **off by default**: with ``REPRO_METRICS_PORT`` unset,
:func:`ensure_server` is one environment lookup and no thread, no socket,
no registry traffic beyond what call sites already paid for
:mod:`repro.perf`.  Set ``REPRO_METRICS_PORT=9464`` (or ``0`` for an
ephemeral port) and every harness entry point starts the endpoint::

    REPRO_METRICS_PORT=9464 python -m repro.eval.report &
    curl localhost:9464/metrics
"""

from __future__ import annotations

import os
import re
import threading
from typing import Any, Callable, Iterable, Iterator

from .. import perf

__all__ = [
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "MetricsServer",
    "Sample",
    "registry",
    "histogram",
    "register_callback",
    "collect_perf",
    "render",
    "parse_exposition",
    "metrics_port",
    "metrics_enabled",
    "ensure_server",
    "start_server",
    "stop_server",
    "active_server",
]

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_OK = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")


class Sample:
    """One exposition line: ``name{labels} value``."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict[str, str], value: float) -> None:
        self.name = name
        self.labels = labels
        self.value = value


class MetricFamily:
    """A named, typed group of samples (one ``# TYPE`` block)."""

    __slots__ = ("name", "type", "help", "samples")

    def __init__(self, name: str, type: str, help: str = "",
                 samples: list[Sample] | None = None) -> None:
        self.name = name
        self.type = type
        self.help = help
        self.samples = samples if samples is not None else []

    def add(self, value: float, suffix: str = "", **labels: Any) -> None:
        self.samples.append(
            Sample(self.name + suffix, {k: str(v) for k, v in labels.items()}, value)
        )

    def add_histogram(self, hist: perf.Histogram, **labels: Any) -> None:
        """Add ``hist`` as cumulative ``_bucket``, ``_sum`` and ``_count`` series.

        The bucket counts are the histogram's own, so they never decrease
        and the ``+Inf`` bucket equals ``_count``.
        """
        cumulative = 0
        for bound, count in zip(hist.bounds, hist.counts):
            cumulative += count
            self.add(cumulative, suffix="_bucket", le=_fmt_bound(bound), **labels)
        calls = hist.calls
        self.add(calls, suffix="_bucket", le="+Inf", **labels)
        self.add(hist.total, suffix="_sum", **labels)
        self.add(calls, suffix="_count", **labels)


def _label_key(labels: dict[str, str]) -> tuple:
    return tuple(sorted(labels.items()))


class Histogram:
    """Labelled histogram with fixed bucket upper bounds.

    Each label set is one :class:`repro.perf.Histogram` over these bounds
    (by default the stage-timer bounds :data:`repro.perf.BOUNDS`), rendered
    as the standard cumulative ``_bucket{le=...}`` series plus ``_sum`` and
    ``_count``.
    """

    def __init__(self, name: str, help: str = "",
                 buckets: Iterable[float] = perf.BOUNDS) -> None:
        if not _NAME_OK.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.help = help
        self.bounds = bounds
        self._lock = threading.Lock()
        self._children: dict[tuple, tuple[perf.Histogram, dict[str, str]]] = {}

    def observe(self, value: float, **labels: Any) -> None:
        for key in labels:
            if not _LABEL_OK.match(key):
                raise ValueError(f"invalid label name {key!r}")
        labels = {k: str(v) for k, v in labels.items()}
        key = _label_key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = (perf.Histogram(self.bounds), labels)
            child[0].add(value)

    def collect(self) -> MetricFamily:
        family = MetricFamily(self.name, "histogram", self.help)
        with self._lock:
            children = [
                (hist.copy(), labels) for hist, labels in self._children.values()
            ]
        for hist, labels in children:
            family.add_histogram(hist, **labels)
        return family


def _fmt_bound(bound: float) -> str:
    text = repr(bound)
    return text[:-2] if text.endswith(".0") else text


class MetricsRegistry:
    """Thread-safe collection of histograms plus collector callbacks.

    ``histogram`` is get-or-create (idempotent, so modules that reload
    re-register harmlessly); callbacks return extra :class:`MetricFamily`
    lists computed at scrape time — the perf bridge, the process gauges,
    and the parallel pool's and serving engine's live stats register
    through this channel.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Histogram] = {}
        self._callbacks: dict[str, Callable[[], Iterable[MetricFamily]]] = {}

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] = perf.BOUNDS) -> Histogram:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = Histogram(name, help, buckets)
            return metric

    def register_callback(
        self, name: str, fn: Callable[[], Iterable[MetricFamily]]
    ) -> None:
        """Add (or replace) a collect-time family source."""
        with self._lock:
            self._callbacks[name] = fn

    def collect(self) -> list[MetricFamily]:
        with self._lock:
            metrics = list(self._metrics.values())
            callbacks = list(self._callbacks.values())
        families = [m.collect() for m in metrics]
        for callback in callbacks:
            try:
                families.extend(callback())
            except Exception:  # one broken source must not kill the scrape
                continue
        return [f for f in families if f.samples]

    def reset(self) -> None:
        """Drop every metric and callback (test isolation helper)."""
        with self._lock:
            self._metrics.clear()
            self._callbacks.clear()


#: The process-global registry served by the metrics endpoint.
registry = MetricsRegistry()

histogram = registry.histogram


def register_callback(name: str, fn: Callable[[], Iterable[MetricFamily]]) -> None:
    registry.register_callback(name, fn)


# -- perf bridge ---------------------------------------------------------------


def collect_perf() -> list[MetricFamily]:
    """Bridge the :mod:`repro.perf` registry into metric families.

    * counters → ``repro_perf_events_total{name=...}``;
    * timers → ``repro_stage_seconds{stage=...}`` histograms whose bucket
      counts, ``_sum`` and ``_count`` are the timer's own;
    * stats providers → ``repro_cache_stat{cache=...,stat=...}`` for every
      numeric stat, plus a derived ``repro_cache_hit_ratio`` wherever the
      provider reports hits and misses.
    """
    state = perf.export_state()
    families = []

    counters_family = MetricFamily(
        "repro_perf_events_total", "counter", "repro.perf counter values."
    )
    for name, value in sorted(state.get("counters", {}).items()):
        counters_family.add(value, name=name)
    families.append(counters_family)

    stages = MetricFamily(
        "repro_stage_seconds", "histogram",
        "Per-stage wall clock from repro.perf timers.",
    )
    for name, timer in sorted(state.get("timers", {}).items()):
        stages.add_histogram(timer, stage=name)
    families.append(stages)

    snapshot_caches = perf.snapshot().get("caches", {})
    stats_family = MetricFamily(
        "repro_cache_stat", "gauge", "Cache/provider statistics by name."
    )
    ratio_family = MetricFamily(
        "repro_cache_hit_ratio", "gauge", "hits / (hits + misses) per cache."
    )
    for cache_name, stats in sorted(snapshot_caches.items()):
        if not isinstance(stats, dict):
            continue
        for stat, value in sorted(stats.items()):
            if isinstance(value, bool):
                value = int(value)
            if isinstance(value, (int, float)):
                stats_family.add(value, cache=cache_name, stat=stat)
        hits, misses = stats.get("hits"), stats.get("misses")
        if isinstance(hits, (int, float)) and isinstance(misses, (int, float)):
            lookups = hits + misses
            if lookups > 0:
                ratio_family.add(hits / lookups, cache=cache_name)
    families.append(stats_family)
    families.append(ratio_family)
    return families


registry.register_callback("perf", collect_perf)


# -- text exposition -----------------------------------------------------------


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render(reg: MetricsRegistry | None = None) -> str:
    """Render the registry in the Prometheus text exposition format."""
    reg = reg if reg is not None else registry
    lines: list[str] = []
    for family in reg.collect():
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.type}")
        for sample in family.samples:
            if sample.labels:
                label_text = ",".join(
                    f'{k}="{_escape_label(v)}"' for k, v in sample.labels.items()
                )
                lines.append(f"{sample.name}{{{label_text}}} {_fmt_value(sample.value)}")
            else:
                lines.append(f"{sample.name} {_fmt_value(sample.value)}")
    return "\n".join(lines) + "\n"


_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)$"
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_exposition(text: str) -> tuple[dict[str, str], list[Sample]]:
    """Strictly parse exposition text back into ``(types, samples)``.

    Every non-comment line must match the sample grammar; histogram
    families are validated for cumulative bucket monotonicity and
    ``+Inf == _count`` agreement.  Raises :class:`ValueError` on any
    malformed line — the round-trip property the test suite scrapes for.
    """
    types: dict[str, str] = {}
    samples: list[Sample] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            parts = rest.split()
            if len(parts) != 2 or parts[1] not in (
                "counter", "gauge", "histogram", "summary", "untyped"
            ):
                raise ValueError(f"line {lineno}: bad TYPE line {line!r}")
            types[parts[0]] = parts[1]
            continue
        if line.startswith("#"):
            continue
        match = _LINE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: unparseable sample {line!r}")
        labels: dict[str, str] = {}
        raw = match.group("labels")
        if raw:
            consumed = 0
            for lm in _LABEL.finditer(raw):
                labels[lm.group(1)] = lm.group(2).replace('\\"', '"').replace(
                    "\\n", "\n"
                ).replace("\\\\", "\\")
                consumed = lm.end()
                if consumed < len(raw) and raw[consumed] == ",":
                    consumed += 1
            if consumed != len(raw):
                raise ValueError(f"line {lineno}: bad label block {raw!r}")
        value_text = match.group("value")
        try:
            value = float(value_text.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError:
            raise ValueError(f"line {lineno}: bad value {value_text!r}")
        samples.append(Sample(match.group("name"), labels, value))
    _validate_histograms(types, samples)
    return types, samples


def _histogram_children(
    samples: list[Sample], family: str
) -> Iterator[tuple[tuple, list[tuple[float, float]], float | None]]:
    """Group a histogram family's samples by child label set."""
    buckets: dict[tuple, list[tuple[float, float]]] = {}
    counts: dict[tuple, float] = {}
    for sample in samples:
        labels = dict(sample.labels)
        le = labels.pop("le", None)
        key = _label_key(labels)
        if sample.name == f"{family}_bucket" and le is not None:
            bound = float(le.replace("+Inf", "inf"))
            buckets.setdefault(key, []).append((bound, sample.value))
        elif sample.name == f"{family}_count":
            counts[key] = sample.value
    for key, entries in buckets.items():
        yield key, sorted(entries), counts.get(key)


def _validate_histograms(types: dict[str, str], samples: list[Sample]) -> None:
    for family, kind in types.items():
        if kind != "histogram":
            continue
        relevant = [s for s in samples if s.name.startswith(family)]
        for key, entries, count in _histogram_children(relevant, family):
            values = [v for _, v in entries]
            if values != sorted(values):
                raise ValueError(
                    f"{family} {dict(key)}: bucket counts decrease: {values}"
                )
            if entries and entries[-1][0] != float("inf"):
                raise ValueError(f"{family} {dict(key)}: missing +Inf bucket")
            if count is not None and entries and entries[-1][1] != count:
                raise ValueError(
                    f"{family} {dict(key)}: +Inf bucket {entries[-1][1]} != "
                    f"count {count}"
                )


# -- background HTTP server ----------------------------------------------------


def metrics_port() -> int | None:
    """Parse ``REPRO_METRICS_PORT``: unset/empty → None, else an int.

    ``0`` is valid and binds an ephemeral port (tests; the bound port is
    on :attr:`MetricsServer.port`).
    """
    raw = os.environ.get("REPRO_METRICS_PORT", "").strip()
    if not raw:
        return None
    try:
        port = int(raw)
    except ValueError:
        raise ValueError(f"REPRO_METRICS_PORT must be an integer, got {raw!r}")
    if not 0 <= port <= 65535:
        raise ValueError(f"REPRO_METRICS_PORT out of range: {port}")
    return port


def metrics_enabled() -> bool:
    return metrics_port() is not None


class MetricsServer:
    """Background HTTP server exposing ``/metrics`` (and ``/healthz``)."""

    def __init__(self, port: int, reg: MetricsRegistry | None = None,
                 host: str = "127.0.0.1") -> None:
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        target = reg if reg is not None else registry

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib API name)
                if self.path.split("?")[0] not in ("/metrics", "/", "/healthz"):
                    self.send_error(404)
                    return
                if self.path.startswith("/healthz"):
                    body = b"ok\n"
                    content_type = "text/plain"
                else:
                    body = render(target).encode()
                    content_type = "text/plain; version=0.0.4; charset=utf-8"
                self.send_response(200)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:  # silence stderr chatter
                return

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self.host = host
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics",
            daemon=True,
        )
        self._thread.start()

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)


_SERVER_LOCK = threading.Lock()
_SERVER: MetricsServer | None = None


def active_server() -> MetricsServer | None:
    return _SERVER


def start_server(port: int | None = None) -> MetricsServer:
    """Start the exposition endpoint now.

    Idempotent: a second call returns the running server.  ``port=None``
    reads ``REPRO_METRICS_PORT`` and raises if unset — use
    :func:`ensure_server` for the env-gated auto-start.
    """
    global _SERVER
    with _SERVER_LOCK:
        if _SERVER is not None:
            return _SERVER
        if port is None:
            port = metrics_port()
            if port is None:
                raise ValueError("REPRO_METRICS_PORT is not set")
        _SERVER = MetricsServer(port)
        return _SERVER


def stop_server() -> None:
    """Stop the endpoint (test teardown / embedding)."""
    global _SERVER
    with _SERVER_LOCK:
        if _SERVER is not None:
            _SERVER.close()
            _SERVER = None


def ensure_server() -> MetricsServer | None:
    """Start the endpoint iff ``REPRO_METRICS_PORT`` is set.

    The harness entry points call this unconditionally; when the gate is
    unset it is a single environment lookup — the documented near-zero
    disabled overhead.
    """
    if _SERVER is not None:
        return _SERVER
    if not metrics_enabled():
        return None
    return start_server()
