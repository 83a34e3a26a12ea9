"""Hierarchical span tracer for the ChatLS pipeline.

A *span* is one timed region of the pipeline — a customization run, one
SynthRAG retrieval, one SynthExpert thought-step revision, one synthesis
phase — and :func:`span` is the only way code times a stage.  Every span
adds its duration to the :mod:`repro.perf` timer of its name, traced or
not, so an untraced run's ``perf.snapshot()``, run ledger and ``/metrics``
still show where its time went in every layer.

With tracing on, spans also carry a trace id (shared by every span of one
root operation), a span id, a parent span id and free-form key-value
attributes, and nest through :mod:`contextvars` so spans opened inside
``parallel_map`` worker threads attach to the harness span that spawned
them.  A span's attributes are the one record its stage leaves: what a
stage decided (a CoT step's edit and its reason, a batch's failed
scripts) goes on the span that wraps it.  On close, each traced span
also records the :mod:`repro.perf` counter deltas observed while it was
open (cache hits/misses, ``sta.incremental`` vs ``sta.full`` ...), which
is how wall-clock gets attributed to cache behaviour per stage.

Tracing is **off by default** and configured through the environment:

* ``REPRO_TRACE=<path>`` — enable tracing; the format follows the path
  suffix: ``*.json`` paths get Chrome trace-event format loadable in
  Perfetto / ``chrome://tracing``, any other path a JSONL trace (one JSON
  object per line: a meta header, the spans, the closing snapshot).

When disabled, :func:`span` returns a small falsy span that only times its
block into the perf registry: no ids, no contextvar, no records, no
file I/O.  Programmatic configuration (tests, embedding) goes through
:func:`configure`.

Span naming convention (see DESIGN.md):

* ``chatls.*`` — the pipeline's stages (analyze, retrieve, draft,
  revise; synthesis is ``synth.synthesize``) and its entry points
  (customize, customize_iteratively, round);
* ``rag.*`` — the three SynthRAG retrieval modes;
* ``expert.*`` — SynthExpert CoT refinement (one ``expert.step`` per
  revised thought step);
* ``synth.*`` — synthesis engine phases (elaborate, techmap, sta);
* ``hdl.*``, ``sta.*``, ``pass.*``, ``explore.*`` — front end, STA
  lowering and kernels, optimizer passes, the sizing explorer;
* ``eval.*`` — harness fan-out (tables, cells, parallel tasks).
"""

from __future__ import annotations

import atexit
import itertools
import json
import os
import threading
import time
from contextvars import ContextVar
from typing import Any

from .. import perf

__all__ = [
    "Span",
    "Tracer",
    "NOOP_SPAN",
    "span",
    "current_span",
    "get_tracer",
    "configure",
    "tracing_enabled",
    "flush",
]

#: The innermost open span of the current execution context.  Copied into
#: worker threads by ``parallel_map`` (via ``contextvars.copy_context``),
#: which is what makes cross-thread span nesting work.
_CURRENT: ContextVar["Span | None"] = ContextVar("repro_obs_span", default=None)

_SPAN_IDS = itertools.count(1)
_TRACE_IDS = itertools.count(1)

#: Events buffered before a flush is forced (jsonl only).
_FLUSH_EVERY = 512


class _NoopSpan:
    """Shared do-nothing span: :func:`current_span` outside any span."""

    __slots__ = ()

    name = ""
    trace_id = ""
    span_id = ""
    parent_id = None

    def set_attribute(self, key: str, value: Any) -> "_NoopSpan":
        return self

    def set_attributes(self, **attrs: Any) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def __bool__(self) -> bool:
        return False


#: The span :func:`current_span` returns when no traced span is open.
NOOP_SPAN = _NoopSpan()


class _TimedSpan(_NoopSpan):
    """Untraced span: only adds its block's duration to the perf timer."""

    __slots__ = ("name", "_start")

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self) -> "_TimedSpan":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        perf.registry.add_time(self.name, time.perf_counter() - self._start)
        return False


class Span:
    """One timed, attributed region of the pipeline."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "attrs",
        "start",
        "end",
        "thread_id",
        "thread_name",
        "_token",
        "_counters_before",
        "_tracer",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = f"{next(_SPAN_IDS):08x}"
        self.trace_id = ""
        self.parent_id: str | None = None
        self.start = 0.0
        self.end = 0.0
        self.thread_id = 0
        self.thread_name = ""
        self._token = None
        self._counters_before: dict[str, int] = {}

    # -- attributes ---------------------------------------------------------

    def set_attribute(self, key: str, value: Any) -> "Span":
        self.attrs[key] = value
        return self

    def set_attributes(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    # -- context manager protocol -------------------------------------------

    def __enter__(self) -> "Span":
        parent = _CURRENT.get()
        if parent is not None:
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        else:
            self.trace_id = f"{next(_TRACE_IDS):08x}"
        thread = threading.current_thread()
        self.thread_id = thread.ident or 0
        self.thread_name = thread.name
        self._token = _CURRENT.set(self)
        self._counters_before = perf.registry.counters()
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = time.perf_counter()
        perf.registry.add_time(self.name, self.end - self.start)
        _CURRENT.reset(self._token)
        if exc_type is not None:
            self.attrs["error"] = f"{exc_type.__name__}: {exc}"
        before = self._counters_before
        delta = {
            key: value - before.get(key, 0)
            for key, value in perf.registry.counters().items()
            if value != before.get(key, 0)
        }
        if delta:
            self.attrs["perf"] = delta
        self._tracer._record_span(self)
        return False


class Tracer:
    """Collects span records and exports them on flush.

    ``path`` selects both the destination and the format: ``*.json``
    writes Chrome trace-event JSON (one array, rewritten per flush),
    anything else writes JSONL (one record per line).  A ``None``
    path disables the tracer entirely.
    """

    def __init__(self, path: str | None = None) -> None:
        self.path = path
        self.enabled = path is not None
        self.format = "chrome" if path is not None and path.endswith(".json") else "jsonl"
        self.epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._events: list[dict] = []
        self._flushed = 0  # jsonl: events already written to the file
        self._wrote_header = False

    # -- span factory --------------------------------------------------------

    def start_span(self, name: str, attrs: dict[str, Any]) -> Span:
        return Span(self, name, attrs)

    # -- recording -----------------------------------------------------------

    def _record_span(self, span: Span) -> None:
        self._record_event(
            {
                "type": "span",
                "name": span.name,
                "trace": span.trace_id,
                "span": span.span_id,
                "parent": span.parent_id,
                "ts": round(span.start - self.epoch, 9),
                "dur": round(span.end - span.start, 9),
                "tid": span.thread_id,
                "tname": span.thread_name,
                "attrs": span.attrs,
            }
        )

    def _record_event(self, record: dict) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._events.append(record)
            pending = len(self._events) - self._flushed
        if self.format == "jsonl" and pending >= _FLUSH_EVERY:
            self.flush()

    def events(self) -> list[dict]:
        """All events recorded so far (copy)."""
        with self._lock:
            return list(self._events)

    # -- export --------------------------------------------------------------

    def flush(self) -> None:
        """Write buffered events to :attr:`path`."""
        if not self.enabled:
            return
        with self._lock:
            if self.format == "jsonl":
                pending = self._events[self._flushed :]
                header = not self._wrote_header
                self._wrote_header = True
                self._flushed = len(self._events)
                lines = []
                if header:
                    lines.append(json.dumps(self._meta()))
                lines.extend(json.dumps(e, default=str) for e in pending)
                if lines:
                    mode = "w" if header else "a"
                    with open(self.path, mode) as fh:
                        fh.write("\n".join(lines) + "\n")
            else:
                from .chrome import to_chrome

                with open(self.path, "w") as fh:
                    json.dump(to_chrome(self._events, meta=self._meta()), fh)

    def shutdown(self) -> None:
        """Final export: append a perf snapshot event, then flush."""
        if not self.enabled:
            return
        self._record_event(
            {
                "type": "snapshot",
                "ts": round(time.perf_counter() - self.epoch, 9),
                "perf": perf.snapshot(),
            }
        )
        self.flush()

    def _meta(self) -> dict:
        return {
            "type": "meta",
            "pid": os.getpid(),
            "unix_time": time.time(),
            "format": self.format,
        }


# -- module-level state -------------------------------------------------------

_LOCK = threading.Lock()
_TRACER: Tracer | None = None


def get_tracer() -> Tracer:
    """The active tracer, lazily configured from ``REPRO_TRACE``."""
    global _TRACER
    tracer = _TRACER
    if tracer is None:
        with _LOCK:
            if _TRACER is None:
                path = os.environ.get("REPRO_TRACE", "").strip() or None
                _TRACER = Tracer(path)
            tracer = _TRACER
    return tracer


def configure(path: str | None = None) -> Tracer:
    """Install a fresh tracer (``path=None`` disables tracing)."""
    global _TRACER
    with _LOCK:
        _TRACER = Tracer(path)
        return _TRACER


def tracing_enabled() -> bool:
    return get_tracer().enabled


def span(name: str, **attrs: Any):
    """Open a span (use as a context manager) timing the ``name`` stage.

    The block's duration always lands in the perf timer ``name``.  With
    tracing disabled the span is falsy, ignores attributes and records
    nothing else, so call sites never need to guard::

        with obs.span("rag.manual", k=k) as sp:
            hits = ...
            sp.set_attribute("hits", len(hits))
    """
    tracer = get_tracer()
    if not tracer.enabled:
        return _TimedSpan(name)
    return tracer.start_span(name, attrs)


def current_span() -> "Span | _NoopSpan":
    """The innermost open span of this context (NOOP_SPAN when none)."""
    return _CURRENT.get() or NOOP_SPAN


def flush() -> None:
    """Flush the active tracer (convenience for harness shutdown hooks)."""
    get_tracer().flush()


@atexit.register
def _shutdown_at_exit() -> None:
    tracer = _TRACER
    if tracer is not None and tracer.enabled:
        tracer.shutdown()
