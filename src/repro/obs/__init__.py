"""``repro.obs``: end-to-end pipeline observability.

Five layers over the same span/event/metric model:

* :mod:`repro.obs.tracer` — :func:`span`, the one way code times a stage:
  every span adds its duration to the :mod:`repro.perf` timer of its name,
  and with ``REPRO_TRACE`` set it is also a node of a hierarchical trace,
  contextvars-nested across ``parallel_map`` worker threads, exported as
  JSONL or Chrome trace-event JSON;
* :mod:`repro.obs.logs` — structured JSON-lines logging (``REPRO_LOG``)
  with trace/span correlation ids;
* :mod:`repro.obs.metrics` — the perf registry's counters and stage
  histograms, labelled histograms and collect-time gauges (the process
  gauges of :mod:`repro.obs.sampler` among them), exposed in Prometheus
  text format by a background HTTP server (``REPRO_METRICS_PORT``);
* :mod:`repro.obs.ledger` — one persistent manifest per eval run
  (``REPRO_RUN_LEDGER``): git rev, env fingerprint, per-stage
  latencies, counters, caches, per-design QoR;
* :mod:`repro.obs.report` — ``python -m repro.obs.report trace.jsonl``
  for the per-stage run report, ``--diff base new`` for the
  threshold-gated regression diff between two ledger manifests.

Everything beyond the perf timers is off by default and near-zero
overhead when disabled, so call sites are never guarded.
"""

from . import sampler  # noqa: F401  (registers the process gauges)
from .ledger import ledger_enabled, record_run
from .metrics import ensure_server as ensure_metrics_server
from .metrics import metrics_enabled
from .logs import (
    LEVELS,
    StructuredLogger,
    configure_logging,
    debug,
    error,
    get_logger,
    info,
    log,
    logging_enabled,
    warning,
)
from .tracer import (
    NOOP_SPAN,
    Span,
    Tracer,
    configure,
    current_span,
    event,
    flush,
    get_tracer,
    span,
    tracing_enabled,
)

__all__ = [
    "LEVELS",
    "NOOP_SPAN",
    "Span",
    "StructuredLogger",
    "Tracer",
    "configure",
    "configure_logging",
    "current_span",
    "debug",
    "ensure_metrics_server",
    "error",
    "event",
    "flush",
    "ledger_enabled",
    "metrics_enabled",
    "record_run",
    "get_logger",
    "get_tracer",
    "info",
    "log",
    "logging_enabled",
    "span",
    "tracing_enabled",
    "warning",
]
