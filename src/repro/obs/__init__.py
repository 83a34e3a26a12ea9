"""``repro.obs``: end-to-end pipeline observability.

Four layers over the same span/metric model:

* :mod:`repro.obs.tracer` — :func:`span`, the one way code times and
  records a stage: every span adds its duration to the :mod:`repro.perf`
  timer of its name, and with ``REPRO_TRACE`` set it is also a node of a
  hierarchical trace, with the stage's facts as attributes,
  contextvars-nested across ``parallel_map`` worker threads, exported as
  JSONL or Chrome trace-event JSON;
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
from .tracer import (
    NOOP_SPAN,
    Span,
    Tracer,
    configure,
    current_span,
    flush,
    get_tracer,
    span,
    tracing_enabled,
)

__all__ = [
    "NOOP_SPAN",
    "Span",
    "Tracer",
    "configure",
    "current_span",
    "ensure_metrics_server",
    "flush",
    "ledger_enabled",
    "metrics_enabled",
    "record_run",
    "get_tracer",
    "span",
    "tracing_enabled",
]
