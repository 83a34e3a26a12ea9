"""Chrome trace-event export (Perfetto / ``chrome://tracing``).

Converts the tracer's span records into the Trace Event Format's
"complete" (``ph: "X"``) events, plus one ``thread_name`` metadata event
per thread.  Timestamps are microseconds from the tracer epoch, one
timeline row per thread, so nested spans render as a flame graph per
worker.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

__all__ = ["to_chrome", "write_chrome"]

_CATEGORY = "repro"


def to_chrome(events: Iterable[dict], meta: dict | None = None) -> dict[str, Any]:
    """Build a Chrome trace-event document from tracer span records."""
    pid = (meta or {}).get("pid", 1)
    trace_events: list[dict[str, Any]] = []
    thread_names: dict[int, str] = {}
    for record in events:
        if record.get("type") == "span":
            tid = record.get("tid", 0)
            thread_names.setdefault(tid, record.get("tname", f"thread-{tid}"))
            args = dict(record.get("attrs") or {})
            args["trace"] = record.get("trace")
            args["span"] = record.get("span")
            if record.get("parent"):
                args["parent"] = record["parent"]
            trace_events.append(
                {
                    "name": record["name"],
                    "cat": _CATEGORY,
                    "ph": "X",
                    "ts": round(record["ts"] * 1e6, 3),
                    "dur": round(record["dur"] * 1e6, 3),
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
    for tid, tname in thread_names.items():
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": tname},
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome(events: Iterable[dict], path: str, meta: dict | None = None) -> None:
    """Write the events as a Chrome trace JSON file."""
    with open(path, "w") as fh:
        json.dump(to_chrome(events, meta=meta), fh)
