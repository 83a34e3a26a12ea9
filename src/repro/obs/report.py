"""Run-report and ledger-diff CLI.

Usage::

    python -m repro.obs.report trace.jsonl [--top N] [--chrome out.json]
    python -m repro.obs.report --diff base.json new.json [thresholds...]
    python -m repro.obs.report --diff new.json --baseline latest

**Trace mode** prints a per-stage wall-clock breakdown (total, calls,
p50/p95/max aggregated by span name), the perf counter summary captured
at tracer shutdown, the parallel-execution summary (effective
backend/jobs plus per-worker task counts, queue wait and run time when
the process backend ran), and the slowest individual spans.  Worker
*sidecar* traces (``trace.jsonl.wNN``, written by process-pool workers
whose spans cannot nest under the parent's — see
:mod:`repro.parallel.worker`) are merged in automatically; their
snapshot records are dropped because the workers' perf registries
already merge into the parent's at pool shutdown.  Truncated or partial
JSONL lines (a worker killed mid-write) are skipped with a warning and
a count — the CLI only fails when a trace yields zero parseable spans.
``--chrome`` additionally converts the trace to Chrome trace-event JSON
for Perfetto.

**Diff mode** compares two run-ledger manifests
(:mod:`repro.obs.ledger`): ``--diff base new`` compares explicitly;
``--diff new --baseline latest`` resolves the baseline from the
``REPRO_RUN_LEDGER`` directory (or ``--ledger-dir``).  Thresholds are
configurable (``--latency-ratio``, ``--hit-rate-drop``, ``--qor-tol``,
``--min-delta-s``, ``--min-lookups``) and any regression makes the
process exit nonzero — the CI regression gate.
"""

from __future__ import annotations

import argparse
import glob as globlib
import json
import re
import sys
from typing import Any, Sequence

from ..eval.tables import render_table
from .chrome import write_chrome

__all__ = [
    "load_events",
    "load_events_with_sidecars",
    "summarize",
    "render_report",
    "run_diff",
    "main",
]


def load_events(path: str) -> list[dict]:
    """Parse a JSONL trace file into its records.

    Truncated or otherwise malformed lines — the tail a killed worker
    left mid-write — are skipped with one warning per file and a total
    count, so a partial trace still yields a report.
    """
    events = []
    skipped = 0
    first_bad: str | None = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                skipped += 1
                if first_bad is None:
                    first_bad = f"{path}:{lineno}: {exc}"
                continue
            if not isinstance(record, dict):
                skipped += 1
                if first_bad is None:
                    first_bad = f"{path}:{lineno}: not a JSON object"
                continue
            events.append(record)
    if skipped:
        print(
            f"warning: {path}: skipped {skipped} unparseable line"
            f"{'s' if skipped != 1 else ''} (first: {first_bad})",
            file=sys.stderr,
        )
    return events


def load_events_with_sidecars(path: str) -> list[dict]:
    """Load a trace plus any worker sidecar traces (``<path>.wNN``).

    Sidecar snapshot records are dropped: the worker registries merged
    into the parent's at pool shutdown, so the parent snapshot already
    holds their counters and keeping both would double-count.
    """
    events = load_events(path)
    for sidecar in sorted(globlib.glob(f"{globlib.escape(path)}.w[0-9][0-9]")):
        worker = re.search(r"\.w(\d+)$", sidecar).group(1)
        for record in load_events(sidecar):
            if record.get("type") == "snapshot":
                continue
            if record.get("type") == "span":
                record["tname"] = f"w{worker}:{record.get('tname', '?')}"
            events.append(record)
    return events


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (q in [0, 1])."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


def summarize(events: list[dict]) -> dict[str, Any]:
    """Aggregate trace events into the report's structured form."""
    spans = [e for e in events if e.get("type") == "span"]
    by_name: dict[str, list[float]] = {}
    for record in spans:
        by_name.setdefault(record["name"], []).append(record["dur"])
    stages = {
        name: {
            "total_s": round(sum(durs), 6),
            "calls": len(durs),
            "p50_s": round(percentile(durs, 0.50), 6),
            "p95_s": round(percentile(durs, 0.95), 6),
            "max_s": round(max(durs), 6),
        }
        for name, durs in by_name.items()
    }
    counters: dict[str, int] = {}
    caches: dict[str, dict] = {}
    timers: dict[str, dict] = {}
    for record in events:
        if record.get("type") == "snapshot":
            counters = record.get("perf", {}).get("counters", {})
            caches = record.get("perf", {}).get("caches", {})
            timers = record.get("perf", {}).get("timers", {})
    # The parallel stats provider reports through the same provider
    # channel as the caches but is its own report section.
    caches = dict(caches)
    parallel = caches.pop("parallel", None)
    if not counters:
        # No shutdown snapshot (e.g. a truncated trace): reconstruct from
        # the per-span perf deltas of root spans, which contain their
        # whole subtree's activity exactly once.
        for record in spans:
            if record.get("parent"):
                continue
            for key, value in (record.get("attrs", {}).get("perf") or {}).items():
                counters[key] = counters.get(key, 0) + value
    threads = {r.get("tname", "?") for r in spans}
    slowest = sorted(spans, key=lambda r: r["dur"], reverse=True)
    return {
        "spans": len(spans),
        "traces": len({r["trace"] for r in spans}),
        "threads": sorted(threads),
        "stages": stages,
        "counters": counters,
        "caches": caches,
        "parallel": parallel,
        "workers": _worker_stats(counters, timers),
        "slowest": slowest,
    }


def _worker_stats(counters: dict, timers: dict) -> list[dict]:
    """Per-worker task/queue-wait/run rows from the merged perf state.

    The pool and its workers record under ``parallel.<metric>.wNN``
    keys; after pool shutdown those live in the parent snapshot.
    """
    ids: set[str] = set()
    for key in list(counters) + list(timers):
        match = re.fullmatch(r"parallel\.[a-z_]+\.w(\d+)", key)
        if match:
            ids.add(match.group(1))
    rows = []
    for wid in sorted(ids):
        wait = timers.get(f"parallel.queue_wait.w{wid}", {})
        run = timers.get(f"parallel.task_run.w{wid}", {})
        rows.append(
            {
                "worker": f"w{wid}",
                "tasks": counters.get(f"parallel.tasks.w{wid}", 0),
                "wait_p50_s": wait.get("p50_s", 0.0),
                "wait_p95_s": wait.get("p95_s", 0.0),
                "wait_max_s": wait.get("max_s", 0.0),
                "run_total_s": run.get("total_s", 0.0),
            }
        )
    return rows


def render_report(events: list[dict], top: int = 10) -> str:
    """Render the human-readable run report."""
    summary = summarize(events)
    out = [
        "OBSERVABILITY RUN REPORT",
        f"  spans: {summary['spans']}  traces: {summary['traces']}"
        f"  threads: {len(summary['threads'])}",
        "",
    ]
    stage_rows = [
        [name, s["total_s"], s["calls"], s["p50_s"], s["p95_s"], s["max_s"]]
        for name, s in sorted(
            summary["stages"].items(), key=lambda kv: kv[1]["total_s"], reverse=True
        )
    ]
    out.append(
        render_table(
            ["Stage", "Total (s)", "Calls", "p50 (s)", "p95 (s)", "Max (s)"],
            [[r[0], _s(r[1]), r[2], _s(r[3]), _s(r[4]), _s(r[5])] for r in stage_rows],
            title="Per-stage time breakdown",
        )
    )
    if summary["counters"]:
        out.append("")
        out.append(
            render_table(
                ["Counter", "Value"],
                sorted(summary["counters"].items()),
                title="Perf counters",
            )
        )
    if summary["caches"]:
        out.append("")
        out.append(
            render_table(
                ["Cache", "Entries", "Hits", "Misses"],
                [
                    [name, c.get("entries", 0), c.get("hits", 0), c.get("misses", 0)]
                    for name, c in sorted(summary["caches"].items())
                ],
                title="Caches",
            )
        )
    if summary.get("parallel"):
        p = summary["parallel"]
        out.append("")
        out.append(
            "Parallel execution: backend={backend} jobs={jobs} tasks={tasks}".format(
                backend=p.get("backend"), jobs=p.get("jobs"), tasks=p.get("tasks")
            )
            + (
                f"  pools={p['pools']} pool_workers={p.get('pool_workers', 0)}"
                if p.get("pools")
                else ""
            )
        )
    if summary.get("workers"):
        out.append("")
        out.append(
            render_table(
                [
                    "Worker", "Tasks",
                    "Wait p50 (s)", "Wait p95 (s)", "Wait max (s)", "Run (s)",
                ],
                [
                    [
                        w["worker"], w["tasks"],
                        _s(w["wait_p50_s"]), _s(w["wait_p95_s"]),
                        _s(w["wait_max_s"]), _s(w["run_total_s"]),
                    ]
                    for w in summary["workers"]
                ],
                title="Process-pool workers (queue wait / run time)",
            )
        )
    out.append("")
    slow_rows = [
        [
            r["name"],
            _s(r["dur"]),
            r.get("tname", "?"),
            _attr_hint(r.get("attrs") or {}),
        ]
        for r in summary["slowest"][:top]
    ]
    out.append(
        render_table(
            ["Span", "Dur (s)", "Thread", "Attributes"],
            slow_rows,
            title=f"Slowest spans (top {min(top, len(slow_rows))})",
        )
    )
    return "\n".join(out)


def _s(value: float) -> str:
    return f"{value:.6f}"


def _attr_hint(attrs: dict, limit: int = 60) -> str:
    pairs = [f"{k}={v}" for k, v in attrs.items() if k != "perf"]
    text = " ".join(pairs)
    return text[: limit - 1] + "…" if len(text) > limit else text


def run_diff(args: argparse.Namespace) -> int:
    """The ``--diff`` sub-mode: compare two ledger manifests."""
    from .ledger import (
        Thresholds,
        diff_manifests,
        load_manifest,
        render_diff,
        resolve_run,
    )

    refs = list(args.diff)
    if len(refs) > 2:
        print("--diff takes at most two manifests", file=sys.stderr)
        return 2
    if len(refs) == 2:
        if args.baseline:
            print("--baseline conflicts with a two-manifest --diff", file=sys.stderr)
            return 2
        base_ref, new_ref = refs
    else:
        if not args.baseline:
            print(
                "--diff with one manifest needs --baseline (e.g. --baseline latest)",
                file=sys.stderr,
            )
            return 2
        new_ref, base_ref = refs[0], args.baseline
    try:
        new_path = resolve_run(new_ref, directory=args.ledger_dir)
        base_path = resolve_run(
            base_ref, directory=args.ledger_dir, exclude=new_path
        )
        base = load_manifest(base_path)
        new = load_manifest(new_path)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"diff failed: {exc}", file=sys.stderr)
        return 2
    result = diff_manifests(
        base,
        new,
        Thresholds(
            latency_ratio=args.latency_ratio,
            min_delta_s=args.min_delta_s,
            hit_rate_drop=args.hit_rate_drop,
            min_lookups=args.min_lookups,
            qor_tol=args.qor_tol,
        ),
    )
    print(render_diff(result))
    return 0 if result.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", nargs="?",
                        help="path to a JSONL trace (REPRO_TRACE output)")
    parser.add_argument("--top", type=int, default=10, help="slowest spans to list")
    parser.add_argument("--chrome", metavar="OUT.json",
                        help="also convert to Chrome trace-event JSON")
    diff = parser.add_argument_group("ledger diff")
    diff.add_argument("--diff", nargs="+", metavar="MANIFEST",
                      help="compare run manifests: BASE NEW, or NEW with --baseline")
    diff.add_argument("--baseline", metavar="REF",
                      help="baseline run: a path, a run id, or 'latest'")
    diff.add_argument("--ledger-dir", metavar="DIR",
                      help="ledger directory (default: REPRO_RUN_LEDGER)")
    diff.add_argument("--latency-ratio", type=float, default=1.5,
                      help="stage p50/p95 growth factor that flags (default 1.5)")
    diff.add_argument("--min-delta-s", type=float, default=0.001,
                      help="absolute latency-growth floor in seconds (default 0.001)")
    diff.add_argument("--hit-rate-drop", type=float, default=0.10,
                      help="cache hit-rate drop that flags (default 0.10)")
    diff.add_argument("--min-lookups", type=int, default=10,
                      help="minimum cache lookups for comparison (default 10)")
    diff.add_argument("--qor-tol", type=float, default=1e-6,
                      help="relative QoR worsening tolerance (default 1e-6)")
    args = parser.parse_args(argv)
    if args.diff:
        return run_diff(args)
    if not args.trace:
        parser.error("a trace path is required unless --diff is given")
    events = load_events_with_sidecars(args.trace)
    if not any(e.get("type") == "span" for e in events):
        print(f"{args.trace}: no spans recorded", file=sys.stderr)
        return 1
    print(render_report(events, top=args.top))
    if args.chrome:
        meta = next((e for e in events if e.get("type") == "meta"), None)
        write_chrome(events, args.chrome, meta=meta)
        print(f"\n[chrome trace written to {args.chrome}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
