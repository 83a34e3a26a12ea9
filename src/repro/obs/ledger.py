"""Persistent run ledger: one manifest per eval run, diffable for regressions.

The trace/report stack answers "what happened inside *this* run"; the
ledger answers "how does this run compare to the last hundred".  With
``REPRO_RUN_LEDGER=<dir>`` set, every harness run appends one JSON
manifest to the directory:

* identity — run id, label (``table3``/``table4``/...), wall-clock time,
  git revision, hostname, Python/platform;
* configuration — the full ``REPRO_*`` environment fingerprint and the
  effective parallel backend/jobs;
* performance — per-stage ``total/calls/p50/p95/max`` from the
  :mod:`repro.perf` timers, every counter, and each cache provider's
  snapshot (entries, hits, misses, ...);
* quality — per-design QoR rows (WNS/CPS/TNS/area) keyed
  ``<model>/<design>``.

Manifests are plain JSON written atomically (tmp + ``os.replace``), so a
killed run never leaves a torn entry, and concurrent runs never clobber
each other (run ids embed pid + a per-process sequence number).

``python -m repro.obs.report --diff <base> <new>`` (see
:mod:`repro.obs.report`) compares two manifests with configurable
thresholds — stage latency ratio, cache hit-rate drop, relative QoR
tolerance — and exits nonzero when the new run regresses, which is the
machine-checkable gate CI runs against a committed baseline manifest.

With ``REPRO_RUN_LEDGER`` unset, :func:`record_run` is one environment
lookup and returns immediately.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from .. import perf

__all__ = [
    "MANIFEST_SCHEMA",
    "DiffResult",
    "Thresholds",
    "ledger_dir",
    "ledger_enabled",
    "build_manifest",
    "write_manifest",
    "record_run",
    "load_manifest",
    "list_runs",
    "latest_run",
    "resolve_run",
    "diff_manifests",
    "render_diff",
    "qor_rows",
]

#: Manifest schema version (bump on breaking shape changes).
MANIFEST_SCHEMA = 1

#: Per-process manifest sequence, so runs in one process get unique ids.
_RUN_SEQ = itertools.count(1)


def ledger_dir() -> str | None:
    """The ledger directory from ``REPRO_RUN_LEDGER`` (None = disabled)."""
    raw = os.environ.get("REPRO_RUN_LEDGER", "").strip()
    return raw or None


def ledger_enabled() -> bool:
    return ledger_dir() is not None


def _git_rev() -> str | None:
    """Current git revision, or None outside a repo / without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def _env_fingerprint() -> dict[str, str]:
    """The ``REPRO_*`` environment slice that shapes a run."""
    return {
        key: value
        for key, value in sorted(os.environ.items())
        if key.startswith("REPRO_") and key != "REPRO_PARALLEL_WORKER"
    }


def qor_rows(qor: Mapping[str, Any] | None) -> dict[str, dict[str, float]]:
    """Normalize ``{key: QoRSnapshot | dict | None}`` into manifest rows."""
    rows: dict[str, dict[str, float]] = {}
    for key, snap in (qor or {}).items():
        if snap is None:
            continue
        if isinstance(snap, Mapping):
            values = snap
        else:
            values = {
                "wns": snap.wns, "cps": snap.cps,
                "tns": snap.tns, "area": snap.area,
            }
        rows[key] = {
            metric: round(float(values[metric]), 6)
            for metric in ("wns", "cps", "tns", "area")
            if metric in values
        }
    return rows


def build_manifest(
    label: str,
    qor: Mapping[str, Any] | None = None,
    extra: Mapping[str, Any] | None = None,
) -> dict:
    """Assemble one run manifest from the current process state.

    The perf snapshot is taken here, so callers should build the manifest
    at the *end* of the run.  Live process-pool workers are drained into
    this process's registry first, so their activity is in it.
    """
    from ..parallel import sync_worker_perf  # parallel imports obs

    sync_worker_perf()
    snapshot = perf.snapshot()
    caches = dict(snapshot.get("caches", {}))
    parallel = caches.pop("parallel", None)
    run_id = (
        f"{time.strftime('%Y%m%dT%H%M%S')}"
        f"-{os.getpid()}-{next(_RUN_SEQ):03d}-{label}"
    )
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "run_id": run_id,
        "label": label,
        "unix_time": time.time(),
        "git_rev": _git_rev(),
        "hostname": socket.gethostname(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "env": _env_fingerprint(),
        "parallel": parallel,
        "stages": snapshot.get("timers", {}),
        "counters": snapshot.get("counters", {}),
        "caches": caches,
        "qor": qor_rows(qor),
    }
    if extra:
        manifest["extra"] = dict(extra)
    return manifest


def write_manifest(manifest: dict, directory: str | None = None) -> str:
    """Atomically write a manifest into the ledger directory; returns path."""
    directory = directory or ledger_dir()
    if directory is None:
        raise ValueError("no ledger directory (REPRO_RUN_LEDGER unset)")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{manifest['run_id']}.json")
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def record_run(
    label: str,
    qor: Mapping[str, Any] | None = None,
    extra: Mapping[str, Any] | None = None,
) -> str | None:
    """Persist a manifest for this run iff ``REPRO_RUN_LEDGER`` is set.

    The no-op path is one environment lookup — harness call sites are
    never guarded.  Returns the manifest path, or None when disabled.
    """
    directory = ledger_dir()
    if directory is None:
        return None
    path = write_manifest(build_manifest(label, qor=qor, extra=extra), directory)
    perf.incr("ledger.runs_recorded")
    return path


def load_manifest(path: str) -> dict:
    """Load one manifest; ``ValueError`` naming the path if it is not valid
    JSON, not a manifest, or of another :data:`MANIFEST_SCHEMA`."""
    with open(path) as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ValueError(f"{path}: invalid manifest JSON ({exc})") from exc
    if not isinstance(manifest, dict) or "run_id" not in manifest:
        raise ValueError(f"{path}: not a run manifest")
    schema = manifest.get("schema")
    if schema != MANIFEST_SCHEMA:
        raise ValueError(f"{path}: manifest schema {schema!r}, expected {MANIFEST_SCHEMA}")
    return manifest


def list_runs(directory: str | None = None) -> list[str]:
    """Manifest paths in the ledger directory, oldest first."""
    directory = directory or ledger_dir()
    if directory is None or not os.path.isdir(directory):
        return []
    names = [n for n in os.listdir(directory) if n.endswith(".json")]
    return [os.path.join(directory, n) for n in sorted(names)]


def latest_run(directory: str | None = None,
               exclude: str | None = None) -> str | None:
    """The newest manifest path (optionally excluding one), or None."""
    runs = list_runs(directory)
    if exclude is not None:
        exclude_abs = os.path.abspath(exclude)
        runs = [r for r in runs if os.path.abspath(r) != exclude_abs]
    return runs[-1] if runs else None


def resolve_run(ref: str, directory: str | None = None,
                exclude: str | None = None) -> str:
    """Resolve ``ref`` — a path, a run id, or ``latest`` — to a file path."""
    if ref == "latest":
        path = latest_run(directory, exclude=exclude)
        if path is None:
            raise FileNotFoundError(
                "no manifests in ledger directory "
                f"{directory or ledger_dir() or '(unset)'}"
            )
        return path
    if os.path.isfile(ref):
        return ref
    directory = directory or ledger_dir()
    if directory is not None:
        candidate = os.path.join(directory, f"{ref}.json")
        if os.path.isfile(candidate):
            return candidate
    raise FileNotFoundError(f"no such run manifest: {ref!r}")


# -- regression diffing --------------------------------------------------------


@dataclass(frozen=True)
class Thresholds:
    """Regression thresholds for :func:`diff_manifests`.

    A stage regresses when its p50 or p95 grows by more than
    ``latency_ratio`` **and** by more than ``min_delta_s`` absolute (the
    absolute floor keeps micro-stage jitter from flagging); a cache
    regresses when its hit rate drops by more than ``hit_rate_drop``
    (only caches with at least ``min_lookups`` lookups in both runs are
    compared); a QoR row regresses when a metric worsens by more than
    ``qor_tol`` relative.
    """

    latency_ratio: float = 1.5
    min_delta_s: float = 0.001
    hit_rate_drop: float = 0.10
    min_lookups: int = 10
    qor_tol: float = 1e-6


@dataclass
class DiffResult:
    """Structured outcome of comparing two manifests."""

    base_id: str
    new_id: str
    regressions: list[str] = field(default_factory=list)
    improvements: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions


def _hit_rate(stats: Mapping[str, Any]) -> tuple[float, int] | None:
    hits, misses = stats.get("hits"), stats.get("misses")
    if not isinstance(hits, (int, float)) or not isinstance(misses, (int, float)):
        return None
    lookups = int(hits + misses)
    if lookups <= 0:
        return None
    return hits / lookups, lookups


#: QoR metric → +1 when larger is better (slacks), -1 when smaller is
#: better (area).
_QOR_SENSE = {"wns": 1.0, "cps": 1.0, "tns": 1.0, "area": -1.0}


def diff_manifests(
    base: dict, new: dict, thresholds: Thresholds | None = None
) -> DiffResult:
    """Compare two run manifests; regressions make the CLI exit nonzero.

    Only stages/caches/QoR rows present in **both** manifests are
    compared — a stage that exists in one run only is a note, not a
    regression, so baselines stay valid as instrumentation grows.
    """
    th = thresholds or Thresholds()
    result = DiffResult(
        base_id=base.get("run_id", "?"), new_id=new.get("run_id", "?")
    )

    base_stages = base.get("stages", {}) or {}
    new_stages = new.get("stages", {}) or {}
    for name in sorted(set(base_stages) & set(new_stages)):
        for stat in ("p50_s", "p95_s"):
            old = float(base_stages[name].get(stat, 0.0))
            cur = float(new_stages[name].get(stat, 0.0))
            delta = cur - old
            if old > 0 and cur > old * th.latency_ratio and delta > th.min_delta_s:
                result.regressions.append(
                    f"stage {name} {stat}: {old:.6f}s -> {cur:.6f}s "
                    f"({cur / old:.2f}x > {th.latency_ratio:.2f}x threshold)"
                )
            elif old > 0 and old > cur * th.latency_ratio and -delta > th.min_delta_s:
                result.improvements.append(
                    f"stage {name} {stat}: {old:.6f}s -> {cur:.6f}s "
                    f"({old / cur:.2f}x faster)"
                )
    for name in sorted(set(base_stages) ^ set(new_stages)):
        side = "base" if name in base_stages else "new"
        result.notes.append(f"stage {name} only in {side} run")

    base_caches = base.get("caches", {}) or {}
    new_caches = new.get("caches", {}) or {}
    for name in sorted(set(base_caches) & set(new_caches)):
        old_rate = _hit_rate(base_caches[name])
        new_rate = _hit_rate(new_caches[name])
        if old_rate is None or new_rate is None:
            continue
        if old_rate[1] < th.min_lookups or new_rate[1] < th.min_lookups:
            continue
        drop = old_rate[0] - new_rate[0]
        if drop > th.hit_rate_drop:
            result.regressions.append(
                f"cache {name} hit rate: {old_rate[0]:.3f} -> {new_rate[0]:.3f} "
                f"(drop {drop:.3f} > {th.hit_rate_drop:.3f} threshold)"
            )
        elif drop < -th.hit_rate_drop:
            result.improvements.append(
                f"cache {name} hit rate: {old_rate[0]:.3f} -> {new_rate[0]:.3f}"
            )

    base_qor = base.get("qor", {}) or {}
    new_qor = new.get("qor", {}) or {}
    for key in sorted(set(base_qor) & set(new_qor)):
        for metric, sense in _QOR_SENSE.items():
            if metric not in base_qor[key] or metric not in new_qor[key]:
                continue
            old = float(base_qor[key][metric])
            cur = float(new_qor[key][metric])
            scale = max(abs(old), abs(cur), 1e-9)
            worsening = sense * (old - cur) / scale
            if worsening > th.qor_tol:
                result.regressions.append(
                    f"qor {key} {metric}: {old} -> {cur} (worse)"
                )
            elif worsening < -th.qor_tol:
                result.improvements.append(
                    f"qor {key} {metric}: {old} -> {cur} (better)"
                )
    for key in sorted(set(base_qor) ^ set(new_qor)):
        side = "base" if key in base_qor else "new"
        result.notes.append(f"qor row {key} only in {side} run")

    return result


def render_diff(result: DiffResult) -> str:
    """Human-readable diff summary (the CLI's stdout)."""
    lines = [
        "RUN LEDGER DIFF",
        f"  base: {result.base_id}",
        f"  new:  {result.new_id}",
        f"  verdict: {'OK' if result.ok else 'REGRESSION'}",
    ]
    for title, entries in (
        ("Regressions", result.regressions),
        ("Improvements", result.improvements),
        ("Notes", result.notes),
    ):
        if entries:
            lines.append("")
            lines.append(f"{title}:")
            lines.extend(f"  - {entry}" for entry in entries)
    return "\n".join(lines)
