"""Parallel execution for the evaluation harness and the ChatLS stages.

The Table III/IV harnesses, pass@k and ChatLS's analyze and synthesize
stages fan out over independent units of work — designs, models, pass@k
seeds, the sessions of a serve batch — that share no mutable state.
This package provides the one primitive they need, an order-preserving
:func:`parallel_map`, behind two interchangeable backends:

* ``thread`` (the default) — a :mod:`concurrent.futures` thread pool.
  Each task runs inside a copy of the **caller's**
  ``contextvars.Context`` (one fresh copy per task, taken at submit
  time), so ambient context — in particular the current
  :mod:`repro.obs` span — survives the thread hop and worker spans nest
  under the harness span that spawned them.  Threads share the GIL:
  this backend overlaps I/O and caches, not Python compute.
* ``process`` — a persistent **warm multiprocessing pool**
  (:mod:`repro.parallel.pool`): spawned workers pre-load the technology
  library and the synthesis/eval stack once, then take pickled tasks
  over pipes from one costliest-first queue.  A map pickles its function
  once and each worker unpickles it once, so context every task shares
  (a database, a design) is bound into the function with
  :func:`functools.partial` rather than repeated in every item.  The
  function and items must pickle: a lambda, a closure or an unpicklable
  item raises :class:`~repro.parallel.pool.TaskSerializationError`
  naming the map before any task runs.  This is the backend that scales
  full-corpus evaluation with core count.

Backend selection, in priority order: explicit ``backend=`` argument,
the ``REPRO_PARALLEL_BACKEND`` environment variable, then ``thread``.
``parallel_map``'s contract is otherwise backend-independent:

* results are returned in input order regardless of completion order;
* exceptions propagate as in a serial loop (the lowest failing input
  index raises; under the process backend the raised object is the
  unpickled equivalent of the worker's exception, and a worker that
  dies raises :class:`~repro.parallel.pool.WorkerDiedError`);
* ``on_result(index, result)``, when given, is called once per item
  that succeeds, as soon as its result exists and before the map
  returns: after each item in the serial loop; under the thread
  backend as a done-callback of the item's future (on the pool thread
  that finished it, or on the caller's if it finished before the
  callback was attached), while the caller keeps waiting in
  ``Future.result``; under the process backend from the dispatch loop,
  on each worker's reply.  A failing item is not reported.  The hook is
  a notification and must not raise;
* ``jobs=1`` (or ``REPRO_JOBS=1``) forces fully serial execution;
* the map blocks its caller: the serving engine calls it from a stage
  thread of its executor, never on the event loop, and hands
  ``on_result`` work back to the loop with ``call_soon_threadsafe``;
* inside a process-pool worker, nested ``parallel_map`` calls default
  to serial (no pools-within-pools) unless ``jobs=`` is explicit.

Job count resolution: explicit ``jobs=`` argument, then ``REPRO_JOBS``,
then ``os.cpu_count()`` — capped at :data:`DEFAULT_MAX_JOBS` for the
thread backend only (more GIL-bound threads than that just add
contention; the process backend happily uses every core).

Use :func:`sync_worker_perf` to merge warm workers' perf registries into
this process's, :func:`clear_worker_caches` to empty their synthesis
caches, and :func:`shutdown_pools` to retire them (their perf registries
merge on the way out).
"""

from __future__ import annotations

import contextvars
import functools
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from .. import obs, perf

__all__ = [
    "DEFAULT_MAX_JOBS",
    "BACKENDS",
    "resolve_backend",
    "resolve_jobs",
    "in_worker",
    "parallel_map",
    "shutdown_pools",
    "sync_worker_perf",
    "clear_worker_caches",
]

#: Upper bound on the default *thread* worker count (override with
#: REPRO_JOBS).  The process backend is not capped: its workers own
#: their interpreters, so more cores genuinely mean more throughput.
DEFAULT_MAX_JOBS = 8

BACKENDS = ("thread", "process")

T = TypeVar("T")
R = TypeVar("R")

#: Last-resolved execution info, surfaced via the ``parallel`` stats
#: provider so run reports show the effective backend and job count.
_LAST: dict = {"backend": None, "jobs": None, "tasks": 0}

#: Tasks currently executing in this process's thread executor, for the
#: live in-flight gauge on the metrics endpoint.
_INFLIGHT_LOCK = threading.Lock()
_INFLIGHT = 0


def in_worker() -> bool:
    """True inside a process-pool worker (set by the worker entry point)."""
    return os.environ.get("REPRO_PARALLEL_WORKER") == "1"


def resolve_backend(backend: str | None = None) -> str:
    """Effective backend honouring ``REPRO_PARALLEL_BACKEND``.

    Worker processes always resolve to ``thread``: a worker fanning out
    into its own process pool would oversubscribe every core with whole
    pools-within-pools.
    """
    if in_worker():
        return "thread"
    if backend is None:
        backend = os.environ.get("REPRO_PARALLEL_BACKEND", "").strip().lower()
        if not backend:
            return "thread"
    if backend not in BACKENDS:
        raise ValueError(
            f"REPRO_PARALLEL_BACKEND must be one of {BACKENDS}, got {backend!r}"
        )
    return backend


def resolve_jobs(jobs: int | None = None, backend: str | None = None) -> int:
    """Effective worker count honouring the ``REPRO_JOBS`` override.

    The :data:`DEFAULT_MAX_JOBS` cap applies only to the thread backend;
    the process backend defaults to every core.  Inside a pool worker an
    unspecified ``jobs`` resolves to 1 (nested fan-out stays serial even
    if the parent exported ``REPRO_JOBS``), while an explicit ``jobs=``
    argument is always respected.
    """
    if jobs is None:
        if in_worker():
            return 1
        env = os.environ.get("REPRO_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(f"REPRO_JOBS must be an integer, got {env!r}")
        else:
            cpus = os.cpu_count() or 1
            if resolve_backend(backend) == "process":
                jobs = cpus
            else:
                jobs = min(cpus, DEFAULT_MAX_JOBS)
    return max(1, jobs)


def _run_task(
    ctx: contextvars.Context,
    fn: Callable[[T], R],
    item: T,
    index: int,
    label: str,
    submitted: float,
) -> R:
    """Worker-side wrapper: queue-wait timing + caller-context execution."""
    global _INFLIGHT
    perf.add_time("eval.parallel_queue_wait", time.perf_counter() - submitted)
    with _INFLIGHT_LOCK:
        _INFLIGHT += 1
    try:
        return ctx.run(_run_traced, fn, item, index, label)
    finally:
        with _INFLIGHT_LOCK:
            _INFLIGHT -= 1


def _run_traced(fn: Callable[[T], R], item: T, index: int, label: str) -> R:
    with obs.span("eval.task", label=label, index=index):
        return fn(item)


def _serial_map(
    fn: Callable[[T], R],
    work: Sequence[T],
    on_result: Callable[[int, R], None] | None,
) -> list[R]:
    results = []
    for index, item in enumerate(work):
        result = fn(item)
        if on_result is not None:
            on_result(index, result)
        results.append(result)
    return results


def _report_done(on_result: Callable[[int, R], None], index: int, future) -> None:
    """Done-callback: hand a successful future's result to ``on_result``."""
    if future.exception() is None:
        on_result(index, future.result())


def _thread_map(
    fn: Callable[[T], R],
    work: Sequence[T],
    workers: int,
    label: str,
    on_result: Callable[[int, R], None] | None,
) -> list[R]:
    with ThreadPoolExecutor(max_workers=workers, thread_name_prefix=label) as pool:
        # One context copy per task, taken here in the caller's thread:
        # a Context can only be entered once at a time, so tasks sharing
        # a single copy would collide when they run concurrently.
        futures = [
            pool.submit(
                _run_task,
                contextvars.copy_context(),
                fn,
                item,
                index,
                label,
                time.perf_counter(),
            )
            for index, item in enumerate(work)
        ]
        if on_result is not None:
            # Leaving the pool joins every worker thread, so each hook
            # has run before the map returns or raises.
            for index, future in enumerate(futures):
                future.add_done_callback(
                    functools.partial(_report_done, on_result, index)
                )
        return [future.result() for future in futures]


def _process_map(
    fn: Callable[[T], R],
    work: Sequence[T],
    workers: int,
    label: str,
    cost: Callable[[T], float] | None,
    on_result: Callable[[int, R], None] | None,
) -> list[R]:
    from .pool import get_pool

    pool = get_pool(workers)
    with obs.span(
        "eval.parallel_map",
        backend="process", workers=workers, tasks=len(work), label=label,
    ):
        return pool.map(fn, work, label=label, cost=cost, on_result=on_result)


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: int | None = None,
    label: str = "repro-eval",
    backend: str | None = None,
    cost: Callable[[T], float] | None = None,
    on_result: Callable[[int, R], None] | None = None,
) -> list[R]:
    """Apply ``fn`` to every item, possibly concurrently.

    Deterministic: the result list matches the input order regardless of
    completion order, and the first (lowest-input-index) exception raised
    by ``fn`` propagates as in a serial loop.  Runs serially when only
    one worker is resolved or there is at most one item.  ``cost`` is an
    optional cheap per-item cost estimate (e.g. gate count): the process
    backend dispatches the costliest items first.  It never affects
    results.  ``on_result(index, result)`` is called once per successful
    item as soon as its result exists, before the map returns, so a
    caller can act on each item without waiting for the slowest (see
    the module docstring for the thread it runs on).
    """
    work: Sequence[T] = list(items)
    resolved = resolve_backend(backend)
    workers = min(resolve_jobs(jobs, backend=resolved), len(work))
    _LAST.update(
        backend=resolved if workers > 1 else "serial",
        jobs=max(1, workers),
        tasks=len(work),
    )
    if workers <= 1 or len(work) <= 1:
        return _serial_map(fn, work, on_result)
    perf.incr("eval.parallel_batches")
    perf.incr("eval.parallel_tasks", len(work))
    if resolved == "process":
        return _process_map(fn, work, workers, label, cost, on_result)
    return _thread_map(fn, work, workers, label, on_result)


def _pool_module():
    """The pool module if anything started a pool, else None (no import)."""
    return sys.modules.get(f"{__name__}.pool")


def shutdown_pools() -> None:
    """Retire warm process pools, merging worker perf into this process."""
    pool_module = _pool_module()
    if pool_module is not None:
        pool_module.shutdown_pools()


def sync_worker_perf() -> int:
    """Drain live pools' worker perf registries into the parent's, now."""
    pool_module = _pool_module()
    if pool_module is None:
        return 0
    return pool_module.sync_worker_perf()


def clear_worker_caches() -> None:
    """Empty the result caches of every live pool worker, now."""
    pool_module = _pool_module()
    if pool_module is not None:
        pool_module.clear_worker_caches()


def _parallel_stats() -> dict:
    """Effective backend/jobs + live pool stats (obs run report)."""
    info = dict(_LAST)
    pool_module = _pool_module()
    if pool_module is not None:
        info.update(pool_module.pool_stats())
    return info


perf.register_stats_provider("parallel", _parallel_stats)


def _parallel_metric_families() -> list:
    """Executor gauges for the metrics endpoint (collect-time only)."""
    from ..obs import metrics as obs_metrics

    inflight = obs_metrics.MetricFamily(
        "repro_parallel_inflight_tasks", "gauge",
        "Tasks currently executing in this process's executor.",
    )
    inflight.add(_INFLIGHT)
    info = obs_metrics.MetricFamily(
        "repro_parallel_info", "gauge",
        "Effective backend/jobs of the most recent parallel_map.",
    )
    if _LAST["backend"] is not None:
        info.add(1, backend=_LAST["backend"], jobs=_LAST["jobs"])
    return [inflight, info]


def _register_parallel_metrics() -> None:
    from ..obs import metrics as obs_metrics

    obs_metrics.register_callback("parallel", _parallel_metric_families)


_register_parallel_metrics()
