"""Persistent warm process pool that ships pickles over its worker pipes.

Workers are spawned once (``spawn`` start method: clean interpreters, no
inherited locks) and stay resident across ``parallel_map`` calls, so the
per-spawn warm-up — importing the synthesis/eval stack, building the
technology library, attaching the on-disk cache layers — is paid once per
pool, not once per task.  Pools are keyed by worker count **and** a
fingerprint of the ``REPRO_*`` environment: changing a gate (cache dirs,
trace paths) between calls retires the stale pool and warms a fresh one,
because workers bind those gates at spawn.

A map pickles its function and every item once, up front, and raises
:class:`TaskSerializationError` before dispatching anything if one of
them cannot be pickled.  Context every task needs (a database, a design)
rides in the function — callers bind it with :func:`functools.partial` —
so each worker receives the function's bytes with its first task of the
map and unpickles them once.  Dispatch is parent-coordinated: every
worker holds exactly one task in flight and, on completion, takes the
next from one queue sorted costliest-first by the caller's ``cost``
estimate (ties by input index).  Results return over the pipe keyed by
input index, so output order and exception semantics match a serial
loop exactly: every task runs, then the exception of the lowest failing
input index is raised (the unpickled instance of the worker's
exception).  A worker that dies mid-map raises :class:`WorkerDiedError`
and retires the pool; the next map warms a fresh one.

Between maps the parent can drain every worker's :mod:`repro.perf`
registry into its own (:func:`repro.perf.merge_state`; the run ledger
does so before each manifest, and shutdown does so once more), so
counters, cache stats and per-worker queue-wait/run histograms from
sharded runs land in the parent's snapshot and the obs run report.  It
can also empty every worker's synthesis caches, which
:func:`repro.synth.cache.clear_caches` does.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
import time
from collections import deque
from multiprocessing import get_context
from multiprocessing.connection import wait as connection_wait

from .. import obs, perf
from .worker import worker_main

__all__ = [
    "ProcessPool",
    "TaskSerializationError",
    "WorkerDiedError",
    "WorkerTaskError",
    "get_pool",
    "shutdown_pools",
    "sync_worker_perf",
    "clear_worker_caches",
    "pool_stats",
]

_UNSET = object()


class TaskSerializationError(Exception):
    """A task function or item cannot be pickled for the process backend."""


class WorkerTaskError(RuntimeError):
    """A task failed with an exception that could not itself be pickled."""


class WorkerDiedError(RuntimeError):
    """A pool worker process exited while it was running a task."""


class _Worker:
    __slots__ = ("process", "conn", "id", "info")

    def __init__(self, process, conn, worker_id: int) -> None:
        self.process = process
        self.conn = conn
        self.id = worker_id
        self.info: dict = {}


def _dumps(obj, what: str, label: str) -> bytes:
    try:
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise TaskSerializationError(
            f"{what} of {label!r} not picklable: {exc!r}"
        ) from exc


class ProcessPool:
    """A warm pool of ``size`` worker processes (see module docstring)."""

    def __init__(self, size: int, label: str = "repro-pool") -> None:
        if size < 1:
            raise ValueError("pool needs at least one worker")
        self.size = size
        self.label = label
        self.closed = False
        self.maps = 0
        self.tasks = 0
        self.created = time.perf_counter()
        #: Cumulative per-worker telemetry (run seconds from worker task
        #: replies, dispatch counts) — the utilization and task gauges on
        #: the metrics endpoint.
        self.worker_run_s = [0.0] * size
        self.worker_dispatched = [0] * size
        #: Live view of the in-flight map (queue + busy set), read by the
        #: metrics collector for the queue-depth gauge; None between maps.
        self.active: dict | None = None
        #: One map at a time: the queue, busy set and worker pipes are
        #: shared pool state, so concurrent maps (e.g. two serving-engine
        #: stage fan-outs overlapping from executor threads) serialize here.
        self._map_lock = threading.Lock()
        ctx = get_context("spawn")
        trace_base = os.environ.get("REPRO_TRACE", "").strip() or None
        self.workers: list[_Worker] = []
        started = time.perf_counter()
        for worker_id in range(size):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            sidecar = f"{trace_base}.w{worker_id:02d}" if trace_base else None
            process = ctx.Process(
                target=worker_main,
                args=(child_conn, worker_id, sidecar),
                name=f"{label}-w{worker_id:02d}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self.workers.append(_Worker(process, parent_conn, worker_id))
        for worker in self.workers:
            try:
                msg = worker.conn.recv()
            except EOFError:
                self.shutdown(force=True)
                raise RuntimeError(
                    "pool worker died before its ready handshake (spawn "
                    "re-imports __main__: scripts must guard pool use with "
                    "`if __name__ == '__main__':` and be importable files)"
                ) from None
            if msg[0] != "ready":
                detail = msg[2] if len(msg) > 2 else msg
                self.shutdown(force=True)
                raise RuntimeError(f"pool worker failed to warm up:\n{detail}")
            worker.info = msg[2]
        self.spawn_s = time.perf_counter() - started
        perf.incr("parallel.workers_spawned", size)
        perf.add_time("parallel.pool_spawn", self.spawn_s)
        obs.info(
            "parallel.pool_ready", workers=size,
            spawn_s=round(self.spawn_s, 3),
            warm_s=[w.info.get("warm_s") for w in self.workers],
        )

    # -- liveness -------------------------------------------------------------

    @property
    def usable(self) -> bool:
        return not self.closed and all(w.process.is_alive() for w in self.workers)

    # -- mapping --------------------------------------------------------------

    def map(self, fn, items, label: str = "repro-eval", cost=None) -> list:
        """Order-preserving map with serial-equivalent exception semantics.

        Thread-safe: concurrent callers serialize on the pool's map lock.
        """
        with self._map_lock:
            return self._map_locked(fn, items, label, cost)

    def _map_locked(self, fn, items, label: str, cost) -> list:
        if self.closed:
            raise RuntimeError("pool is shut down")
        work = list(items)
        if not work:
            return []
        fn_bytes = _dumps(fn, "function", label)
        payloads = [_dumps(item, f"item {i}", label) for i, item in enumerate(work)]
        order = range(len(work))
        if cost is not None:
            order = sorted(order, key=lambda i: (-float(cost(work[i])), i))
        queue = deque(order)
        results: list = [_UNSET] * len(work)
        errors: dict[int, tuple[BaseException | None, str]] = {}
        busy: dict[int, int] = {}  # worker id -> in-flight task index
        has_fn: set[int] = set()  # workers already sent this map's function
        self.maps += 1
        self.tasks += len(work)
        self.active = {"queue": queue, "busy": busy, "label": label}
        started = time.perf_counter()

        def dispatch(worker: _Worker) -> None:
            if not queue:
                return
            index = queue.popleft()
            first = worker.id not in has_fn
            worker.conn.send(
                ("task", index, fn_bytes if first else None, payloads[index], label)
            )
            has_fn.add(worker.id)
            busy[worker.id] = index
            self.worker_dispatched[worker.id] += 1
            wait = time.perf_counter() - started
            perf.add_time("eval.parallel_queue_wait", wait)
            perf.add_time(f"parallel.queue_wait.w{worker.id:02d}", wait)
            perf.incr(f"parallel.tasks.w{worker.id:02d}")

        try:
            for worker in self.workers:
                dispatch(worker)
            by_conn = {worker.conn: worker for worker in self.workers}
            while busy:
                ready = connection_wait(
                    [w.conn for w in self.workers if w.id in busy]
                )
                for conn in ready:
                    worker = by_conn[conn]
                    try:
                        msg = conn.recv()
                    except EOFError:
                        raise WorkerDiedError(
                            f"pool worker {worker.id} died while running "
                            f"task {busy[worker.id]} of {label!r}"
                        ) from None
                    kind = msg[0]
                    if kind == "ok":
                        _, index, result, run_s = msg
                        results[index] = result
                        self.worker_run_s[worker.id] += run_s
                    elif kind == "err":
                        _, index, exc, detail = msg
                        errors[index] = (exc, detail)
                    else:  # pragma: no cover - protocol safety net
                        raise RuntimeError(f"unexpected worker message {kind!r}")
                    busy.pop(worker.id, None)
                    dispatch(worker)
        finally:
            self.active = None
            if busy:
                # A dead worker, or replies still in flight that the next
                # map would read as its own: retire the pool.
                self.shutdown(force=True)
        if errors:
            index = min(errors)
            exc, detail = errors[index]
            if exc is None:
                raise WorkerTaskError(
                    f"task {index} of {label!r} failed:\n{detail}"
                )
            raise exc
        return results

    # -- requests between maps -------------------------------------------------

    def _request(self, message: tuple) -> list[tuple]:
        """Send ``message`` to every live worker; returns their replies.

        Holds the map lock, so a request never interleaves with another
        thread's map on the same pipes.
        """
        replies = []
        with self._map_lock:
            for worker in self.workers:
                if worker.process.is_alive():
                    worker.conn.send(message)
                    replies.append(worker.conn.recv())
        return replies

    def drain_perf(self) -> int:
        """Merge every worker's perf registry into the parent's, now.

        Workers reset their registries after exporting, so repeated drains
        never double-count.  Returns the number of workers drained.
        """
        drained = 0
        for reply in self._request(("perf",)):
            if reply[0] == "perf":
                perf.merge_state(reply[2])
                drained += 1
        perf.incr("parallel.perf_drains")
        return drained

    def clear_caches(self) -> None:
        """Empty the synthesis and frontend caches of every live worker."""
        self._request(("clear",))

    # -- lifecycle ------------------------------------------------------------

    def shutdown(self, force: bool = False) -> None:
        """Stop every worker, merging their perf registries on clean exit."""
        if self.closed:
            return
        self.closed = True
        for worker in self.workers:
            if not worker.process.is_alive():
                continue
            if not force:
                try:
                    worker.conn.send(("close",))
                    while True:
                        msg = worker.conn.recv()
                        if msg[0] == "closed":
                            perf.merge_state(msg[2])
                            break
                except (EOFError, OSError, BrokenPipeError):
                    pass
            worker.conn.close()
            worker.process.join(timeout=5)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5)

    def stats(self) -> dict:
        return {
            "workers": self.size,
            "alive": sum(w.process.is_alive() for w in self.workers),
            "maps": self.maps,
            "tasks": self.tasks,
            "spawn_s": round(self.spawn_s, 6),
        }


# -- the persistent pool registry ---------------------------------------------

_POOLS: dict[tuple, ProcessPool] = {}


def _env_fingerprint() -> tuple:
    """The REPRO_* environment slice workers bind at spawn."""
    return tuple(
        sorted(
            (key, value)
            for key, value in os.environ.items()
            if key.startswith("REPRO_") and key != "REPRO_PARALLEL_WORKER"
        )
    )


def get_pool(workers: int) -> ProcessPool:
    """The warm pool for the current environment, spawning if needed."""
    fingerprint = _env_fingerprint()
    key = (workers, fingerprint)
    pool = _POOLS.get(key)
    if pool is not None and pool.usable:
        return pool
    if pool is not None:
        pool.shutdown()
        del _POOLS[key]
    # Retire pools warmed under a different environment: their workers
    # bound stale gates at spawn and would silently disagree with the
    # parent's current configuration.
    for other_key in [k for k in _POOLS if k[1] != fingerprint]:
        _POOLS.pop(other_key).shutdown()
    pool = ProcessPool(workers)
    _POOLS[key] = pool
    return pool


def shutdown_pools() -> None:
    """Shut down every pool (merges worker perf into the parent registry)."""
    for pool in list(_POOLS.values()):
        pool.shutdown()
    _POOLS.clear()


def sync_worker_perf() -> int:
    """Drain worker perf registries of every live pool into the parent."""
    return sum(pool.drain_perf() for pool in list(_POOLS.values()) if pool.usable)


def clear_worker_caches() -> None:
    """Empty the synthesis caches of every live pool's workers."""
    for pool in list(_POOLS.values()):
        if pool.usable:
            pool.clear_caches()


def pool_stats() -> dict:
    """Aggregated stats over live pools (for the ``parallel`` provider)."""
    pools = list(_POOLS.values())
    return {
        "pools": len(pools),
        "pool_workers": sum(p.size for p in pools),
        "maps": sum(p.maps for p in pools),
        "pool_tasks": sum(p.tasks for p in pools),
    }


def _pool_metric_families() -> list:
    """Live pool gauges for the metrics endpoint (collect-time only).

    Reads the in-flight queue/busy view without locks: the GIL makes
    ``len(deque)`` and dict snapshots safe, the values are monotone
    approximations anyway, and a scrape must never slow the dispatch
    loop.  Emits nothing when no pool is warm.
    """
    from ..obs import metrics as obs_metrics

    pools = [p for p in _POOLS.values() if not p.closed]
    if not pools:
        return []
    depth = obs_metrics.MetricFamily(
        "repro_pool_queue_depth", "gauge",
        "Tasks queued in the pool's in-flight map, not yet dispatched.",
    )
    busy_f = obs_metrics.MetricFamily(
        "repro_pool_worker_busy", "gauge",
        "1 while a worker has a task in flight.",
    )
    util = obs_metrics.MetricFamily(
        "repro_pool_worker_utilization", "gauge",
        "Fraction of pool lifetime each worker spent running tasks.",
    )
    tasks_total = obs_metrics.MetricFamily(
        "repro_pool_worker_tasks_total", "counter",
        "Tasks dispatched to each worker.",
    )
    summary = obs_metrics.MetricFamily(
        "repro_pool_workers_alive", "gauge", "Live process-pool workers."
    )
    now = time.perf_counter()
    for pool_index, pool in enumerate(pools):
        pool_label = f"p{pool_index}"
        summary.add(
            sum(w.process.is_alive() for w in pool.workers), pool=pool_label
        )
        active = pool.active
        depth.add(len(active["queue"]) if active else 0, pool=pool_label)
        busy = dict(active["busy"]) if active else {}
        age = max(now - pool.created, 1e-9)
        for wid in range(pool.size):
            worker = f"w{wid:02d}"
            busy_f.add(int(wid in busy), pool=pool_label, worker=worker)
            util.add(pool.worker_run_s[wid] / age, pool=pool_label, worker=worker)
            tasks_total.add(
                pool.worker_dispatched[wid], pool=pool_label, worker=worker
            )
    return [depth, busy_f, util, tasks_total, summary]


def _register_pool_metrics() -> None:
    from ..obs import metrics as obs_metrics

    obs_metrics.register_callback("parallel_pool", _pool_metric_families)


_register_pool_metrics()

atexit.register(shutdown_pools)
