"""Worker-process entry point for the process pool.

Each worker is **warm**: at spawn it imports the heavy stack (synthesis,
eval harness, GNN/RAG layers), constructs the Liberty-flavoured technology
library and attaches the frontend/synthesis cache layers once, so every
task after the first message runs against hot modules and caches.  It then
serves a pickle-based request loop over its pipe:

* ``("task", index, fn, payload_kind, payload, label)`` →
  ``("ok", index, result, run_s)`` or ``("err", index, exc, detail)``;
* ``("perf",)`` → ``("perf", worker_id, state)`` — drain the worker's
  perf registry (counters/timers exported via
  :func:`repro.perf.export_state`, then reset) for parent-side
  aggregation;
* ``("clear",)`` → ``("cleared", worker_id)`` — empty the worker's
  synthesis and frontend caches (:func:`repro.synth.cache.clear_caches`);
* ``("close",)`` → ``("closed", state)`` — final perf drain, tracer
  flush, exit.

Payloads arrive inline (small items, pickled bytes) or as a
:class:`~repro.parallel.shm.ShmHandle` (large items, mapped zero-copy for
the duration of the task).

**Span re-rooting.**  ``contextvars`` do not cross process boundaries, so
worker task spans cannot nest under the parent's harness span the way
thread-backend spans do.  Instead, when the parent has ``REPRO_TRACE``
set, each worker writes its own *sidecar* trace (``<path>.wNN``) where
every task is a root span carrying ``worker`` and ``index`` attributes;
``python -m repro.obs.report`` merges sidecars back into the parent
report.  This re-rooting is the documented process-backend tracing
contract.

Workers set ``REPRO_PARALLEL_WORKER=1`` so nested ``parallel_map`` calls
(e.g. pass@k fan-out inside a Table III cell) run serially instead of
spawning pools-within-pools.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback
from multiprocessing.connection import Connection

from .. import obs, perf
from .shm import ShmHandle, load_from_shm

__all__ = ["worker_main", "warm_worker"]


def warm_worker() -> dict:
    """Pre-load libraries and prime caches; returns what was warmed.

    Imports pull in the parser/elaborator, techmap, timing/power engines,
    the SoA kernels, ChatLS/RAG/GNN layers and the eval harness; building
    the library once compiles its cell tables.  The frontend/synthesis
    caches register their stats providers here, and their on-disk layers
    (if directories are configured) serve this worker from the shared
    store immediately.
    """
    start = time.perf_counter()
    from ..synth import cache as synth_cache  # noqa: F401  (providers register)
    from ..synth.library import nangate45
    import repro.eval.harness  # noqa: F401  (pulls chatls/rag/gnn/mentor)

    library = nangate45()
    _, frontend_disk = synth_cache.frontend_cache_mode()
    _, synth_disk = synth_cache.synth_cache_mode()
    return {
        "warm_s": round(time.perf_counter() - start, 6),
        "library": library.name,
        "frontend_disk": frontend_disk,
        "synth_disk": synth_disk,
    }


def _load_item(payload_kind: str, payload):
    """Materialize one task item; returns (item, open_payload_or_None)."""
    if payload_kind == "shm":
        assert isinstance(payload, ShmHandle)
        opened = load_from_shm(payload, copy=False)
        return opened.obj, opened
    data, buffers = payload
    return pickle.loads(data, buffers=buffers), None


def _serve_task(conn: Connection, worker_id: int, msg: tuple) -> None:
    _, index, fn, payload_kind, payload, label = msg
    opened = None
    started = time.perf_counter()
    try:
        item, opened = _load_item(payload_kind, payload)
        with obs.span("eval.task", label=label, index=index, worker=worker_id):
            result = fn(item)
        run_s = time.perf_counter() - started
        perf.add_time(f"parallel.task_run.w{worker_id:02d}", run_s)
        try:
            conn.send(("ok", index, result, run_s))
        except Exception as exc:  # unpicklable result: report, don't die
            conn.send(
                ("err", index, None,
                 f"task {index} result not picklable: {exc!r}")
            )
    except Exception as exc:
        detail = traceback.format_exc()
        try:
            conn.send(("err", index, exc, detail))
        except Exception:  # unpicklable exception: ship the traceback text
            conn.send(("err", index, None, detail))
    finally:
        if opened is not None:
            opened.close()


def worker_main(conn: Connection, worker_id: int, trace_path: str | None) -> None:
    """Serve tasks until told to close (the spawned process's main)."""
    os.environ["REPRO_PARALLEL_WORKER"] = "1"
    if trace_path:
        obs.configure(trace_path)
    try:
        info = warm_worker()
    except Exception:
        conn.send(("spawn_error", worker_id, traceback.format_exc()))
        return
    conn.send(("ready", worker_id, info))
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:  # parent died: exit quietly
                return
            kind = msg[0]
            if kind == "task":
                _serve_task(conn, worker_id, msg)
            elif kind == "perf":
                state = perf.export_state()
                perf.reset()
                conn.send(("perf", worker_id, state))
            elif kind == "clear":
                from ..synth.cache import clear_caches

                clear_caches()
                conn.send(("cleared", worker_id))
            elif kind == "close":
                state = perf.export_state()
                if trace_path:
                    obs.flush()
                    obs.configure(None)  # atexit shutdown becomes a no-op
                conn.send(("closed", worker_id, state))
                return
            else:
                conn.send(("err", -1, None, f"unknown message {kind!r}"))
    finally:
        conn.close()
