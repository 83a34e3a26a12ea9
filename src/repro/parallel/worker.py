"""Worker-process entry point for the process pool.

Each worker is **warm**: at spawn it imports the heavy stack (synthesis,
eval harness, GNN/RAG layers), constructs the Liberty-flavoured technology
library and attaches the frontend/synthesis cache layers once, so every
task after the first message runs against hot modules and caches.  It then
serves a pickle-based request loop over its pipe:

* ``("task", index, fn_bytes, item_bytes, label)`` →
  ``("ok", index, result, run_s)`` or ``("err", index, exc, detail)``.
  ``fn_bytes`` is the map's pickled function on the worker's first task
  of a map and ``None`` after it: the worker unpickles it once and keeps
  it for the rest of the map;
* ``("perf",)`` → ``("perf", worker_id, state)`` — drain the worker's
  perf registry (counters/timers exported via
  :func:`repro.perf.export_state`, then reset) for parent-side
  aggregation;
* ``("clear",)`` → ``("cleared", worker_id)`` — empty the worker's
  synthesis and frontend caches (:func:`repro.synth.cache.clear_caches`);
* ``("close",)`` → ``("closed", state)`` — final perf drain, tracer
  flush, exit.

A worker whose pipe closes — the parent exited, or retired the pool
after another worker died — exits quietly.

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


def _serve_task(conn: Connection, worker_id: int, msg: tuple, fn_bytes, fn):
    """Run one task and send its reply; returns the map's loaded function."""
    _, index, _, item_bytes, label = msg
    started = time.perf_counter()
    try:
        if fn is None:
            fn = pickle.loads(fn_bytes)
        item = pickle.loads(item_bytes)
        with obs.span("eval.task", label=label, index=index, worker=worker_id):
            result = fn(item)
        run_s = time.perf_counter() - started
        perf.add_time(f"parallel.task_run.w{worker_id:02d}", run_s)
        reply = ("ok", index, result, run_s)
    except Exception as exc:
        reply = ("err", index, exc, traceback.format_exc())
    try:
        conn.send(reply)
    except OSError:
        raise  # the pipe is closed: the serve loop exits
    except Exception as exc:  # unpicklable result or exception: ship text
        detail = (
            reply[3] if reply[0] == "err"
            else f"task {index} result not picklable: {exc!r}"
        )
        conn.send(("err", index, None, detail))
    return fn


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
    fn_bytes = fn = None
    try:
        while True:
            msg = conn.recv()
            kind = msg[0]
            if kind == "task":
                if msg[2] is not None:  # first task of a new map
                    fn_bytes, fn = msg[2], None
                fn = _serve_task(conn, worker_id, msg, fn_bytes, fn)
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
    except (EOFError, ConnectionError):
        return  # the parent closed the pipe: exit quietly
    finally:
        conn.close()
