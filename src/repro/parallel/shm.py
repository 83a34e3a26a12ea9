"""Shared-memory payload transport for the process backend.

Serialization uses pickle protocol 5 with out-of-band buffers: numpy
arrays (levelized SoA timing arrays, embedding matrices, GNN weights)
export their backing memory zero-copy through :class:`pickle.PickleBuffer`,
and everything — the pickle stream plus every raw buffer — lands in a
single :mod:`multiprocessing.shared_memory` segment.  Receivers either
reconstruct with one memcpy per buffer (``copy=True``, for long-lived
objects that must outlive the segment) or map numpy arrays directly onto
the shared pages (``copy=False``, for task-scoped payloads released when
the task completes).

Segment layout::

    [u64 section count n][u64 size x n][pickle stream][buffer 0]...[buffer n-2]

Two client-facing shapes sit on top:

* :func:`dump_to_shm` / :func:`load_from_shm` — one payload, one segment;
  the :class:`ShmHandle` travels over the task pipe instead of the bytes.
* :class:`SharedRef` via :func:`shared` — broadcast objects (the expert
  database, the Table IV report map): serialized **once** in the parent,
  resolved and memoized per worker process, so a thousand tasks
  referencing the same database ship a ~60-byte token each instead of
  re-pickling megabytes per task.  Under the thread backend (or in-process
  resolution) no segment is created at all and resolution is identity.

The parent owns every segment it creates and unlinks them at release /
interpreter exit; workers attach read-mostly and never unlink.  Attaching
is wrapped to keep Python's ``resource_tracker`` from adopting (and then
double-unlinking or warning about) segments the parent owns.
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from multiprocessing import shared_memory

from .. import perf

__all__ = [
    "ShmHandle",
    "SharedRef",
    "OpenPayload",
    "dump_to_shm",
    "load_from_shm",
    "unlink_handle",
    "shared",
    "resolve_shared",
    "release_shared",
    "release_all_shared",
]

#: Task payloads below this pickled size go inline over the pipe; at or
#: above it they move through a shared-memory segment instead.
DEFAULT_SHM_MIN_BYTES = 64 * 1024

#: Worker-side resolved-broadcast memo bound (entries, not bytes).
RESOLVED_MEMO_CAP = 16

_U64 = struct.Struct("<Q")


@dataclass(frozen=True)
class ShmHandle:
    """Name + size of one parent-owned shared-memory payload segment."""

    name: str
    size: int


class OpenPayload:
    """A payload mapped zero-copy onto its shared segment.

    ``obj`` may hold numpy arrays whose data lives in the segment; call
    :meth:`close` only once the object is dead (end of task).  If buffers
    are still exported at close time the unmap is skipped — the mapping
    then lives until process exit, which is safe, merely unaccounted.
    """

    __slots__ = ("obj", "_segment", "_views")

    def __init__(self, obj, segment, views) -> None:
        self.obj = obj
        self._segment = segment
        self._views = views

    def close(self) -> None:
        self.obj = None
        for view in self._views:
            try:
                view.release()
            except BufferError:
                return  # numpy still holds the pages; leave mapped
        self._views = ()
        if self._segment is not None:
            try:
                self._segment.close()
            except BufferError:
                pass
            self._segment = None


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting its lifetime.

    3.13+ has ``track=False`` for exactly this.  On older Pythons the
    attach re-registers the name with the resource tracker — but spawned
    pool workers inherit the *parent's* tracker process, whose name set
    is not refcounted, so the re-register is a harmless no-op and the
    creator's eventual ``unlink()`` performs the single removal.
    Explicitly unregistering here would strip the creator's own
    registration and make that unlink a tracker error.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        return shared_memory.SharedMemory(name=name)


def _serialize(obj) -> tuple[bytes, list[memoryview]]:
    """Pickle with out-of-band buffers (raw, contiguous memoryviews)."""
    buffers: list[pickle.PickleBuffer] = []
    try:
        data = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
        raws = [buf.raw() for buf in buffers]
    except pickle.PickleError:
        raise
    except BufferError:
        # A non-contiguous exporter slipped through: fall back to fully
        # in-band pickling (correct, just not zero-copy).
        data = pickle.dumps(obj, protocol=5)
        raws = []
    return data, raws


# Parent-side registry of segments this process created, for unlink at
# release / exit.  Maps segment name -> SharedMemory.
_OWNED: dict[str, shared_memory.SharedMemory] = {}
_OWNED_LOCK = threading.Lock()


def dump_to_shm(obj) -> ShmHandle:
    """Serialize ``obj`` into a fresh shared-memory segment (parent side)."""
    return _dump_parts(*_serialize(obj))


def _dump_parts(data: bytes, raws: list[memoryview]) -> ShmHandle:
    """Write an already-serialized payload into a fresh segment."""
    sizes = [len(data)] + [raw.nbytes for raw in raws]
    header = _U64.pack(len(sizes)) + b"".join(_U64.pack(s) for s in sizes)
    total = len(header) + sum(sizes)
    segment = shared_memory.SharedMemory(create=True, size=max(1, total))
    offset = 0
    segment.buf[offset : offset + len(header)] = header
    offset += len(header)
    for chunk in (data, *raws):
        size = chunk.nbytes if isinstance(chunk, memoryview) else len(chunk)
        segment.buf[offset : offset + size] = chunk
        offset += size
    with _OWNED_LOCK:
        _OWNED[segment.name] = segment
    perf.incr("parallel.shm_segments")
    perf.incr("parallel.shm_bytes", total)
    return ShmHandle(name=segment.name, size=total)


def load_from_shm(handle: ShmHandle, copy: bool = True):
    """Deserialize a payload segment.

    ``copy=True`` returns the plain object (one memcpy per buffer, the
    segment is detached before returning).  ``copy=False`` returns an
    :class:`OpenPayload` whose arrays alias the shared pages; treat them
    as read-only and :meth:`OpenPayload.close` when done.
    """
    segment = _attach(handle.name)
    try:
        buf = segment.buf
        (count,) = _U64.unpack_from(buf, 0)
        sizes = [
            _U64.unpack_from(buf, 8 + 8 * i)[0] for i in range(count)
        ]
        offset = 8 + 8 * count
        views: list[memoryview] = []
        for size in sizes:
            views.append(buf[offset : offset + size])
            offset += size
        if copy:
            data = bytes(views[0])
            buffers = [bytes(view) for view in views[1:]]
            for view in views:
                view.release()
            return pickle.loads(data, buffers=buffers)
        obj = pickle.loads(views[0], buffers=views[1:])
        payload = OpenPayload(obj, segment, views)
        segment = None  # ownership moved to the payload
        return payload
    finally:
        if segment is not None:
            segment.close()


def unlink_handle(handle: ShmHandle) -> None:
    """Destroy a segment this process created (no-op for foreign/gone ones)."""
    with _OWNED_LOCK:
        segment = _OWNED.pop(handle.name, None)
    if segment is None:
        return
    try:
        segment.close()
    except BufferError:
        pass
    try:
        segment.unlink()
    except FileNotFoundError:
        pass


# -- broadcast objects --------------------------------------------------------

_REF_IDS = itertools.count(1)


@dataclass
class SharedRef:
    """Token for an object broadcast to the worker pool.

    Created by :func:`shared` in the parent.  The in-process ``_local``
    object never pickles; workers resolve through the segment once and
    memoize by token.
    """

    token: str
    handle: ShmHandle | None = None
    _local: object | None = field(default=None, repr=False, compare=False)

    def __getstate__(self) -> dict:
        return {"token": self.token, "handle": self.handle}

    def __setstate__(self, state: dict) -> None:
        self.token = state["token"]
        self.handle = state["handle"]
        self._local = None


# Parent-side refs (for release) and worker-side resolution memo.
_PARENT_REFS: dict[str, SharedRef] = {}
_RESOLVED: OrderedDict[str, object] = OrderedDict()
_RESOLVED_LOCK = threading.Lock()


def shared(obj, backend: str | None = None) -> SharedRef:
    """Wrap ``obj`` for cheap reuse across parallel tasks.

    Under the process backend the object is serialized once into shared
    memory; under the thread backend (or serial execution) the ref simply
    carries the object and no segment exists.  Resolution on either side
    goes through :func:`resolve_shared`.
    """
    from . import resolve_backend  # local import: __init__ imports us

    token = f"shmref-{os.getpid()}-{next(_REF_IDS)}"
    ref = SharedRef(token=token, _local=obj)
    if (backend or resolve_backend()) == "process":
        ref.handle = dump_to_shm(obj)
    _PARENT_REFS[token] = ref
    return ref


def resolve_shared(ref: SharedRef):
    """The object behind a ref: local when present, else shm, memoized."""
    if ref._local is not None:
        return ref._local
    with _RESOLVED_LOCK:
        if ref.token in _RESOLVED:
            _RESOLVED.move_to_end(ref.token)
            perf.incr("parallel.shared_memo_hit")
            return _RESOLVED[ref.token]
    if ref.handle is None:
        raise ValueError(f"shared ref {ref.token} has no payload here")
    obj = load_from_shm(ref.handle, copy=True)
    perf.incr("parallel.shared_resolve")
    with _RESOLVED_LOCK:
        _RESOLVED[ref.token] = obj
        while len(_RESOLVED) > RESOLVED_MEMO_CAP:
            _RESOLVED.popitem(last=False)
    return obj


def release_shared(ref: SharedRef) -> None:
    """Drop a broadcast ref and destroy its segment (parent side)."""
    _PARENT_REFS.pop(ref.token, None)
    with _RESOLVED_LOCK:
        _RESOLVED.pop(ref.token, None)
    if ref.handle is not None:
        unlink_handle(ref.handle)
        ref.handle = None
    ref._local = None


def release_all_shared() -> None:
    """Destroy every live broadcast ref and owned segment (exit hook)."""
    for ref in list(_PARENT_REFS.values()):
        release_shared(ref)
    with _OWNED_LOCK:
        segments = list(_OWNED.values())
        _OWNED.clear()
    for segment in segments:
        try:
            segment.close()
            segment.unlink()
        except (BufferError, FileNotFoundError):
            pass


atexit.register(release_all_shared)
