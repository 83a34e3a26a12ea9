"""Content-addressed synthesis result cache.

Pass@k evaluation re-synthesizes aggressively: seeded drafts frequently
produce *identical* scripts (and the Table III harness re-runs the Table IV
baseline script per design).  Synthesis is deterministic — same RTL, same
script, same library, same starting constraints always yield the same
result — so one content-addressed lookup replaces a full
elaborate/map/optimize/time run.

Keys are SHA-256 over (library digest, design name, RTL source, top module,
script text); the digest (:meth:`TechLibrary.digest`) covers every cell
value, so two same-named libraries with different cells never share a
result.  For callers that already hold an elaborated netlist,
:meth:`Netlist.fingerprint` supplies the netlist half of the key instead of
the RTL text.  Values are deep copies of :class:`ScriptResult`, so cached
transcripts/QoR can never be mutated by one caller into another.

The default cache is process-global, LRU-bounded and thread-safe (the
parallel evaluation executor hits it from worker threads).  Set
``REPRO_SYNTH_CACHE=0`` to disable caching without touching call sites.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import os
import pickle
import threading
from collections import OrderedDict

from .. import obs, perf
from ..hdl.elaborator import elaborate
from ..hdl.netlist import Netlist
from ..parallel import clear_worker_caches
from .dcshell import DCShell, ScriptResult
from .library import TechLibrary

__all__ = [
    "SynthesisCache",
    "FrontendCache",
    "default_cache",
    "frontend_cache",
    "cache_enabled",
    "frontend_cache_mode",
    "synth_cache_mode",
    "synthesis_key",
    "frontend_key",
    "synthesize_cached",
    "elaborate_cached",
    "netlist_cache_stats",
    "clear_caches",
    "atomic_pickle_write",
]


def synth_cache_mode() -> tuple[bool, str | None]:
    """Parse ``REPRO_SYNTH_CACHE`` into ``(enabled, disk_dir)``.

    Off-values (``0``/``false``/``no``/``off``) disable the synthesis
    cache entirely; unset or on-values keep the in-memory layer only; any
    other string is a directory path enabling a persistent pickle layer
    shared across processes — the process-backend worker pool reads and
    writes one store, so a design synthesized by any worker is a hit for
    every other.
    """
    raw = os.environ.get("REPRO_SYNTH_CACHE", "1").strip()
    lowered = raw.lower()
    if lowered in ("0", "false", "no", "off"):
        return False, None
    if lowered in ("", "1", "true", "yes", "on"):
        return True, None
    return True, raw


def cache_enabled() -> bool:
    """Whether the synthesis cache is active (``REPRO_SYNTH_CACHE`` gate)."""
    return synth_cache_mode()[0]


#: Monotonic suffix so concurrent writers in one process never share a
#: temp file (pid alone is not unique across threads).
_TMP_IDS = itertools.count(1)


def atomic_pickle_write(path: str, obj) -> bool:
    """Write ``pickle(obj)`` to ``path`` atomically; False on any OS error.

    A unique temp name (pid + thread id + counter) plus ``os.replace``
    guarantees readers — worker processes racing on one on-disk cache
    directory — only ever observe complete entries, never torn bytes:
    either the old file, the new file, or a miss.
    """
    tmp = (
        f"{path}.{os.getpid()}.{threading.get_ident()}.{next(_TMP_IDS)}.tmp"
    )
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(tmp, "wb") as fh:
            pickle.dump(obj, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return False
    return True


def atomic_pickle_read(path: str, expected_type: type):
    """Load a pickled cache entry; None on missing/torn/foreign content."""
    try:
        with open(path, "rb") as fh:
            obj = pickle.load(fh)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError):
        return None
    return obj if isinstance(obj, expected_type) else None


def synthesis_key(
    library_digest: str,
    design_name: str,
    content: str,
    top: str | None,
    script: str,
) -> str:
    """Content address for one (design, script) synthesis run.

    ``library_digest`` is :meth:`TechLibrary.digest` of the target
    library.  ``content`` is either the RTL source or a netlist
    fingerprint — any stable digest of what ``read_verilog`` will load.
    """
    h = hashlib.sha256()
    for part in (library_digest, design_name, content, top or "", script):
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


class SynthesisCache:
    """Thread-safe LRU cache of :class:`ScriptResult` by content key.

    An optional on-disk pickle layer (directory-valued
    ``REPRO_SYNTH_CACHE``) backs the in-memory LRU: entries written by
    any process are hits for every other.  Disk writes are atomic
    (:func:`atomic_pickle_write`), so concurrent worker processes never
    read torn entries.
    """

    def __init__(self, max_entries: int = 512) -> None:
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, ScriptResult] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.disk_writes = 0

    def _disk_path(self, disk_dir: str, key: str) -> str:
        return os.path.join(disk_dir, f"{key}.result.pkl")

    def get(self, key: str, disk_dir: str | None = None) -> ScriptResult | None:
        with self._lock:
            result = self._entries.get(key)
            if result is not None:
                self._entries.move_to_end(key)
                self.hits += 1
        if result is not None:
            perf.incr("synthcache.hit")
            return copy.deepcopy(result)
        if disk_dir is not None:
            loaded = atomic_pickle_read(self._disk_path(disk_dir, key), ScriptResult)
            if loaded is not None:
                with self._lock:
                    self.hits += 1
                    self.disk_hits += 1
                    self._entries[key] = loaded
                    self._trim()
                perf.incr("synthcache.hit")
                perf.incr("synthcache.disk_hit")
                return copy.deepcopy(loaded)
        with self._lock:
            self.misses += 1
        perf.incr("synthcache.miss")
        return None

    def put(self, key: str, result: ScriptResult, disk_dir: str | None = None) -> None:
        with self._lock:
            self._entries[key] = copy.deepcopy(result)
            self._entries.move_to_end(key)
            self._trim()
        if disk_dir is not None:
            if atomic_pickle_write(self._disk_path(disk_dir, key), result):
                with self._lock:
                    self.disk_writes += 1
                perf.incr("synthcache.disk_write")

    def _trim(self) -> None:
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.disk_hits = 0
            self.disk_writes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "capacity": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "hit_ratio": round(self.hits / lookups, 6) if lookups else 0.0,
                "disk_hits": self.disk_hits,
                "disk_writes": self.disk_writes,
            }


_DEFAULT = SynthesisCache()


def frontend_cache_mode() -> tuple[bool, str | None]:
    """Parse ``REPRO_FRONTEND_CACHE`` into ``(enabled, disk_dir)``.

    Off-values (``0``/``false``/``no``/``off``) disable the frontend cache;
    unset or on-values keep the in-memory layer only; any other string is a
    directory path enabling the persistent pickle layer (shared across
    processes — the table3/table4/pass@k harnesses recompile the same
    designs every run).
    """
    raw = os.environ.get("REPRO_FRONTEND_CACHE", "1").strip()
    lowered = raw.lower()
    if lowered in ("0", "false", "no", "off"):
        return False, None
    if lowered in ("", "1", "true", "yes", "on"):
        return True, None
    return True, raw


def frontend_key(source: str, top: str | None, params: dict | None = None) -> str:
    """Content address of one elaboration: RTL source + top + parameters."""
    digest = hashlib.sha256()
    digest.update(source.encode())
    digest.update(b"\x00")
    digest.update((top or "").encode())
    if params:
        digest.update(b"\x00")
        digest.update(repr(sorted(params.items())).encode())
    return digest.hexdigest()


class FrontendCache:
    """Content-addressed cache of elaborated netlists.

    Two layers: an in-memory LRU of pristine netlists (handed out as
    clones so downstream optimization can never corrupt an entry), and an
    optional on-disk pickle layer keyed by the same content address.
    Disk writes are atomic (tmp + rename), so concurrent processes racing
    on the same design at worst both write the same bytes.
    """

    def __init__(self, max_entries: int = 64) -> None:
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, Netlist] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.disk_writes = 0

    def _disk_path(self, disk_dir: str, key: str) -> str:
        return os.path.join(disk_dir, f"{key}.netlist.pkl")

    def get(self, key: str, disk_dir: str | None = None) -> Netlist | None:
        """A private clone of the cached netlist, or None on miss."""
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:
                self._entries.move_to_end(key)
                self.hits += 1
        if hit is not None:
            perf.incr("frontend.hit")
            return hit.clone()
        if disk_dir is not None:
            netlist = self._disk_get(key, disk_dir)
            if netlist is not None:
                with self._lock:
                    self.hits += 1
                    self.disk_hits += 1
                    self._entries[key] = netlist
                    self._trim()
                perf.incr("frontend.hit")
                perf.incr("frontend.disk_hit")
                return netlist.clone()
        with self._lock:
            self.misses += 1
        perf.incr("frontend.miss")
        return None

    def put(self, key: str, netlist: Netlist, disk_dir: str | None = None) -> None:
        with self._lock:
            self._entries[key] = netlist.clone()
            self._entries.move_to_end(key)
            self._trim()
        if disk_dir is not None:
            self._disk_put(key, netlist, disk_dir)

    def _trim(self) -> None:
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def _disk_get(self, key: str, disk_dir: str) -> Netlist | None:
        return atomic_pickle_read(self._disk_path(disk_dir, key), Netlist)

    def _disk_put(self, key: str, netlist: Netlist, disk_dir: str) -> None:
        if atomic_pickle_write(self._disk_path(disk_dir, key), netlist):
            self.disk_writes += 1
            perf.incr("frontend.disk_write")

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.disk_hits = 0
            self.disk_writes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        enabled, disk_dir = frontend_cache_mode()
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "capacity": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "hit_ratio": round(self.hits / lookups, 6) if lookups else 0.0,
                "disk_hits": self.disk_hits,
                "disk_writes": self.disk_writes,
                "disk_dir": disk_dir,
            }


_FRONTEND = FrontendCache()


def frontend_cache() -> FrontendCache:
    """The process-global frontend (elaborated netlist) cache."""
    return _FRONTEND


def netlist_cache_stats() -> dict:
    """Hit/miss/occupancy stats, shaped like :meth:`SynthesisCache.stats`.

    Kept as the ``netlist`` stats-provider shape from PR 1; the frontend
    cache is its successor and reports the same counters.
    """
    stats = _FRONTEND.stats()
    return {
        "entries": stats["entries"],
        "hits": stats["hits"],
        "misses": stats["misses"],
    }


def elaborate_cached(
    source: str, top: str | None = None, params: dict | None = None
) -> Netlist:
    """Elaborate RTL, serving repeated (source, top, params) from the cache.

    Honors both cache gates: ``REPRO_SYNTH_CACHE=0`` (the blanket synthesis
    cache switch) and ``REPRO_FRONTEND_CACHE`` (off / memory-only / disk
    directory) — see :func:`frontend_cache_mode`.
    """
    enabled, disk_dir = frontend_cache_mode()
    if not (cache_enabled() and enabled):
        with obs.span("synth.elaborate", cached=False):
            return elaborate(source, top, params)
    key = frontend_key(source, top, params)
    hit = _FRONTEND.get(key, disk_dir)
    if hit is not None:
        perf.incr("netcache.hit")
        return hit
    perf.incr("netcache.miss")
    with obs.span("synth.elaborate", cached=False):
        netlist = elaborate(source, top, params)
    _FRONTEND.put(key, netlist, disk_dir)
    return netlist


def default_cache() -> SynthesisCache:
    """The process-global cache shared by all evaluation runners."""
    return _DEFAULT


def clear_caches() -> None:
    """Empty every process-global cache (benchmark cold-start helper).

    Live process-pool workers empty theirs too, so the next map over a
    warm pool starts as cold as this process.
    """
    _DEFAULT.clear()
    _FRONTEND.clear()
    clear_worker_caches()


# Surface the caches in ``perf.snapshot()["caches"]``.  ``netlist`` keeps
# the PR 1 shape; ``frontend`` adds the disk-layer counters.
perf.register_stats_provider("synthesis", _DEFAULT.stats)
perf.register_stats_provider("netlist", netlist_cache_stats)
perf.register_stats_provider("frontend", _FRONTEND.stats)


def synthesize_cached(
    library: TechLibrary | None,
    design_name: str,
    verilog: str,
    script: str,
    top: str | None = None,
    cache: SynthesisCache | None = None,
) -> ScriptResult:
    """Run ``script`` against ``verilog`` in a fresh shell, with caching.

    Equivalent to building a :class:`DCShell`, registering the design and
    calling :meth:`DCShell.run_script` — except identical (library, design,
    script) triples are served from the cache.  Always uses a fresh shell,
    so results are independent of any prior shell state.  A directory-
    valued ``REPRO_SYNTH_CACHE`` adds a cross-process on-disk layer (see
    :func:`synth_cache_mode`).
    """
    use_cache, disk_dir = synth_cache_mode()
    # `cache or _DEFAULT` would discard an *empty* cache (len() == 0 is falsy).
    store = _DEFAULT if cache is None else cache
    with obs.span("synth.synthesize", design=design_name) as sp:
        shell = DCShell(library=library)
        key = None
        if use_cache:
            key = synthesis_key(shell.library.digest(), design_name, verilog, top, script)
            cached = store.get(key, disk_dir)
            if cached is not None:
                sp.set_attribute("cached", True)
                return cached
        sp.set_attribute("cached", False)
        shell.add_design(design_name, verilog, top=top)
        result = shell.run_script(script)
        sp.set_attribute("success", result.success)
        if not result.success:
            obs.warning("synth.script_failed", design=design_name, error=result.error)
        if use_cache and key is not None:
            store.put(key, result, disk_dir)
        return result
