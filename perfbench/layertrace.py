"""Per-layer self time, measured by wrapping each layer's public functions.

Nothing in ``src/`` is edited: :class:`LayerTracer` replaces functions
where their callers look them up.  A module-level function is rebound in
every loaded ``repro`` module that imported it by name (for example
``repro.core.chatls.parallel_map`` and ``repro.synth.cache.elaborate``);
a method is replaced on its class.

Each thread keeps a stack of open wrapped calls.  When a call returns,
its duration is charged to its caller as child time, and the call's own
*self time* (duration minus child time) to its layer, so self times of
nested layers never double count.  *Wait* targets (a future's
``result()``, the event loop's ``select``) are idle time: their duration
is taken out of the caller's self time and reported on its own.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict


#: Marks a method a class inherits, so uninstalling deletes the override.
_INHERITED = object()


def _length(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


def _argument(args: tuple):
    """The first argument after ``self`` (or after the mapped function)."""
    return args[1] if len(args) > 1 else None


def _graphs(circuit) -> int:
    return _length(getattr(circuit, "module_graphs", ()))


def _pass_changes(args, result) -> tuple[str, int]:
    return "synth.pass.changes", getattr(result, "changes", 0)


_ENCODER = "repro.mentor.embeddings:CircuitEncoder."
_RAG = "repro.rag.synthrag:SynthRAG."
_PASSES = ("size_gates", "retime", "buffer_high_fanout", "recover_area",
           "resynthesize_adders", "balance_chains")

#: (layer, targets, count) — ``count(args, result)`` returns the
#: (counter name, amount) added per call.
LAYERS: tuple = (
    ("hdl.parse", ["repro.hdl.parser:parse_source"], None),
    ("hdl.elaborate", ["repro.hdl.elaborator:elaborate"], None),
    ("synth.techmap", [f"repro.synth.techmap:{name}" for name in (
        "map_to_library", "cleanup", "map_complex_gates", "merge_inverters")], None),
    *(
        (f"synth.pass.{name}", [f"repro.synth.optimizer:{name}"], _pass_changes)
        for name in _PASSES
    ),
    ("synth.pass.explore_sizing", ["repro.synth.explore:explore_sizing"], _pass_changes),
    ("synth.timing", [f"repro.synth.timing:TimingEngine.{name}" for name in (
        "__init__", "analyze", "full_analyze", "trial_cps", "trial_cps_batch",
        "trial_metrics_batch")], None),
    ("synth.power", ["repro.synth.power:PowerAnalyzer.analyze"], None),
    ("synth.dcshell", ["repro.synth.dcshell:DCShell.run_script"], None),
    ("synth.cache", ["repro.synth.cache:synthesize_cached",
                     "repro.synth.cache:elaborate_cached"], None),
    ("mentor.analyze", ["repro.mentor.analyzer:analyze_design"], None),
    ("mentor.circuit_graph", ["repro.mentor.circuit_graph:build_circuit_graph"], None),
    ("gnn.embed", [_ENCODER + "embed_module", _ENCODER + "embed_modules",
                   _ENCODER + "embed_design"],
     lambda args, result: ("gnn.embed.graphs", _graphs(_argument(args)))),
    ("gnn.embed", [_ENCODER + "embed_designs"],
     lambda args, result: (
         "gnn.embed.graphs", sum(map(_graphs, _argument(args) or ())))),
    ("rag.build", [_RAG + "build"], None),
    ("rag.retrieve", [_RAG + name for name in (
        "retrieve_strategies", "similar_designs", "similar_modules", "module_code",
        "cell_info", "cypher", "manual", "command_exists")],
     lambda args, result: ("rag.retrieve.queries", 1)),
    ("rag.retrieve", [_RAG + "manual_batch", _RAG + "retrieve_strategies_batch"],
     lambda args, result: ("rag.retrieve.queries", _length(_argument(args)))),
    ("textembed.embed", [f"repro.textembed.hashing:HashingEmbedder.{name}"
                         for name in ("embed", "embed_batch", "fit_idf")], None),
    # FlatIndex only: REPRO_ANN (the HNSW index) is refused as a non-default.
    ("vectorstore.search", ["repro.vectorstore.flat:FlatIndex.search",
                            "repro.vectorstore.flat:FlatIndex.search_batch"], None),
    ("vectorstore.add", ["repro.vectorstore.flat:FlatIndex.add",
                         "repro.vectorstore.flat:FlatIndex.add_batch"], None),
    ("llm.complete", ["repro.llm.simulated:SimulatedLLM.complete"], None),
    ("core.generator", [f"repro.core.generator:Generator.{name}" for name in (
        "draft", "retrieve_for_draft", "draft_from_retrieval")], None),
    ("core.synthexpert", [f"repro.core.synthexpert:SynthExpert.{name}" for name in (
        "refine", "plan", "retrieve", "apply")], None),
    ("core.chatls", [f"repro.core.chatls:ChatLS.{name}" for name in (
        "customize", "customize_and_evaluate", "customize_pass_at_k")], None),
    ("designs.add_design", ["repro.designs.database:ExpertDatabase.add_design"], None),
    ("eval.table4", ["repro.eval.harness:run_table4_baseline"], None),
    ("serve", ["repro.serve.engine:ServeEngine.__init__",
               "repro.serve.engine:ServeEngine.run"], None),
    ("parallel.map", ["repro.parallel:parallel_map"],
     lambda args, result: ("parallel.map.tasks", _length(_argument(args)))),
)

#: Idle time: excluded from every self time, reported as ``<name>.wait_s``.
WAITS: tuple = (
    ("parallel", ["concurrent.futures:Future.result"]),
    ("serve.loop", ["selectors:DefaultSelector.select"]),
)


def layer_names() -> list[str]:
    return list(dict.fromkeys(layer for layer, _, _ in LAYERS))


def _resolve(target: str):
    """(owner, attribute name, raw attribute) for ``module:Qual.name``."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    # getattr on a class yields plain functions for inherited methods too;
    # only a classmethod needs the raw descriptor from the defining class.
    raw = getattr(owner, name)
    if isinstance(owner, type) and isinstance(owner.__dict__.get(name), classmethod):
        raw = owner.__dict__[name]
    return owner, name, raw


class LayerTracer:
    """Installs the wrappers and accumulates self time per layer."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    # -- accounting -----------------------------------------------------------

    def reset(self) -> None:
        with self._lock:
            self.self_s: dict[str, float] = defaultdict(float)
            self.calls: dict[str, int] = defaultdict(int)
            self.counts: dict[str, int] = defaultdict(int)
            self.wait_s: dict[str, float] = defaultdict(float)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, layer: str, count, wait: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0.0)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with tracer._lock:
                    if wait:
                        tracer.wait_s[layer] += elapsed - child
                    else:
                        tracer.self_s[layer] += elapsed - child
                        tracer.calls[layer] += 1
                        if count is not None:
                            name, amount = count(args, result)
                            tracer.counts[name] += amount

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for layer, targets, count in LAYERS:
            for target in targets:
                self._patch(target, layer, count, wait=False)
        for name, targets in WAITS:
            for target in targets:
                self._patch(target, name, None, wait=True)

    def _patch(self, target: str, layer: str, count, wait: bool) -> None:
        owner, name, raw = _resolve(target)
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, layer, count, wait))
            else:
                wrapped = self._wrap(raw, layer, count, wait)
            self._set(owner, name, wrapped)
            return
        # A module-level function: rebind every name callers imported it by.
        wrapped = self._wrap(raw, layer, count, wait)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is raw:
                    self._set(module, attr, wrapped)

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__.get(name, _INHERITED)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            if original is _INHERITED:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._patches.clear()

    # -- reporting ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Copies of the per-layer self times, calls, counts and waits."""
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "wait_s": dict(self.wait_s),
            }
