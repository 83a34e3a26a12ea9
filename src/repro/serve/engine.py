"""Async micro-batched serving engine for ChatLS customization.

``ServeEngine`` decomposes :meth:`ChatLS.customize_and_evaluate` into the
explicit staged pipeline of :mod:`repro.serve.state` and runs many
sessions concurrently on one event loop.  Each stage owns a
:class:`MicroBatcher` — a coalescing queue whose worker collects every
session that arrives within the batching window (``REPRO_SERVE_BATCH_MAX``
items or ``REPRO_SERVE_BATCH_WAIT_MS`` of waiting, whichever first) and
processes them as **one** kernel call:

* ``analyze``   — per-session design analysis fans out over
  :func:`repro.parallel.parallel_map_async`; the GNN design embeddings
  for the whole batch run as a single grouped forward
  (:meth:`CircuitEncoder.embed_designs`).
* ``retrieve``  — all sessions' strategy lookups become one stacked
  ``search_batch`` kNN (per-session rerank characteristic preserved),
  and all requirement-text manual lookups another.
* ``draft``     — per-session prompt composition + LLM drafting from the
  already-retrieved grounding (no retriever state touched).
* ``revise``    — SynthExpert plans every session's thought steps, then
  every step query across the whole batch goes through one batched
  manual retrieval before the per-step revisions are applied.
* ``synthesize``— scripts fan out over the process pool (or thread
  executor) via ``parallel_map_async``, costliest RTL first.

Stage kernels are synchronous; they run in a small per-engine thread
executor so different stages overlap in wall clock while the event loop
keeps coalescing arrivals.  Results are field-for-field identical to a
sequential ``customize_and_evaluate`` loop over the same requests — the
engine changes the *schedule*, never the computation.

After every completed stage the session's :class:`ChainState` is
checkpointed (when ``checkpoint_dir`` is set); :meth:`ServeEngine.resume`
reloads checkpoints and runs only the stages that have not completed.
"""

from __future__ import annotations

import asyncio
import os
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Awaitable, Callable, Iterable, Sequence

import numpy as np

from .. import obs, perf
from ..core.chatls import ChatLS, CustomizationResult, _blank_analysis
from ..core.generator import DraftRetrieval, Generator
from ..core.requirements import parse_requirement
from ..core.synthexpert import SynthExpert
from ..core.thoughts import CoTTrace
from ..mentor.analyzer import analyze_design
from ..parallel import parallel_map_async
from ..rag.synthrag import SynthRAG
from ..synth.cache import synthesize_cached
from .state import DONE, STAGES, ChainState, ServeRequest

__all__ = ["BatchPolicy", "MicroBatcher", "ServeEngine"]

#: Live engines, for the collect-time queue-depth/inflight gauges.
_LIVE_ENGINES: "weakref.WeakSet[ServeEngine]" = weakref.WeakSet()

#: Batch-size histogram buckets (sessions per coalesced kernel call).
_BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class BatchPolicy:
    """When a stage queue flushes: size cap or wait deadline, whichever first.

    ``batch_max`` bounds the coalesced batch; ``batch_wait_ms`` is how
    long the first item in a forming batch waits for company.  ``0`` ms
    still drains items that are *already* queued (pure size-based
    coalescing with no added latency).
    """

    batch_max: int = 16
    batch_wait_ms: float = 2.0

    def __post_init__(self) -> None:
        if self.batch_max < 1:
            raise ValueError("REPRO_SERVE_BATCH_MAX must be >= 1")
        if self.batch_wait_ms < 0:
            raise ValueError("REPRO_SERVE_BATCH_WAIT_MS must be >= 0")

    @classmethod
    def from_env(cls) -> "BatchPolicy":
        """Policy from ``REPRO_SERVE_BATCH_MAX`` / ``REPRO_SERVE_BATCH_WAIT_MS``."""
        kwargs = {}
        raw_max = os.environ.get("REPRO_SERVE_BATCH_MAX", "").strip()
        if raw_max:
            try:
                kwargs["batch_max"] = int(raw_max)
            except ValueError:
                raise ValueError(
                    f"REPRO_SERVE_BATCH_MAX must be an integer, got {raw_max!r}"
                )
        raw_wait = os.environ.get("REPRO_SERVE_BATCH_WAIT_MS", "").strip()
        if raw_wait:
            try:
                kwargs["batch_wait_ms"] = float(raw_wait)
            except ValueError:
                raise ValueError(
                    f"REPRO_SERVE_BATCH_WAIT_MS must be a number, got {raw_wait!r}"
                )
        return cls(**kwargs)


class MicroBatcher:
    """One stage's coalescing queue + worker coroutine.

    Sessions ``submit`` their state and await the result; the worker
    forms batches under the :class:`BatchPolicy` and hands each batch to
    the stage's async ``process`` callable.  A processor exception
    propagates to every session in that batch (serial-equivalent: each
    of those sessions would have hit the same error alone).
    """

    def __init__(
        self,
        name: str,
        process: Callable[[list[ChainState]], Awaitable[list[ChainState]]],
        policy: BatchPolicy,
    ) -> None:
        self.name = name
        self.process = process
        self.policy = policy
        self.queue: asyncio.Queue = asyncio.Queue()
        self.batch_count = 0
        self.item_count = 0
        self.max_batch = 0
        self._task: asyncio.Task | None = None

    def start(self) -> None:
        self._task = asyncio.create_task(self._worker(), name=f"serve-{self.name}")

    async def stop(self) -> None:
        """Stop the worker after it drains everything already queued."""
        if self._task is None:
            return
        await self.queue.put(None)
        await self._task
        self._task = None

    def depth(self) -> int:
        return self.queue.qsize()

    async def submit(self, state: ChainState) -> ChainState:
        future = asyncio.get_running_loop().create_future()
        await self.queue.put((state, future))
        return await future

    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            first = await self.queue.get()
            if first is None:
                return
            batch = [first]
            stopping = False
            deadline = loop.time() + self.policy.batch_wait_ms / 1000.0
            while len(batch) < self.policy.batch_max:
                timeout = deadline - loop.time()
                if timeout <= 0:
                    # Window elapsed: still take whatever is already here.
                    try:
                        item = self.queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                else:
                    try:
                        item = await asyncio.wait_for(self.queue.get(), timeout)
                    except asyncio.TimeoutError:
                        break
                if item is None:
                    stopping = True
                    break
                batch.append(item)
            await self._run_batch(batch)
            if stopping:
                return

    async def _run_batch(
        self, batch: list[tuple[ChainState, asyncio.Future]]
    ) -> None:
        from ..obs import metrics as obs_metrics

        states = [state for state, _ in batch]
        started = time.perf_counter()
        try:
            results = await self.process(states)
        except BaseException as exc:
            for _, future in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        finally:
            perf.add_time(f"serve.{self.name}", time.perf_counter() - started)
        self.batch_count += 1
        self.item_count += len(batch)
        self.max_batch = max(self.max_batch, len(batch))
        obs_metrics.histogram(
            "repro_serve_batch_size",
            "Sessions coalesced per serve-stage kernel call.",
            buckets=_BATCH_BUCKETS,
        ).observe(len(batch), stage=self.name)
        for (_, future), result in zip(batch, results):
            if not future.done():
                future.set_result(result)


class ServeEngine:
    """Cross-request micro-batched execution of the ChatLS pipeline."""

    def __init__(
        self,
        chatls: ChatLS,
        policy: BatchPolicy | None = None,
        checkpoint_dir: str | None = None,
        jobs: int | None = None,
        backend: str | None = None,
    ) -> None:
        self.chatls = chatls
        self.policy = policy or BatchPolicy.from_env()
        self.checkpoint_dir = checkpoint_dir
        self.jobs = jobs
        self.backend = backend
        #: Shared, read-only retrieval stack for every session: the
        #: manual index, reranker and library graph are deterministic
        #: functions of (corpus, llm, library), so sharing them cannot
        #: change any session's result — it only deletes per-request
        #: rebuild cost.  The customize pipeline never touches the
        #: per-design circuit store, so ``circuit=None`` is safe.
        self.rag = SynthRAG.build(
            chatls.database, circuit=None, library=chatls.library, llm=chatls.llm
        )
        self.inflight = 0
        self.batchers: dict[str, MicroBatcher] = {}
        #: Test hook: called as ``fn(state, stage)`` after each stage's
        #: checkpoint is written (crash-injection point for resume tests).
        self._after_stage: Callable[[ChainState, str], None] | None = None
        self._executor: ThreadPoolExecutor | None = None
        _LIVE_ENGINES.add(self)

    # -- public API ------------------------------------------------------------

    def run(
        self,
        requests: Sequence[ServeRequest],
        arrival_delays: Sequence[float] | None = None,
    ) -> list[CustomizationResult]:
        """Serve every request; results in request order.

        ``arrival_delays`` optionally staggers session submission
        (seconds per request) to model/replay arrival patterns; omitted,
        all sessions arrive at once and coalesce maximally.
        """
        states = []
        for index, request in enumerate(requests):
            if request.session_id is None:
                request.session_id = f"s{index:04d}"
            states.append(ChainState(request=request))
        return self._drive(states, arrival_delays)

    def resume(self, checkpoints: Iterable[str]) -> list[CustomizationResult]:
        """Reload checkpointed sessions and run only their remaining stages."""
        states = [ChainState.load(path) for path in checkpoints]
        return self._drive(states, None)

    @property
    def stage_sessions(self) -> dict[str, int]:
        """Sessions processed per stage in the most recent run/resume."""
        return {name: batcher.item_count for name, batcher in self.batchers.items()}

    # -- orchestration ---------------------------------------------------------

    def _drive(
        self,
        states: list[ChainState],
        arrival_delays: Sequence[float] | None,
    ) -> list[CustomizationResult]:
        if not states:
            return []
        if arrival_delays is not None and len(arrival_delays) != len(states):
            raise ValueError("arrival_delays length must match request count")
        started = time.perf_counter()
        results = asyncio.run(self._serve(states, arrival_delays))
        elapsed = time.perf_counter() - started
        failures = [r for r in results if isinstance(r, BaseException)]
        if not failures:
            obs.record_run(
                "serve",
                extra={
                    "sessions": len(states),
                    "elapsed_s": round(elapsed, 4),
                    "throughput_sessions_per_s": round(len(states) / elapsed, 4)
                    if elapsed > 0
                    else None,
                    "policy": {
                        "batch_max": self.policy.batch_max,
                        "batch_wait_ms": self.policy.batch_wait_ms,
                    },
                    "stages": {
                        name: {
                            "batches": b.batch_count,
                            "sessions": b.item_count,
                            "max_batch": b.max_batch,
                        }
                        for name, b in self.batchers.items()
                    },
                },
            )
            return results
        raise failures[0]

    async def _serve(self, states, arrival_delays):
        self.batchers = {
            "analyze": MicroBatcher("analyze", self._analyze_batch, self.policy),
            "retrieve": MicroBatcher("retrieve", self._retrieve_batch, self.policy),
            "draft": MicroBatcher("draft", self._draft_batch, self.policy),
            "revise": MicroBatcher("revise", self._revise_batch, self.policy),
            "synthesize": MicroBatcher(
                "synthesize", self._synthesize_batch, self.policy
            ),
        }
        # One executor thread per stage: blocking kernels from different
        # stages overlap; batches within one stage serialize naturally.
        self._executor = ThreadPoolExecutor(
            max_workers=len(STAGES), thread_name_prefix="serve-stage"
        )
        for batcher in self.batchers.values():
            batcher.start()
        try:
            tasks = [
                asyncio.create_task(
                    self._run_session(
                        state,
                        arrival_delays[index] if arrival_delays else 0.0,
                    ),
                    name=f"serve-session-{state.request.session_id}",
                )
                for index, state in enumerate(states)
            ]
            # return_exceptions so every session settles before teardown
            # (a batch-mate's failure must not strand queued sessions).
            results = await asyncio.gather(*tasks, return_exceptions=True)
        finally:
            for batcher in self.batchers.values():
                await batcher.stop()
            self._executor.shutdown(wait=True)
            self._executor = None
        return list(results)

    async def _run_session(self, state: ChainState, delay: float):
        if delay:
            await asyncio.sleep(delay)
        self.inflight += 1
        try:
            with obs.span(
                "serve.session",
                session=state.request.session_id,
                design=state.request.design_name,
                resume_from=state.stage,
            ) as sp:
                while state.stage != DONE:
                    stage = state.stage
                    state = await self.batchers[stage].submit(state)
                    self._checkpoint(state)
                    if self._after_stage is not None:
                        self._after_stage(state, stage)
                sp.set_attribute("stages_run", len(state.completed))
            perf.incr("serve.sessions")
            return state.result()
        finally:
            self.inflight -= 1

    def _checkpoint(self, state: ChainState) -> None:
        if self.checkpoint_dir is None:
            return
        state.save(
            os.path.join(self.checkpoint_dir, f"{state.request.session_id}.ckpt")
        )

    def _run_blocking(self, fn):
        return asyncio.get_running_loop().run_in_executor(self._executor, fn)

    # -- stage kernels ---------------------------------------------------------

    async def _analyze_batch(self, states: list[ChainState]) -> list[ChainState]:
        chatls = self.chatls
        for state in states:
            if state.requirement is None:
                raw = state.request.requirement
                state.requirement = (
                    parse_requirement(raw) if isinstance(raw, str) else raw
                )
        analyses = await parallel_map_async(
            _analyze_task,
            [
                (
                    state.request.verilog,
                    state.request.design_name,
                    state.request.top,
                    state.request.clock_period,
                    chatls.library,
                )
                for state in states
            ],
            jobs=self.jobs,
            backend=self.backend,
            label="serve-analyze",
            cost=lambda task: len(task[0]),
            executor=self._executor,
        )
        # Cross-session coalescing point: every pending session's module
        # graphs go through ONE grouped GNN forward.
        embeddings = await self._run_blocking(
            lambda: chatls.database.encoder.embed_designs(
                [analysis.circuit for analysis in analyses]
            )
        )
        for state, analysis, embedding in zip(states, analyses, embeddings):
            state.analysis = analysis
            state.design_embedding = embedding
            state.advance()
        return states

    async def _retrieve_batch(self, states: list[ChainState]) -> list[ChainState]:
        chatls = self.chatls

        def kernel():
            stacked = np.stack([state.design_embedding for state in states])
            # Sequential parity: _prepare only points the Eq. 5 rerank at
            # the requirement's characteristic when use_rag is on.
            characteristics = [
                state.requirement.rerank_characteristic if chatls.use_rag else "cps"
                for state in states
            ]
            strategy_rows = self.rag.retrieve_strategies_batch(
                stacked, k=2, characteristics=characteristics
            )
            manual_rows = self.rag.manual_batch(
                [state.requirement.text for state in states], k=2
            )
            return strategy_rows, manual_rows

        strategy_rows, manual_rows = await self._run_blocking(kernel)
        for state, strategies, manual in zip(states, strategy_rows, manual_rows):
            state.retrieval = DraftRetrieval(
                strategy_hits=strategies, manual_hits=manual
            )
            state.advance()
        return states

    async def _draft_batch(self, states: list[ChainState]) -> list[ChainState]:
        chatls = self.chatls

        def kernel():
            generator = Generator(chatls.llm, self.rag)
            drafts = []
            for state in states:
                analysis = (
                    state.analysis
                    if chatls.use_rag
                    else _blank_analysis(state.analysis)
                )
                drafts.append(
                    generator.draft_from_retrieval(
                        state.requirement,
                        state.request.baseline_script,
                        state.request.tool_report,
                        analysis,
                        state.retrieval,
                        seed=state.request.seed,
                    )
                )
            return drafts

        drafts = await self._run_blocking(kernel)
        for state, draft in zip(states, drafts):
            state.draft = draft
            state.advance()
        return states

    async def _revise_batch(self, states: list[ChainState]) -> list[ChainState]:
        chatls = self.chatls

        def kernel():
            expert = SynthExpert(chatls.llm, self.rag)
            plans: list = []
            query_counts: list[int] = []
            all_queries: list[str] = []
            for state in states:
                if not chatls.use_synthexpert:
                    plans.append(None)
                    query_counts.append(0)
                    continue
                plan = expert.plan(state.draft.script)
                queries = plan.queries()
                plans.append(plan)
                query_counts.append(len(queries))
                all_queries.extend(queries)
            # Cross-session coalescing point: every step query from every
            # session in the batch goes through ONE stacked manual search.
            if len(all_queries) > 1:
                hit_rows = self.rag.manual_batch(all_queries, k=2)
            elif all_queries:
                hit_rows = [self.rag.manual(all_queries[0], k=2)]
            else:
                hit_rows = []
            out = []
            offset = 0
            for state, plan, count in zip(states, plans, query_counts):
                if plan is None:
                    out.append((state.draft.script, CoTTrace()))
                else:
                    refined = expert.apply(
                        plan, hit_rows[offset:offset + count], state.analysis
                    )
                    out.append((refined.script, refined.trace))
                offset += count
            return out

        revised = await self._run_blocking(kernel)
        for state, (script, trace) in zip(states, revised):
            state.script = script
            state.trace = trace
            state.advance()
        return states

    async def _synthesize_batch(self, states: list[ChainState]) -> list[ChainState]:
        runs = await parallel_map_async(
            _synthesize_task,
            [
                (
                    self.chatls.library,
                    state.request.design_name,
                    state.request.verilog,
                    state.script,
                    state.request.top,
                )
                for state in states
            ],
            jobs=self.jobs,
            backend=self.backend,
            label="serve-synthesize",
            cost=lambda task: len(task[2]),
            executor=self._executor,
        )
        for state, run in zip(states, runs):
            state.executable = run.success
            state.error = run.error
            state.qor = run.qor
            state.advance()
        return states


# -- module-level stage tasks (picklable for the process backend) --------------


def _analyze_task(task):
    """One session's design analysis (module-level so it crosses processes)."""
    verilog, design_name, top, clock_period, library = task
    return analyze_design(
        verilog, design_name, top=top, clock_period=clock_period, library=library
    )


def _synthesize_task(task):
    """One session's synthesis run (module-level so it crosses processes)."""
    library, design_name, verilog, script, top = task
    return synthesize_cached(library, design_name, verilog, script, top=top)


# -- live gauges ---------------------------------------------------------------


def _serve_metric_families():
    """Queue-depth and inflight-session gauges over every live engine."""
    from ..obs import metrics as obs_metrics

    depth = obs_metrics.MetricFamily(
        "repro_serve_queue_depth", "gauge",
        "Sessions waiting in each serve stage's micro-batch queue.",
    )
    inflight = obs_metrics.MetricFamily(
        "repro_serve_inflight_sessions", "gauge",
        "Sessions currently inside the serving pipeline.",
    )
    per_stage: dict[str, int] = {}
    total = 0
    for engine in list(_LIVE_ENGINES):
        total += engine.inflight
        for name, batcher in engine.batchers.items():
            per_stage[name] = per_stage.get(name, 0) + batcher.depth()
    for name in STAGES:
        if name in per_stage:
            depth.add(per_stage[name], stage=name)
    inflight.add(total)
    return [depth, inflight]


def _register_serve_metrics() -> None:
    from ..obs import metrics as obs_metrics

    obs_metrics.register_callback("serve", _serve_metric_families)


_register_serve_metrics()
