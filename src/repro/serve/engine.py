"""Async micro-batched serving engine for ChatLS customization.

``ServeEngine`` runs many :class:`ChainState` sessions concurrently on
one event loop through the five stages of :class:`ChatLS` (``analyze``,
``retrieve``, ``draft``, ``revise``, ``synthesize``).  Each stage owns a
:class:`MicroBatcher` — a coalescing queue whose worker collects every
session that arrives within the batching window (:class:`BatchPolicy`:
``batch_max`` items or ``batch_wait_ms`` of waiting, whichever first)
and hands them to the stage's ``ChatLS`` method as **one** batch.  The
engine only schedules: what a stage does with a batch (the grouped GNN
forward, the stacked retrievals, the synthesis fan-out) is the stage
method's, the same code a single ``customize`` call runs.

The synthesize stage passes the batcher's ``release`` as the stage's
``on_result``, so each session leaves as soon as its own synthesis
finishes, not when its slowest batch-mate's does; the other four stages
resolve a batch's sessions together when the stage returns.  A stage
exception fails the sessions of its batch that have not been released.
In the synthesize stage, under the thread and process backends, those
are only the sessions whose own synthesis raised (each gets the batch's
lowest-index exception); the serial loop (one job) stops at the first
failure, so the sessions queued behind it fail too.  Stages are
synchronous; they run in a small per-engine thread executor so
different stages overlap in wall clock while the event loop keeps
coalescing arrivals.

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
from functools import partial
from typing import Awaitable, Callable, Iterable, Sequence

from .. import obs, perf
from ..core.chatls import ChatLS
from ..core.session import DONE, STAGES, ChainState, CustomizationResult, ServeRequest

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
            raise ValueError("batch_max must be >= 1")
        if self.batch_wait_ms < 0:
            raise ValueError("batch_wait_ms must be >= 0")


#: A stage kernel's hook for handing one session on early:
#: ``release(position, state)``, callable from any thread.
Release = Callable[[int, ChainState], None]


class MicroBatcher:
    """One stage's coalescing queue + worker coroutine.

    Sessions ``submit`` their state and await the result; the worker
    forms batches under the :class:`BatchPolicy` and hands each batch to
    the stage's async ``process(states, release)`` callable.  A kernel
    may call ``release(position, state)``, from any thread, to resolve
    the session at ``position`` in the batch as soon as its state is
    ready; the sessions it has not released resolve with the states it
    returns.  A kernel exception fails every session of the batch that
    it has not released; released sessions keep their results.
    """

    def __init__(
        self,
        name: str,
        process: Callable[[list[ChainState], Release], Awaitable[list[ChainState]]],
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

        loop = asyncio.get_running_loop()
        futures = [future for _, future in batch]

        def resolve(position: int, state: ChainState) -> None:
            if not futures[position].done():
                futures[position].set_result(state)

        def release(position: int, state: ChainState) -> None:
            # The loop runs callbacks in the order they were scheduled, so
            # every release made before the kernel returns resolves before
            # this coroutine resumes below.
            loop.call_soon_threadsafe(resolve, position, state)

        # Counted when the kernel is called: a session the kernel releases
        # is served even if a batch-mate then makes the kernel raise.
        self.batch_count += 1
        self.item_count += len(batch)
        self.max_batch = max(self.max_batch, len(batch))
        obs_metrics.histogram(
            "repro_serve_batch_size",
            "Sessions coalesced per serve-stage kernel call.",
            buckets=_BATCH_BUCKETS,
        ).observe(len(batch), stage=self.name)
        states = [state for state, _ in batch]
        started = time.perf_counter()
        try:
            results = await self.process(states, release)
        except BaseException as exc:
            for future in futures:
                if not future.done():
                    future.set_exception(exc)
            return
        finally:
            perf.add_time(f"serve.{self.name}", time.perf_counter() - started)
        for position, result in enumerate(results):
            resolve(position, result)


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
        self.policy = policy or BatchPolicy()
        self.checkpoint_dir = checkpoint_dir
        self.jobs = jobs
        self.backend = backend
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
            "analyze": MicroBatcher("analyze", self._analyze, self.policy),
            "retrieve": MicroBatcher("retrieve", self._retrieve, self.policy),
            "draft": MicroBatcher("draft", self._draft, self.policy),
            "revise": MicroBatcher("revise", self._revise, self.policy),
            "synthesize": MicroBatcher("synthesize", self._synthesize, self.policy),
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

    # -- stage kernels: ChatLS's stages, run off the event loop ----------------

    async def _analyze(self, states: list[ChainState], release: Release):
        return await self._run_blocking(
            partial(self.chatls.analyze, states, self.jobs, self.backend)
        )

    async def _retrieve(self, states: list[ChainState], release: Release):
        return await self._run_blocking(partial(self.chatls.retrieve, states))

    async def _draft(self, states: list[ChainState], release: Release):
        return await self._run_blocking(partial(self.chatls.draft, states))

    async def _revise(self, states: list[ChainState], release: Release):
        return await self._run_blocking(partial(self.chatls.revise, states))

    async def _synthesize(self, states: list[ChainState], release: Release):
        return await self._run_blocking(
            partial(self.chatls.synthesize, states, self.jobs, self.backend, release)
        )


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
