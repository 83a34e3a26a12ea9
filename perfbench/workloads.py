"""The benchmark's two workloads, each driven through the public API.

A workload is built from its seed and the reference digests, sets the
program up (``setup``), then runs one timed phase (``run``) that returns
a :class:`Phase`: the latencies, the timed wall, the throughput,
the correctness gate and how many rounds ran.  The inputs of a phase
depend only on the seed and ``seconds``, so a second phase repeats them
exactly.  Each phase starts with empty result caches.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from repro.core import ChatLS
from repro.designs import benchmark_names, build_default_database, get_benchmark
from repro.eval import TIMING_REQUIREMENT, baseline_script, run_table4_baseline
from repro.gnn import embedding_cache
from repro.serve import STAGES, ChainState, ServeEngine, ServeRequest
from repro.synth.cache import clear_caches

import inputs
from gate import Gate

CPUS = os.cpu_count() or 1


def reset_result_caches() -> None:
    clear_caches()
    embedding_cache.clear()


@dataclass
class Phase:
    #: What the latency percentiles are taken over (see each workload).
    latencies: list[float]
    #: Seconds of the requests (closed loop) or of the schedule (open loop).
    wall_s: float
    #: Requests completed per second of the timed phase.
    throughput: float
    gate: Gate
    rounds: int
    stats: dict = field(default_factory=dict)


def _report_failure(key: str) -> None:
    print(f"request {key} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class Table3PassAtK:
    """Closed loop, one client: pass@5 on every OpenCores design per sweep.

    A sweep is the Table III ChatLS column in a seeded design order, from
    cold caches.  A run makes ``seconds / SWEEP_S`` sweeps, and at least
    ``MIN_SWEEPS``, so every run of a given length does the same work.
    Throughput is the design count over the sum of each design's median
    pass@5 time, and latency percentiles are taken over those medians, so
    a collection pause or a busy moment on the host that slows one request
    of a design does not move them.
    """

    name = "table3_pass_at_k"
    #: Seconds of one sweep on an idle 2-vCPU Xeon slice.
    SWEEP_S = 7.5
    #: Four samples per design, so its median ignores one slowed request.
    MIN_SWEEPS = 4

    def __init__(self, seed: int, reference: dict[str, str]) -> None:
        self.seed = seed
        self.reference = reference
        self.benches = {
            name: (get_benchmark(name), baseline_script(get_benchmark(name)))
            for name in benchmark_names()
        }

    def setup(self) -> None:
        self.reports = run_table4_baseline(jobs=1).reports
        self.chatls = ChatLS(build_default_database(1))

    def customize(self, design: str):
        bench, script = self.benches[design]
        return self.chatls.customize_pass_at_k(
            bench.verilog, bench.name, script, TIMING_REQUIREMENT,
            k=5, tool_report=self.reports[design], top=bench.top,
            clock_period=bench.clock_period, jobs=1,
        )

    def run(self, seconds: float) -> Phase:
        gate = Gate(self.reference)
        elapsed: list[float] = []
        per_design: dict[str, list[float]] = {}
        sweeps = max(self.MIN_SWEEPS, round(seconds / self.SWEEP_S))
        for sweep in range(sweeps):
            reset_result_caches()
            for design in inputs.table3_sweep(self.seed, sweep):
                key = f"table3/{design}"
                start = time.perf_counter()
                try:
                    result = self.customize(design)
                except Exception:
                    took = time.perf_counter() - start
                    _report_failure(key)
                    gate.fail(key)
                else:
                    took = time.perf_counter() - start
                    gate.check(key, result)
                elapsed.append(took)
                per_design.setdefault(design, []).append(took)
        medians = [statistics.median(t) for t in per_design.values()]
        return Phase(medians, sum(elapsed), len(medians) / sum(medians), gate, sweeps)


class ServeBursts:
    """Open loop: bursts of one session per family every 3 s into ``ServeEngine``.

    A session's latency runs from its scheduled arrival to the moment its
    ``ChainState.result()`` is called.
    """

    name = "serve_bursts"

    def __init__(self, seed: int, reference: dict[str, str]) -> None:
        self.seed = seed
        self.reference = reference

    def setup(self) -> None:
        self.chatls = ChatLS(build_default_database(1))
        self.engine = ServeEngine(self.chatls, jobs=CPUS, backend="thread")

    def run(self, seconds: float) -> Phase:
        schedule = inputs.serve_schedule(self.seed, seconds)
        requests = [
            ServeRequest(**item.request(), session_id=f"s{index:04d}")
            for index, (_, item) in enumerate(schedule)
        ]
        delays = [at for at, _ in schedule]
        done: dict[str, float] = {}
        original = ChainState.result

        def result(state: ChainState):
            done[state.request.session_id] = time.perf_counter()
            return original(state)

        gate = Gate(self.reference)
        reset_result_caches()
        ChainState.result = result
        try:
            start = time.perf_counter()
            try:
                results = self.engine.run(requests, arrival_delays=delays)
            except Exception:
                _report_failure("serve")
                results = None
        finally:
            ChainState.result = original
        latencies = []
        for index, (at, item) in enumerate(schedule):
            if results is None:
                gate.fail(item.key)
                continue
            gate.check(item.key, results[index])
            latencies.append(done[requests[index].session_id] - (start + at))
        wall = (max(done.values()) if done else time.perf_counter()) - start
        stats = {
            stage: batcher.item_count / batcher.batch_count
            for stage, batcher in self.engine.batchers.items()
            if batcher.batch_count
        }
        return Phase(latencies, wall, gate.attempted / wall, gate, 1,
                     {s: stats.get(s, 0.0) for s in STAGES})


WORKLOADS = {w.name: w for w in (Table3PassAtK, ServeBursts)}
