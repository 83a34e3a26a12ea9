"""Serving-engine throughput vs the sequential customize loop.

Acceptance (ISSUE 9): at 32 concurrent sessions the micro-batched
``ServeEngine`` delivers >= 3x throughput over a sequential
``customize_and_evaluate`` loop on a 4+ core machine, with **bit-
identical** per-session script/trace/QoR.  The speedup assertion is
CPU-gated (below 4 cores the synthesize fan-out time-slices one core and
the coalescing wins cannot compound), but equivalence is asserted and
the measured numbers are recorded in the ``serve`` section of
BENCH_perf.json everywhere.

It also records when each session completes (its ``ChainState.result()``
call), in seconds from the start of the served run: the median and the
last.  Each session leaves the synthesize stage when its own synthesis
finishes, so the median session completes well before the last one,
by more than a twentieth of the synthesize stage's wall time; a batch
barrier would release them all within a millisecond of each other.

``REPRO_BENCH_SERVE_SESSIONS`` shrinks the session count for CI smoke.
"""

from __future__ import annotations

import os
import pickle
import statistics
import time

import pytest

from repro import perf
from repro.designs.chipyard import FAMILIES, generate_family_variant
from repro.designs.database import ExpertDatabase
from repro.core import ChatLS
from repro.gnn import embedding_cache
from repro.llm import chatls_core
from repro.mentor import CircuitEncoder
from repro.parallel import shutdown_pools
from repro.serve import BatchPolicy, ChainState, ServeEngine, ServeRequest
from repro.synth.cache import clear_caches

SESSIONS = int(os.environ.get("REPRO_BENCH_SERVE_SESSIONS", "32") or "32")
MIN_CPUS = 4
SPEEDUP_FLOOR = 3.0


@pytest.fixture(scope="module")
def small_database():
    db = ExpertDatabase(CircuitEncoder(seed=0))
    for family in ("rocket", "sha3"):
        db.add_design(
            generate_family_variant(family, 0),
            strategies=["baseline_compile", "ultra_retime"],
        )
    return db


def _requests(count: int) -> list[ServeRequest]:
    """``count`` distinct designs cycling the family catalogue."""
    families = sorted(FAMILIES)
    texts = (
        "fix the negative slack and improve timing",
        "reduce area",
        "cut leakage power",
    )
    requests = []
    for index in range(count):
        family = families[index % len(families)]
        design = generate_family_variant(family, 10 + index)
        baseline = "\n".join(
            [
                f"read_verilog {design.name}",
                f"current_design {design.name}",
                "link",
                "create_clock -period 1.0 clk",
                "compile",
            ]
        )
        requests.append(
            ServeRequest(
                verilog=design.verilog,
                design_name=design.name,
                baseline_script=baseline,
                requirement=texts[index % len(texts)],
                top=design.top,
                clock_period=1.2,
                seed=index,
            )
        )
    return requests


def _reset_caches() -> None:
    clear_caches()
    embedding_cache.clear()


def test_serve_throughput_vs_sequential(bench_results, small_database, monkeypatch):
    cpus = os.cpu_count() or 1
    workers = max(2, min(8, cpus))
    chatls = ChatLS(small_database, llm=chatls_core())
    requests = _requests(SESSIONS)

    _reset_caches()
    start = time.perf_counter()
    sequential = [
        chatls.customize_and_evaluate(
            verilog=request.verilog,
            design_name=request.design_name,
            baseline_script=request.baseline_script,
            requirement=request.requirement,
            top=request.top,
            clock_period=request.clock_period,
            seed=request.seed,
        )
        for request in requests
    ]
    sequential_s = time.perf_counter() - start

    backend = "process" if cpus >= MIN_CPUS else None
    engine = ServeEngine(
        chatls,
        policy=BatchPolicy(batch_max=SESSIONS, batch_wait_ms=10.0),
        backend=backend,
        jobs=workers,
    )
    completed: list[float] = []
    result = ChainState.result

    def timed_result(state):
        completed.append(time.perf_counter() - start)
        return result(state)

    monkeypatch.setattr(ChainState, "result", timed_result)
    _reset_caches()
    synthesize_before = _synthesize_stage_s()
    start = time.perf_counter()
    try:
        served = engine.run(requests)
    finally:
        shutdown_pools()
    serve_s = time.perf_counter() - start
    synthesize_s = _synthesize_stage_s() - synthesize_before
    median_session_s = statistics.median(completed)
    last_session_s = max(completed)

    for index, (got, want) in enumerate(zip(served, sequential)):
        assert got.script == want.script, f"session {index}: script differs"
        assert pickle.dumps(got.trace) == pickle.dumps(
            want.trace
        ), f"session {index}: trace differs"
        assert pickle.dumps(got.qor) == pickle.dumps(
            want.qor
        ), f"session {index}: QoR differs"
        assert got.prompt == want.prompt, f"session {index}: prompt differs"
        assert (got.executable, got.error, got.seed) == (
            want.executable, want.error, want.seed,
        ), f"session {index}: flags differ"

    speedup = sequential_s / serve_s if serve_s > 0 else float("inf")
    bench_results["serve"] = {
        "sessions": SESSIONS,
        "cpus": cpus,
        "workers": workers,
        "backend": backend or "thread",
        "batch_max": SESSIONS,
        "sequential_s": round(sequential_s, 6),
        "serve_s": round(serve_s, 6),
        "speedup": round(speedup, 2),
        "throughput_sessions_per_s": round(SESSIONS / serve_s, 4)
        if serve_s > 0
        else None,
        "median_session_s": round(median_session_s, 6),
        "last_session_s": round(last_session_s, 6),
        "synthesize_stage_s": round(synthesize_s, 6),
        "bit_identical": True,
        "stage_batches": {
            name: batcher.batch_count for name, batcher in engine.batchers.items()
        },
        "max_batch": {
            name: batcher.max_batch for name, batcher in engine.batchers.items()
        },
        "speedup_asserted": cpus >= MIN_CPUS,
    }
    assert len(completed) == SESSIONS
    assert last_session_s - median_session_s > 0.05 * synthesize_s, (
        f"median session at {median_session_s:.3f} s, last at "
        f"{last_session_s:.3f} s, synthesize stage {synthesize_s:.3f} s"
    )
    if cpus >= MIN_CPUS:
        assert speedup >= SPEEDUP_FLOOR, (
            f"serve speedup {speedup:.2f}x < {SPEEDUP_FLOOR}x at "
            f"{SESSIONS} sessions on {cpus} cores"
        )


def _synthesize_stage_s() -> float:
    """Wall seconds the serve synthesize stage has run in this process."""
    return perf.snapshot()["timers"].get("serve.synthesize", {}).get("total_s", 0.0)
