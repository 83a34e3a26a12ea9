"""What the timing instrumentation itself costs.

``obs.span`` times every stage into the perf registry whether or not
tracing is on, so every run pays for its untraced spans.  This measures
one untraced span's cost per call, counts the timed calls of one cold
Table III sweep (pass@5 on the seven OpenCores designs, ``jobs=1``, every
result cache cleared first) and asserts that calls × cost is under 1% of
the sweep's wall time.  Every timed call is counted as a span, which
over-counts the few direct ``perf.add_time`` calls and so errs high.
"""

from __future__ import annotations

import os
import time

from repro import obs, perf
from repro.core import ChatLS
from repro.designs import benchmark_names, build_default_database, get_benchmark
from repro.eval.harness import TIMING_REQUIREMENT, baseline_script, run_table4_baseline
from repro.gnn import embedding_cache
from repro.synth.cache import clear_caches

SPAN_CALLS = 200_000
K = 5


def _untraced_span_ns() -> float:
    """Best-of-three cost of one untraced span around an empty block."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter_ns()
        for _ in range(SPAN_CALLS):
            with obs.span("bench.span_overhead"):
                pass
        best = min(best, (time.perf_counter_ns() - start) / SPAN_CALLS)
    return best


def test_span_overhead(bench_results, monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    obs.configure(None)
    span_ns = _untraced_span_ns()

    reports = run_table4_baseline(jobs=1).reports
    chatls = ChatLS(build_default_database(variants_per_family=1))
    clear_caches()
    embedding_cache.clear()
    perf.reset()
    start = time.perf_counter()
    for name in benchmark_names():
        bench = get_benchmark(name)
        chatls.customize_pass_at_k(
            bench.verilog, bench.name, baseline_script(bench), TIMING_REQUIREMENT,
            k=K, tool_report=reports[name], top=bench.top,
            clock_period=bench.clock_period, jobs=1,
        )
    sweep_s = time.perf_counter() - start
    timed_calls = sum(t["calls"] for t in perf.snapshot()["timers"].values())
    share = timed_calls * span_ns * 1e-9 / sweep_s

    bench_results["span_overhead"] = {
        "cpus": os.cpu_count(),
        "untraced_span_ns": round(span_ns, 1),
        "designs": len(benchmark_names()),
        "k": K,
        "sweep_s": round(sweep_s, 3),
        "timed_calls": timed_calls,
        "share_of_sweep": round(share, 6),
    }
    assert share < 0.01, f"untraced spans cost {share:.2%} of a cold sweep"
