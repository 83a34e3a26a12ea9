"""How much work one cold Table III sweep leaves to the cyclic collector.

A finished synthesis run holds no reference cycle: reference counting
frees its netlist, shell, pass context, timing engine and kernel as soon
as the last reference goes, and a netlist copy's sinks and input lists
are containers the collector does not track.  What the cyclic collector
still does is scan the objects that live on.

This runs one warm-up sweep, then times one cold sweep (pass@5 on the
seven OpenCores designs, ``jobs=1``, every result cache cleared first)
with a ``gc.callbacks`` hook registered for that sweep only.  It records
per generation the collections, their seconds and the objects they
freed, and asserts that the collector frees fewer than 30,000 objects
per sweep.  With a reference cycle per netlist and per shell, it freed
343k-354k (2 vCPUs, CPython 3.11).
"""

from __future__ import annotations

import gc
import os
import time

from repro.core import ChatLS
from repro.designs import benchmark_names, build_default_database, get_benchmark
from repro.eval.harness import TIMING_REQUIREMENT, baseline_script, run_table4_baseline
from repro.gnn import embedding_cache
from repro.synth.cache import clear_caches

K = 5
MAX_COLLECTED = 30_000


def _sweep(chatls: ChatLS, reports) -> None:
    for name in benchmark_names():
        bench = get_benchmark(name)
        chatls.customize_pass_at_k(
            bench.verilog, bench.name, baseline_script(bench), TIMING_REQUIREMENT,
            k=K, tool_report=reports[name], top=bench.top,
            clock_period=bench.clock_period, jobs=1,
        )


def test_gc_pressure(bench_results):
    reports = run_table4_baseline(jobs=1).reports
    chatls = ChatLS(build_default_database(variants_per_family=1))
    _sweep(chatls, reports)
    clear_caches()
    embedding_cache.clear()
    gc.collect()  # start the timed sweep with no garbage left from the warm-up

    generations = [{"collections": 0, "seconds": 0.0, "collected": 0} for _ in range(3)]
    started = 0.0

    def hook(phase: str, info: dict) -> None:
        nonlocal started
        if phase == "start":
            started = time.perf_counter()
            return
        generation = generations[info["generation"]]
        generation["collections"] += 1
        generation["seconds"] += time.perf_counter() - started
        generation["collected"] += info["collected"]

    gc.callbacks.append(hook)
    try:
        start = time.perf_counter()
        _sweep(chatls, reports)
        sweep_s = time.perf_counter() - start
    finally:
        gc.callbacks.remove(hook)

    collected = sum(g["collected"] for g in generations)
    bench_results["gc_pressure"] = {
        "cpus": os.cpu_count(),
        "designs": len(benchmark_names()),
        "k": K,
        "sweep_s": round(sweep_s, 3),
        "gc_s": round(sum(g["seconds"] for g in generations), 3),
        "collected": collected,
        "generations": {
            str(index): {**g, "seconds": round(g["seconds"], 3)}
            for index, g in enumerate(generations)
        },
    }
    assert collected < MAX_COLLECTED, bench_results["gc_pressure"]
