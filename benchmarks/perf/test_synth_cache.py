"""Cached vs uncached synthesis of the Table IV baseline scripts.

A cache hit replaces a full elaborate/map/optimize/time run with a
deep copy, so the second sweep over identical (design, script) pairs
must be at least 2x faster end to end.
"""

from __future__ import annotations

import time

from repro.designs.opencores import get_benchmark
from repro.eval.harness import baseline_script
from repro.synth import SynthesisCache
from repro.synth.cache import synthesize_cached

DESIGNS = ("dynamic_node", "riscv32i", "aes")


def test_synthesis_cache_speedup(bench_results):
    cache = SynthesisCache()
    benches = [get_benchmark(name) for name in DESIGNS]

    def sweep():
        start = time.perf_counter()
        results = [
            synthesize_cached(
                None, b.name, b.verilog, baseline_script(b), top=b.top, cache=cache
            )
            for b in benches
        ]
        return time.perf_counter() - start, results

    cold_s, cold = sweep()
    warm_s, warm = sweep()
    assert all(r.success for r in cold + warm)
    assert [r.qor for r in warm] == [r.qor for r in cold]
    stats = cache.stats()
    assert stats["entries"] == len(DESIGNS)
    assert stats["hits"] == len(DESIGNS)
    assert stats["misses"] == len(DESIGNS)
    assert stats["hit_ratio"] == 0.5
    speedup = cold_s / warm_s
    bench_results["synth_cache"] = {
        "designs": list(DESIGNS),
        "cold_s": round(cold_s, 6),
        "warm_s": round(warm_s, 6),
        "speedup": round(speedup, 2),
    }
    assert speedup >= 2.0, f"synthesis cache speedup {speedup:.2f}x < 2x"
