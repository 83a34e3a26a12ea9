"""Serial-uncached vs parallel+cached Table III subset (3 designs).

Acceptance: >= 2x wall-clock improvement on the end-to-end customization
comparison when the parallel executor and the caches (synthesis results
+ elaborated netlists) are on, with identical QoR rows out of both runs.
Both runs start cold.  The library has no uncached mode; the serial run
gets one from a test-side double (:func:`_uncached`).
"""

from __future__ import annotations

import time

import pytest

from repro.core import baseline_runner, chatls
from repro.designs.database import build_default_database
from repro.eval.harness import run_table3_customization
from repro.synth import cache as cache_module
from repro.synth.cache import FrontendCache, clear_caches, default_cache
from tests.solo import run_solo

DESIGNS = ["riscv32i", "swerv", "dynamic_node"]
K = 3


@pytest.fixture(scope="module")
def small_database():
    return build_default_database(variants_per_family=1)


def _miss(cache, key, take=True):
    return None


def _store_nothing(cache, key, value):
    return False


def _solo_batch(library, design_name, verilog, scripts, top=None, cache=None):
    return [run_solo(design_name, verilog, script, top, library)[0] for script in scripts]


def _uncached(patch: pytest.MonkeyPatch) -> None:
    """No result caching: every batch runs each script alone in a fresh
    shell (never looking up the synthesis cache, never forking), and the
    frontend cache misses and stores nothing."""
    for module in (cache_module, chatls, baseline_runner):
        patch.setattr(module, "synthesize_batch", _solo_batch)
    patch.setattr(FrontendCache, "get", _miss)
    patch.setattr(FrontendCache, "put", _store_nothing)
    patch.setattr(FrontendCache, "hand_over", _store_nothing)


def test_parallel_cached_table3_speedup(bench_results, small_database, monkeypatch):
    def run(jobs, cached):
        with monkeypatch.context() as patch:
            if not cached:
                _uncached(patch)
            clear_caches()
            start = time.perf_counter()
            table = run_table3_customization(
                database=small_database, designs=DESIGNS, k=K, jobs=jobs
            )
            return time.perf_counter() - start, table

    serial_s, serial = run(jobs=1, cached=False)
    parallel_s, parallel = run(jobs=None, cached=True)
    assert parallel.models == serial.models
    assert parallel.baseline == serial.baseline
    speedup = serial_s / parallel_s
    cache_stats = default_cache().stats()
    bench_results["parallel_eval"] = {
        "designs": DESIGNS,
        "k": K,
        "serial_uncached_s": round(serial_s, 6),
        "parallel_cached_s": round(parallel_s, 6),
        "speedup": round(speedup, 2),
        "cache": cache_stats,
    }
    assert speedup >= 2.0, f"parallel+cache speedup {speedup:.2f}x < 2x"
