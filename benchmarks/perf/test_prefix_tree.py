"""Pass@k drafts synthesized as one command-prefix tree vs one at a time.

One cold Table III ChatLS sweep (pass@5 on the seven OpenCores designs,
``jobs=1``) records each design's five drafts.  Those drafts are then
synthesized twice from cold caches: per design as one batch
(:func:`synthesize_batch`: each shared command prefix runs once and the
shell forks where drafts diverge), and one script at a time
(:func:`synthesize_cached`, each miss in a fresh shell).  Both must give
identical results.  ``BENCH_perf.json`` ``prefix_tree`` records the
scripts, cache hits and misses, forks, the Tcl and compile-class
commands each way ran, and both walls; the asserted floor is a count,
not a time: the batch runs fewer compile-class commands.
"""

from __future__ import annotations

import os
import time

from repro import perf
from repro.core import ChatLS, chatls as chatls_module
from repro.designs import benchmark_names, build_default_database, get_benchmark
from repro.eval.harness import TIMING_REQUIREMENT, baseline_script, run_table4_baseline
from repro.synth.cache import clear_caches, default_cache, synthesize_batch, synthesize_cached

K = 5


def _record_drafts(monkeypatch) -> dict[str, tuple]:
    """Run one cold sweep; returns design -> (verilog, top, drafts)."""
    reports = run_table4_baseline(jobs=1).reports
    chatls = ChatLS(build_default_database(variants_per_family=1))
    drafts: dict[str, tuple] = {}

    def recording(library, design_name, verilog, scripts, top=None, cache=None):
        drafts[design_name] = (verilog, top, list(scripts))
        return synthesize_batch(library, design_name, verilog, scripts, top, cache)

    monkeypatch.setattr(chatls_module, "synthesize_batch", recording)
    clear_caches()
    for name in benchmark_names():
        bench = get_benchmark(name)
        chatls.customize_pass_at_k(
            bench.verilog, bench.name, baseline_script(bench), TIMING_REQUIREMENT,
            k=K, tool_report=reports[name], top=bench.top,
            clock_period=bench.clock_period, jobs=1,
        )
    return drafts


def _synthesize(drafts: dict[str, tuple], batched: bool) -> tuple[dict, dict]:
    clear_caches()
    counters = perf.counters()
    compiles = perf.snapshot()["timers"].get("synth.compile", {}).get("calls", 0)
    start = time.perf_counter()
    results = {}
    for name, (verilog, top, scripts) in drafts.items():
        if batched:
            results[name] = synthesize_batch(None, name, verilog, scripts, top=top)
        else:
            results[name] = [
                synthesize_cached(None, name, verilog, script, top=top)
                for script in scripts
            ]
    wall = time.perf_counter() - start
    after = perf.counters()
    cache = default_cache().stats()
    return results, {
        "wall_s": round(wall, 3),
        "hits": cache["hits"],
        "misses": cache["misses"],
        "forks": after.get("synth.fork", 0) - counters.get("synth.fork", 0),
        "commands": after.get("synth.commands", 0) - counters.get("synth.commands", 0),
        "compile_commands": (
            perf.snapshot()["timers"].get("synth.compile", {}).get("calls", 0) - compiles
        ),
    }


def _outcomes(results: dict) -> dict:
    return {
        name: [(r.success, r.error, r.transcript, r.qor) for r in runs]
        for name, runs in results.items()
    }


def test_prefix_tree(bench_results, monkeypatch):
    drafts = _record_drafts(monkeypatch)
    batched, tree = _synthesize(drafts, batched=True)
    solo, alone = _synthesize(drafts, batched=False)
    assert _outcomes(batched) == _outcomes(solo)
    section = {
        "cpus": os.cpu_count(),
        "designs": len(drafts),
        "k": K,
        "scripts": sum(len(scripts) for _, _, scripts in drafts.values()),
        "hits": tree["hits"],
        "misses": tree["misses"],
        "forks": tree["forks"],
        "commands": {"batched": tree["commands"], "solo": alone["commands"]},
        "compile_commands": {
            "batched": tree["compile_commands"], "solo": alone["compile_commands"],
        },
        "wall_s": {"batched": tree["wall_s"], "solo": alone["wall_s"]},
        "speedup": round(alone["wall_s"] / tree["wall_s"], 3),
    }
    bench_results["prefix_tree"] = section
    assert (tree["hits"], tree["misses"]) == (alone["hits"], alone["misses"]), section
    assert alone["forks"] == 0, section
    assert tree["compile_commands"] < alone["compile_commands"], section
