"""What a finished serve run keeps alive, and what an analysis weighs.

A served session keeps facts, not designs: its analysis holds no
netlist, and the netlist the analysis elaborated is handed over to the
session's synthesis, which takes it from the frontend cache.  This
records, for a fixed run of two 7-session bursts over the default
expert database, the netlists and cells still alive, and the pickled
size of the design analysis (what a serve checkpoint and a
process-backend pass@k context carry) of each OpenCores design.  It
asserts the invariants, not timings:

* no netlist is alive after the run, and the frontend cache is empty;
* no analysis pickle refers to a netlist class.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_serve_memory.py -q
"""

from __future__ import annotations

import os
import pickle

from repro.core import ChatLS
from repro.designs import benchmark_names, build_default_database, get_benchmark
from repro.mentor import analyze_design
from repro.serve import ServeEngine
from repro.synth.cache import clear_caches, frontend_cache
from tests.retention import burst_requests, live_netlists, netlists_since


def test_serve_memory(bench_results):
    chatls = ChatLS(build_default_database(variants_per_family=1))
    clear_caches()
    before = live_netlists()
    engine = ServeEngine(chatls, jobs=os.cpu_count(), backend="thread")
    requests = burst_requests(80) + burst_requests(81)
    results = engine.run(requests, arrival_delays=[0.0] * 7 + [0.5] * 7)
    assert all(result.executable for result in results)
    kept = netlists_since(before)
    frontend = frontend_cache().stats()
    live = {
        "sessions": len(results),
        "netlists": len(kept),
        "cells": sum(len(netlist.cells) for netlist in kept),
    }
    assert (live["netlists"], live["cells"]) == (0, 0)
    assert (frontend["entries"], frontend["cells"]) == (0, 0)

    pickles = {}
    for name in benchmark_names():
        bench = get_benchmark(name)
        analysis = analyze_design(
            bench.verilog, name, top=bench.top, clock_period=bench.clock_period
        )
        data = pickle.dumps(analysis)
        assert b"repro.hdl.netlist" not in data, name
        pickles[name] = len(data)

    bench_results["serve_memory"] = {
        "cpus": os.cpu_count(),
        "after_run": live,
        "frontend": {
            key: frontend[key] for key in ("entries", "cells", "capacity")
        },
        "analysis_pickle_bytes": pickles,
        "analysis_pickle_total_bytes": sum(pickles.values()),
    }
