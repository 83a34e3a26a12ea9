"""Design-space explorer: throughput, QoR floor, cross-backend identity.

Acceptance (ISSUE 10):

* grouped move-set scoring (``trial_metrics_batch`` sweeps) sustains
  >= 10x the moves/sec of the naive explorer loop (commit each move
  set, ``analyze()``, revert, ``analyze()`` again to fold), with
  bit-identical verdicts;
* ``explore_sizing`` ends no worse than the greedy ``size_gates``
  reference — lexicographic (timing violation, area) — on every
  OpenCores design at the default budget;
* chains are bit-identical across the thread and process backends.

``REPRO_BENCH_EXPLORE_BUDGET`` shrinks the per-chain trial budget for
CI smoke runs (default 240 = the explorer's own default).
"""

from __future__ import annotations

import os
import time

from repro.designs.opencores import benchmark_names, get_benchmark
from repro.hdl import elaborate
from repro.rand import rng as seeded_rng
from repro.synth import Constraints, PassContext, TimingEngine, get_wireload, nangate45
from repro.synth.explore import ExploreConfig, explore_sizing, run_chains
from repro.synth.optimizer import size_gates
from repro.synth.passes import sizing_neighbors
from repro.synth.techmap import map_to_library

LIBRARY = nangate45()
WIRELOAD = get_wireload("5K_heavy_1k")
NEIGHBORS = sizing_neighbors(LIBRARY)
BUDGET = max(1, int(os.environ.get("REPRO_BENCH_EXPLORE_BUDGET", "240")))
#: Move sets timed through the grouped kernel / the naive reference.
THROUGHPUT_MOVES = 256
NAIVE_MOVES = 32
REPEATS = 3


def _mapped(name, scale=1.0):
    bench = get_benchmark(name)
    netlist = elaborate(bench.verilog, bench.top)
    map_to_library(netlist, LIBRARY)
    return netlist, Constraints(clock_period=bench.clock_period * scale)


def _random_lanes(netlist, rng, count, max_gates=4):
    sizable = [
        (name, cell.lib_cell)
        for name, cell in netlist.cells.items()
        if cell.lib_cell is not None and NEIGHBORS.get(cell.lib_cell)
    ]
    lanes = []
    for _ in range(count):
        width = min(len(sizable), 1 + rng.randrange(max_gates))
        chosen = {}
        for _ in range(width * 4):
            if len(chosen) >= width:
                break
            name, bound = sizable[rng.randrange(len(sizable))]
            if name not in chosen:
                options = NEIGHBORS[bound]
                chosen[name] = options[rng.randrange(len(options))]
        lanes.append(sorted(chosen.items()))
    return lanes


def test_explore_throughput_vs_naive(bench_results):
    """Grouped kernel sweeps vs the per-trial-analyze loops, same verdicts.

    Two reference arms: *naive* pays one full STA per move set (what a
    per-trial explorer costs without the incremental machinery — the 10x
    floor is against this), and *incremental* folds each commit/revert
    through the journal (the already-optimized single-lane path, reported
    for context).
    """
    netlist, constraints = _mapped("aes", scale=0.8)
    engine = TimingEngine(netlist, LIBRARY, WIRELOAD, constraints)
    engine.analyze(with_paths=False)
    lanes = _random_lanes(netlist, seeded_rng(0, "bench", "throughput"),
                          THROUGHPUT_MOVES)
    batch = 16

    grouped_s = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        verdicts = []
        for i in range(0, len(lanes), batch):
            verdicts.extend(engine.trial_metrics_batch(lanes[i:i + batch]))
        grouped_s = min(grouped_s, time.perf_counter() - start)

    cells = netlist.cells
    naive = lanes[:NAIVE_MOVES]

    def _reference(analyze):
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            measured = []
            for lane in naive:
                previous = [(cells[n], cells[n].lib_cell) for n, _ in lane]
                for n, lib_name in lane:
                    cells[n].lib_cell = lib_name
                measured.append((analyze().cps, engine.total_area()))
                for cell, prev in previous:
                    cell.lib_cell = prev
                analyze()  # fold the revert
            best = min(best, time.perf_counter() - start)
        return best, measured

    naive_s, naive_verdicts = _reference(engine.full_analyze)
    incr_s, incr_verdicts = _reference(
        lambda: engine.analyze(with_paths=False)
    )

    assert naive_verdicts == verdicts[:NAIVE_MOVES]
    assert incr_verdicts == verdicts[:NAIVE_MOVES]
    grouped_mps = len(lanes) / grouped_s
    naive_mps = len(naive) / naive_s
    incr_mps = len(naive) / incr_s
    speedup = grouped_mps / naive_mps
    bench_results.setdefault("explore", {})["throughput"] = {
        "design": "aes",
        "moves": len(lanes),
        "batch": batch,
        "grouped_moves_per_s": round(grouped_mps, 1),
        "naive_moves_per_s": round(naive_mps, 1),
        "incremental_moves_per_s": round(incr_mps, 1),
        "speedup_vs_naive": round(speedup, 2),
        "speedup_vs_incremental": round(grouped_mps / incr_mps, 2),
    }
    assert speedup >= 10.0, f"grouped scoring {speedup:.2f}x < 10x naive"


def test_explore_qor_no_worse_than_greedy(bench_results):
    """On every OpenCores design, explore_sizing on top of greedy sizing
    ends lexicographically no worse than the greedy point itself."""
    per_design = {}
    improved = 0
    for name in benchmark_names():
        netlist, constraints = _mapped(name)
        context = PassContext(netlist, LIBRARY, WIRELOAD, constraints)
        size_gates(netlist, LIBRARY, WIRELOAD, constraints, context=context)
        result = explore_sizing(
            netlist, LIBRARY, WIRELOAD, constraints,
            budget=BUDGET, seed=0, chains=2, context=context,
        )
        greedy_key = (max(0.0, -result.wns_before), result.area_before)
        explore_key = (max(0.0, -result.wns_after), result.area_after)
        assert explore_key <= greedy_key, name
        improved += explore_key < greedy_key
        per_design[name] = {
            "greedy_wns": round(result.wns_before, 4),
            "greedy_area": round(result.area_before, 2),
            "explore_wns": round(result.wns_after, 4),
            "explore_area": round(result.area_after, 2),
            "cells_changed": result.changes,
        }
    bench_results.setdefault("explore", {})["qor_vs_greedy"] = {
        "budget": BUDGET,
        "chains": 2,
        "improved_designs": improved,
        "per_design": per_design,
    }


def test_explore_bit_identical_across_backends(bench_results):
    """The pool backend never changes the walk."""
    netlist, constraints = _mapped("aes", scale=0.9)
    config = ExploreConfig(budget=min(BUDGET, 60), chains=2, seed=13)

    backends = {}
    for backend in ("thread", "process"):
        os.environ["REPRO_PARALLEL_BACKEND"] = backend
        try:
            backends[backend] = run_chains(
                netlist.clone(), LIBRARY, WIRELOAD, constraints, config,
                jobs=2,
            )
        finally:
            os.environ.pop("REPRO_PARALLEL_BACKEND", None)
    assert backends["thread"] == backends["process"]
    bench_results.setdefault("explore", {})["determinism"] = {
        "design": "aes",
        "budget": config.budget,
        "chains": config.chains,
        "thread_equals_process": True,
        "accepted": [result.accepted for result in backends["thread"]],
    }
