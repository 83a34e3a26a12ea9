"""End-to-end ChatLS customization benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table3_pass_at_k --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``table3_pass_at_k`` — Table III: ``ChatLS.customize_pass_at_k(k=5)`` on
  the seven OpenCores designs, one closed-loop client, ``jobs=1``.
* ``serve_bursts`` — ``ServeEngine`` (thread backend, ``jobs`` = CPU count)
  fed an open-loop schedule of seven-session bursts every 3 s.

``--trace 0`` sets up three times (``setup_s`` is the import time plus the
median set-up), runs one timed phase and prints the end-to-end metrics.
``--trace 1`` sets up once under the layer tracer, runs the timed phase
untraced, then repeats exactly the same inputs traced, and prints the
per-layer metrics.  Before anything is timed, a run pins itself to the
fastest CPU it may use (``pinning``).  Every request is checked against
``reference.json``; the last stdout line is the JSON result.  Any
``REPRO_*`` variable set to a non-default value refuses the run (exit
code 2).
"""

from __future__ import annotations

import time

import pinning

#: Pinned before anything is timed, imports included.
PINNED_CPU = pinning.pin_to_fastest_cpu() if __name__ == "__main__" else None
_START = time.perf_counter()

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys

import bootstrap

SETUP_REPEATS = 3

#: On the serial workload (table3_pass_at_k) the layer self times sum to
#: the traced wall: |unattributed_s| <= this share of it.
#: serve_bursts overlaps threads and idles between bursts, so there
#: unattributed_s is idle-plus-glue time minus overlap, with no bound.
SELF_TIME_TOLERANCE = 0.02

#: Values of the library's ``REPRO_*`` switches that select its defaults.
REPRO_DEFAULTS = {
    "REPRO_ANN": "0",
    "REPRO_BATCH_GNN": "1",
    "REPRO_EXPLORE": "1",
    "REPRO_EXPLORE_BUDGET": "240",
    "REPRO_EXPLORE_CHAINS": "2",
    "REPRO_FAST_OPT": "1",
    "REPRO_FRONTEND_CACHE": "1",
    "REPRO_GNN_EMBED_CACHE": "1",
    "REPRO_SYNTH_CACHE": "1",
    "REPRO_VECTOR_STA": "1",
}

END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_s": "s",
    "latency_p75_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Layers whose set-up (database write path, Table IV, engine) time is reported.
SETUP_LAYERS = (
    "designs.add_design", "mentor.circuit_graph", "gnn.embed", "vectorstore.add",
    "synth.dcshell", "synth.timing", "synth.techmap", "synth.pass", "hdl.parse",
    "hdl.elaborate", "synth.cache", "rag.build", "textembed.embed", "eval.table4",
    "serve",
)


def repro_environment(environ=os.environ) -> dict[str, str]:
    return {k: v for k, v in sorted(environ.items()) if k.startswith("REPRO_")}


def non_default(environ=os.environ) -> dict[str, str]:
    """``REPRO_*`` variables whose value differs from the library default."""
    return {
        k: v for k, v in repro_environment(environ).items()
        if v.strip() and v.strip().lower() != REPRO_DEFAULTS.get(k, "")
    }


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    from layertrace import layer_names
    from repro.serve import STAGES

    units = {f"{layer}.self_s": "s" for layer in layer_names()}
    for name in ("hdl.parse.calls", "hdl.elaborate.calls", "llm.complete.calls",
                 "gnn.embed.graphs", "rag.retrieve.queries", "parallel.map.tasks"):
        units[name] = "count"
    for name in ("synth.pass.accept_ratio", "synth.timing.incremental_ratio",
                 "synth.cache.synth_hit_ratio", "synth.cache.frontend_hit_ratio",
                 "gnn.embed_cache_hit_ratio"):
        units[name] = "ratio"
    for stage in STAGES:
        units[f"serve.{stage}.mean_batch"] = "count"
    for name in ("parallel.wait_s", "serve.loop.wait_s", "wall_s", "unattributed_s"):
        units[name] = "s"
    units["trace_overhead_frac"] = "ratio"
    units["failed_frac"] = "ratio"
    units["setup.wall_s"] = "s"
    for layer in SETUP_LAYERS:
        units[f"setup.{layer}.self_s"] = "s"
    units["setup.unattributed_s"] = "s"
    return units


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _counters() -> dict[str, int]:
    from repro import perf
    from repro.gnn import embedding_cache

    counters = perf.counters()
    counters["gnn.hit"] = embedding_cache.hits
    counters["gnn.miss"] = embedding_cache.misses
    return counters


def end_to_end(phase, setup_s: float) -> dict[str, float]:
    latencies = phase.latencies
    return {
        "throughput_rps": phase.throughput,
        "latency_p50_s": statistics.median(latencies),
        "latency_p75_s": statistics.quantiles(latencies, n=4)[2],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(setup, plain, traced, deltas) -> dict[str, float]:
    """Per-layer metrics from tracer snapshots of set-up and the traced phase."""
    from repro.serve import STAGES

    self_s, calls, counts, wait_s = (traced[k] for k in ("self_s", "calls", "counts", "wait_s"))
    metrics = {name: 0.0 for name in per_layer_units()}
    for layer, seconds in self_s.items():
        metrics[f"{layer}.self_s"] = seconds
    for layer in ("hdl.parse", "hdl.elaborate", "llm.complete"):
        metrics[f"{layer}.calls"] = calls.get(layer, 0)
    for name in ("gnn.embed.graphs", "rag.retrieve.queries", "parallel.map.tasks"):
        metrics[name] = counts.get(name, 0)
    d = deltas.get
    metrics["synth.pass.accept_ratio"] = _ratio(counts.get("synth.pass.changes", 0),
                                                d("opt.trials", 0))
    metrics["synth.timing.incremental_ratio"] = _ratio(
        d("sta.incremental", 0), d("sta.incremental", 0) + d("sta.full", 0))
    metrics["synth.cache.synth_hit_ratio"] = _ratio(
        d("synthcache.hit", 0), d("synthcache.hit", 0) + d("synthcache.miss", 0))
    metrics["synth.cache.frontend_hit_ratio"] = _ratio(
        d("netcache.hit", 0), d("netcache.hit", 0) + d("netcache.miss", 0))
    metrics["gnn.embed_cache_hit_ratio"] = _ratio(
        d("gnn.hit", 0), d("gnn.hit", 0) + d("gnn.miss", 0))
    for stage in STAGES:
        metrics[f"serve.{stage}.mean_batch"] = traced["stats"].get(stage, 0.0)
    metrics["parallel.wait_s"] = wait_s.get("parallel", 0.0)
    metrics["serve.loop.wait_s"] = wait_s.get("serve.loop", 0.0)
    metrics["wall_s"] = traced["wall_s"]
    metrics["unattributed_s"] = traced["wall_s"] - sum(self_s.values())
    metrics["trace_overhead_frac"] = _ratio(traced["wall_s"], plain.wall_s) - 1.0
    metrics["failed_frac"] = _ratio(traced["failed"], traced["attempted"])
    metrics["setup.wall_s"] = setup["wall_s"]
    for layer in SETUP_LAYERS:
        metrics[f"setup.{layer}.self_s"] = sum(
            seconds for name, seconds in setup["self_s"].items()
            if name == layer or name.startswith(layer + ".")
        )
    metrics["setup.unattributed_s"] = setup["wall_s"] - sum(setup["self_s"].values())
    return metrics


def run_untraced(workload, seconds: float, import_s: float):
    from workloads import reset_result_caches

    setups = []
    for _ in range(SETUP_REPEATS):
        reset_result_caches()
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)
    phase = workload.run(seconds)
    metrics = end_to_end(phase, import_s + statistics.median(setups))
    return [phase], {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def run_traced(workload, seconds: float):
    from layertrace import LayerTracer
    from workloads import reset_result_caches

    tracer = LayerTracer()
    reset_result_caches()
    tracer.install()
    try:
        started = time.perf_counter()
        workload.setup()
        setup = {"wall_s": time.perf_counter() - started, **tracer.snapshot()}
    finally:
        tracer.uninstall()
    plain = workload.run(seconds)
    before = _counters()
    tracer.reset()
    tracer.install()
    try:
        phase = workload.run(seconds)
    finally:
        tracer.uninstall()
    after = _counters()
    deltas = {k: after[k] - before.get(k, 0) for k in after}
    traced = {
        **tracer.snapshot(), "wall_s": phase.wall_s, "stats": phase.stats,
        "attempted": phase.gate.attempted, "failed": phase.gate.failed,
    }
    metrics = per_layer(setup, plain, traced, deltas)
    units = per_layer_units()
    return [plain, phase], {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def provenance(args) -> dict:
    import numpy

    env = repro_environment()
    fingerprint = hashlib.sha256(json.dumps(env).encode("utf-8")).hexdigest()[:12]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cpus": os.cpu_count() or 1,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "repro_env": env, "repro_env_fingerprint": fingerprint,
        "pinned_cpu": PINNED_CPU,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("table3_pass_at_k", "serve_bursts"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    refused = non_default()
    if refused:
        print(f"perfbench: refusing to run with non-default settings {refused}",
              file=sys.stderr)
        return 2

    bootstrap.use_checkout_source()
    from gate import load_reference
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _START
    workload = WORKLOADS[args.workload](args.seed, load_reference())
    if args.trace:
        phases, metrics = run_traced(workload, args.seconds)
    else:
        phases, metrics = run_untraced(workload, args.seconds, import_s)
    gates = [phase.gate for phase in phases]
    for gate in gates:
        for key in gate.mismatched:
            print(f"perfbench: digest mismatch for {key}", file=sys.stderr)
    info = provenance(args)
    info["rounds"] = phases[-1].rounds
    print(json.dumps({"provenance": info}))
    print(json.dumps({
        "correct": all(gate.correct for gate in gates),
        "attempted": sum(gate.attempted for gate in gates),
        "failed": sum(gate.failed for gate in gates),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
