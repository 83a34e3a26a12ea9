"""Serial vs thread vs process backend on the full-corpus Table III run.

The same Table III run (7 designs, pass@3) is timed three ways: serially
(``jobs=1``), on the thread backend and on the warm process pool, each
from cold synthesis caches.  All three must produce **bit-identical**
cells.  ``process_vs_serial`` and ``process_vs_thread`` are recorded with
the real CPU count in the ``parallel_process`` section of
BENCH_perf.json.

Acceptance: the process pool delivers >= 2.5x wall-clock over
the GIL-bound thread backend at 4+ workers.  The assertion is CPU-gated:
on boxes with fewer than 4 cores the process backend cannot fan out that
far, so only the equivalence contract is asserted there.
"""

from __future__ import annotations

import os
import pickle
import time

import pytest

from repro import perf
from repro.designs import benchmark_names
from repro.designs.database import build_default_database
from repro.eval.harness import run_table3_customization
from repro.parallel import shutdown_pools, sync_worker_perf
from repro.synth.cache import clear_caches

K = 3
MIN_WORKERS = 4
SPEEDUP_FLOOR = 2.5


@pytest.fixture(scope="module")
def small_database():
    return build_default_database(variants_per_family=1)


def _assert_same_cells(table, reference, what: str) -> None:
    # Per-cell pickles: aggregate dumps differ only by pickle's shared-
    # object memoization (an in-process run reuses cached QoRSnapshot
    # instances across cells; process results unpickle as fresh objects),
    # which is an encoding artifact, not a value difference.
    assert table.models.keys() == reference.models.keys()
    for model in reference.models:
        assert table.models[model].keys() == reference.models[model].keys()
        for design in reference.models[model]:
            assert pickle.dumps(table.models[model][design]) == pickle.dumps(
                reference.models[model][design]
            ), f"cell ({model}, {design}) differs: {what}"
    for design in reference.baseline:
        assert pickle.dumps(table.baseline[design]) == pickle.dumps(
            reference.baseline[design]
        ), f"baseline row {design} differs: {what}"


def test_process_backend_full_corpus_table3(bench_results, small_database, monkeypatch):
    designs = benchmark_names()
    cpus = os.cpu_count() or 1
    workers = max(2, min(8, cpus))

    def run(backend: str, jobs: int):
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", backend)
        monkeypatch.setenv("REPRO_SYNTH_CACHE", "1")
        clear_caches()
        start = time.perf_counter()
        table = run_table3_customization(
            database=small_database, designs=designs, k=K, jobs=jobs
        )
        return time.perf_counter() - start, table

    serial_s, serial = run("thread", 1)
    thread_s, via_thread = run("thread", workers)
    process_s, via_process = run("process", workers)
    sync_worker_perf()
    shutdown_pools()

    _assert_same_cells(via_thread, serial, "thread vs serial")
    _assert_same_cells(via_process, serial, "process vs serial")

    process_vs_thread = thread_s / process_s
    bench_results["parallel_process"] = {
        "designs": designs,
        "k": K,
        "cpus": cpus,
        "workers": workers,
        "serial_s": round(serial_s, 6),
        "thread_s": round(thread_s, 6),
        "process_s": round(process_s, 6),
        "process_vs_serial": round(serial_s / process_s, 2),
        "process_vs_thread": round(process_vs_thread, 2),
        "bit_identical": True,
        "workers_spawned": perf.counters().get("parallel.workers_spawned", 0),
        "speedup_asserted": cpus >= MIN_WORKERS,
    }
    if cpus >= MIN_WORKERS and workers >= MIN_WORKERS:
        assert process_vs_thread >= SPEEDUP_FLOOR, (
            f"process backend speedup {process_vs_thread:.2f}x < "
            f"{SPEEDUP_FLOOR}x over threads at {workers} workers on {cpus} cores"
        )
