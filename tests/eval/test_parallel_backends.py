"""Backend-parity contract tests for parallel_map (thread vs process).

One warm pool (2 workers) is shared by the whole module — pools persist
between maps by design, so these tests exercise reuse as well.  Task
functions must live at module level: the process backend ships them by
qualified name.
"""

import os
import pickle

import numpy as np
import pytest

from repro import obs, perf
from repro.designs import get_benchmark
from repro.eval.harness import baseline_script
from repro.obs.ledger import build_manifest
from repro.parallel import (
    DEFAULT_MAX_JOBS,
    effective_backend,
    in_worker,
    parallel_map,
    resolve_backend,
    resolve_jobs,
    shutdown_pools,
    sync_worker_perf,
)
from repro.synth.cache import clear_caches, synthesize_cached


class Boom(RuntimeError):
    pass


def _square(x: int) -> int:
    return x * x


def _boom_on_multiples_of_three(x: int) -> int:
    if x and x % 3 == 0:
        raise Boom(f"bad input {x}")
    return x


def _checksum(arr: np.ndarray) -> float:
    return float(arr.sum())


def _worker_pid(_x) -> int:
    return os.getpid()


def _in_worker_flag(_x) -> bool:
    return in_worker()


def _count_and_time(x: int) -> int:
    perf.incr("test.worker_event")
    with obs.span("test.worker_stage"):
        return x


def _synthesize(name: str) -> bool:
    bench = get_benchmark(name)
    result = synthesize_cached(
        None, bench.name, bench.verilog, baseline_script(bench), top=bench.top
    )
    return result.success


pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


class TestBackendResolution:
    def test_default_is_thread(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLEL_BACKEND", raising=False)
        assert resolve_backend() == "thread"

    def test_env_selects_process(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "process")
        assert resolve_backend() == "process"

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "process")
        assert resolve_backend("thread") == "thread"

    def test_unknown_backend_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "fibers")
        with pytest.raises(ValueError, match="fibers"):
            resolve_backend()

    def test_worker_processes_resolve_thread(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_WORKER", "1")
        assert resolve_backend("process") == "thread"

    def test_jobs_cap_is_thread_only(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.delenv("REPRO_PARALLEL_BACKEND", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 32)
        assert resolve_jobs(backend="thread") == DEFAULT_MAX_JOBS
        assert resolve_jobs(backend="process") == 32

    def test_nested_default_is_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_WORKER", "1")
        monkeypatch.setenv("REPRO_JOBS", "6")  # parent export is ignored
        assert resolve_jobs() == 1
        assert resolve_jobs(4) == 4  # explicit argument still wins

    def test_effective_backend_predicts_serial(self):
        assert effective_backend(jobs=1, items=10, backend="process") == "serial"
        assert effective_backend(jobs=4, items=1, backend="process") == "serial"
        assert effective_backend(jobs=4, items=10, backend="process") == "process"
        assert effective_backend(jobs=4, items=10, backend="thread") == "thread"


class TestProcessBackendContract:
    def test_preserves_input_order(self):
        result = parallel_map(_square, range(20), jobs=2, backend="process")
        assert result == [x * x for x in range(20)]

    def test_matches_thread_backend_bit_for_bit(self):
        items = list(range(16))
        via_process = parallel_map(_square, items, jobs=2, backend="process")
        via_thread = parallel_map(_square, items, jobs=2, backend="thread")
        assert pickle.dumps(via_process) == pickle.dumps(via_thread)

    def test_lowest_failing_index_raises(self):
        with pytest.raises(Boom, match="bad input 3"):
            parallel_map(
                _boom_on_multiples_of_three, range(10), jobs=2, backend="process"
            )

    def test_exception_type_survives_the_pipe(self):
        try:
            parallel_map(
                _boom_on_multiples_of_three, [1, 3], jobs=2, backend="process"
            )
        except Boom as exc:
            assert exc.args == ("bad input 3",)
        else:
            pytest.fail("expected Boom")

    def test_tasks_actually_run_in_other_processes(self):
        pids = set(parallel_map(_worker_pid, range(8), jobs=2, backend="process"))
        assert os.getpid() not in pids
        assert len(pids) == 2

    def test_workers_know_they_are_workers(self):
        flags = parallel_map(_in_worker_flag, range(4), jobs=2, backend="process")
        assert flags == [True] * 4
        assert not in_worker()

    def test_large_numpy_payloads_roundtrip(self):
        arrays = [np.full(30_000, float(i)) for i in range(4)]  # 240KB each
        before = perf.snapshot()["counters"].get("parallel.shm_segments", 0)
        sums = parallel_map(_checksum, arrays, jobs=2, backend="process")
        assert sums == [float(a.sum()) for a in arrays]
        after = perf.snapshot()["counters"]["parallel.shm_segments"]
        assert after > before  # big items went through shared memory

    def test_closure_falls_back_to_threads(self):
        captured = 10
        before = perf.snapshot()["counters"].get("parallel.process_fallback", 0)
        result = parallel_map(
            lambda x: x + captured, range(6), jobs=2, backend="process"
        )
        assert result == [x + 10 for x in range(6)]
        after = perf.snapshot()["counters"]["parallel.process_fallback"]
        assert after == before + 1

    def test_jobs_one_is_serial_no_pool(self):
        assert parallel_map(_worker_pid, range(3), jobs=1, backend="process") == [
            os.getpid()
        ] * 3

    def test_cost_estimates_do_not_change_results(self):
        items = list(range(12))
        plain = parallel_map(_square, items, jobs=2, backend="process")
        costed = parallel_map(
            _square, items, jobs=2, backend="process",
            cost=lambda x: float(100 - x),
        )
        assert plain == costed == [x * x for x in items]

    def test_worker_perf_merges_into_parent(self):
        parallel_map(_square, range(10), jobs=2, backend="process")
        # other live pools (from earlier tests in the session) may drain
        # too; at least this map's two workers must report in
        assert sync_worker_perf() >= 2
        counters = perf.snapshot()["counters"]
        per_worker = [
            key for key in counters if key.startswith("parallel.task_run.")
        ]
        timers = perf.snapshot()["timers"]
        assert any(key in timers for key in per_worker) or any(
            key.startswith("parallel.tasks.w") for key in counters
        )


class TestWorkerState:
    """What the parent reads or resets must include the live workers."""

    def test_clear_caches_reaches_warm_workers(self):
        designs = ["aes", "dynamic_node"]
        assert all(parallel_map(_synthesize, designs, jobs=2, backend="process"))
        clear_caches()
        sync_worker_perf()
        before = perf.counters()
        assert all(parallel_map(_synthesize, designs, jobs=2, backend="process"))
        sync_worker_perf()
        after = perf.counters()
        for name, expected in (("synthcache.miss", 2), ("synthcache.hit", 0)):
            assert after.get(name, 0) - before.get(name, 0) == expected, name

    def test_manifest_counts_live_workers(self):
        parallel_map(_count_and_time, range(10), jobs=2, backend="process")
        manifest = build_manifest("workers")
        shutdown_pools()  # merges whatever the workers still hold
        snapshot = perf.snapshot()
        assert manifest["counters"]["test.worker_event"] >= 10
        assert manifest["counters"] == snapshot["counters"]
        assert manifest["stages"] == snapshot["timers"]
