"""Tests for the parallel evaluation executor."""

import contextvars
import threading

import pytest

from repro import perf
from repro.parallel import DEFAULT_MAX_JOBS, parallel_map, resolve_jobs


@pytest.fixture(autouse=True)
def _thread_backend(monkeypatch):
    """These tests pass closures and check thread-executor behaviour."""
    monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "thread")


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5

    def test_env_must_be_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        with pytest.raises(ValueError):
            resolve_jobs()

    def test_default_capped(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert 1 <= resolve_jobs() <= DEFAULT_MAX_JOBS

    def test_floor_of_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1


class TestParallelMap:
    def test_preserves_order(self):
        result = parallel_map(lambda x: x * x, range(50), jobs=4)
        assert result == [x * x for x in range(50)]

    def test_serial_when_one_job(self):
        seen_threads = set()

        def record(x):
            seen_threads.add(threading.current_thread().name)
            return x

        parallel_map(record, range(10), jobs=1)
        assert seen_threads == {threading.current_thread().name}

    def test_actually_uses_workers(self):
        barrier = threading.Barrier(2, timeout=10)

        def rendezvous(x):
            barrier.wait()  # deadlocks (then times out) unless 2 threads run
            return x

        assert parallel_map(rendezvous, [1, 2], jobs=2) == [1, 2]

    def test_exceptions_propagate(self):
        def boom(x):
            if x == 3:
                raise RuntimeError("boom")
            return x

        with pytest.raises(RuntimeError, match="boom"):
            parallel_map(boom, range(6), jobs=3)

    def test_empty_input(self):
        assert parallel_map(lambda x: x, [], jobs=4) == []

    def test_single_item(self):
        assert parallel_map(lambda x: x + 1, [41], jobs=4) == [42]

    def test_matches_serial_results(self):
        items = list(range(25))
        assert parallel_map(str, items, jobs=6) == parallel_map(str, items, jobs=1)


_AMBIENT = contextvars.ContextVar("test_parallel_ambient", default="unset")


class TestContextPropagation:
    def test_workers_see_callers_contextvars(self):
        token = _AMBIENT.set("from-caller")
        try:
            seen = parallel_map(lambda _: _AMBIENT.get(), range(8), jobs=4)
        finally:
            _AMBIENT.reset(token)
        assert seen == ["from-caller"] * 8

    def test_worker_mutations_stay_isolated(self):
        token = _AMBIENT.set("caller")
        try:

            def mutate(i):
                _AMBIENT.set(f"worker-{i}")
                return _AMBIENT.get()

            assert parallel_map(mutate, range(6), jobs=3) == [
                f"worker-{i}" for i in range(6)
            ]
            # each task got its own context copy: the caller is untouched
            assert _AMBIENT.get() == "caller"
        finally:
            _AMBIENT.reset(token)


class TestQueueWaitTimer:
    def test_queue_wait_recorded_per_task(self):
        before = perf.snapshot()["timers"].get("eval.parallel_queue_wait", {})
        parallel_map(lambda x: x, range(12), jobs=3)
        after = perf.snapshot()["timers"]["eval.parallel_queue_wait"]
        assert after["calls"] - before.get("calls", 0) == 12
        assert after["total_s"] >= before.get("total_s", 0.0)
        assert {"p50_s", "p95_s", "max_s"} <= set(after)

    def test_serial_path_records_nothing(self):
        before = perf.snapshot()["timers"].get("eval.parallel_queue_wait", {})
        parallel_map(lambda x: x, range(12), jobs=1)
        after = perf.snapshot()["timers"].get("eval.parallel_queue_wait", {})
        assert after.get("calls", 0) == before.get("calls", 0)
