"""Backend-parity contract tests for parallel_map (thread vs process).

One warm pool (2 workers) is shared by the whole module — pools persist
between maps by design, so these tests exercise reuse as well.  Task
functions must live at module level: the process backend ships them by
qualified name.
"""

import os
import pickle
import subprocess
import sys
import textwrap
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro import obs, perf
from repro.designs import get_benchmark
from repro.eval.harness import baseline_script
from repro.obs.ledger import build_manifest
from repro.parallel import (
    DEFAULT_MAX_JOBS,
    in_worker,
    parallel_map,
    resolve_backend,
    resolve_jobs,
    shutdown_pools,
    sync_worker_perf,
)
from repro.parallel.pool import TaskSerializationError, WorkerDiedError
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


def _lookup(context: dict, key: str) -> int:
    return context[key]


def _stamp_start(x: int) -> tuple[int, float]:
    started = time.monotonic()
    perf.incr("test.stamped_tasks")
    time.sleep(0.2)  # later tasks start well after the first two
    return x, started


def _sleep_then_return(task: tuple[int, float]) -> int:
    item, delay = task
    time.sleep(delay)
    return item


def _die_on_two(x: int) -> int:
    if x == 2:
        os._exit(3)
    time.sleep(0.2)  # the other worker is mid-task when the pool retires
    return x


#: Unpickles of :class:`_LoadCounter` in this process.
_LOADS = 0


class _LoadCounter:
    """A task function that counts how often a process unpickled it."""

    def __getstate__(self) -> dict:
        return {"counted": True}  # non-empty, so unpickling calls __setstate__

    def __setstate__(self, state: dict) -> None:
        global _LOADS
        _LOADS += 1

    def __call__(self, x: int) -> tuple[int, int]:
        time.sleep(0.01)
        return os.getpid(), _LOADS


def _loads_by_worker(results: list[tuple[int, int]]) -> dict[int, set[int]]:
    loads: dict[int, set[int]] = {}
    for pid, count in results:
        loads.setdefault(pid, set()).add(count)
    return loads


def _synthesize(name: str) -> bool:
    bench = get_benchmark(name)
    result = synthesize_cached(
        None, bench.name, bench.verilog, baseline_script(bench), top=bench.top
    )
    return result.success


#: A GNN model and graph that live in the process that first embeds them.
_EMBEDDED: dict = {}


def _embed_misses(_x) -> tuple[int, int]:
    """Embed this process's own graph: (pid, embedding-cache misses it cost)."""
    from repro.gnn import GraphData, GraphSAGE, embedding_cache

    if not _EMBEDDED:
        _EMBEDDED["model"] = GraphSAGE(3, (4,), seed=0)
        _EMBEDDED["graph"] = GraphData(np.ones((3, 3)), [(0, 1), (1, 2)])
    before = embedding_cache.misses
    _EMBEDDED["model"].embed_graphs([_EMBEDDED["graph"]])
    return os.getpid(), embedding_cache.misses - before


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
        sums = parallel_map(_checksum, arrays, jobs=2, backend="process")
        assert sums == [float(a.sum()) for a in arrays]

    def test_closure_raises_serialization_error(self):
        captured = 10
        with pytest.raises(TaskSerializationError, match="'closure'"):
            parallel_map(
                lambda x: x + captured, range(6), jobs=2, backend="process",
                label="closure",
            )

    def test_unpicklable_item_raises_before_any_task_runs(self):
        parallel_map(_square, range(4), jobs=2, backend="process")  # warm
        sync_worker_perf()
        before = perf.counters().get("test.worker_event", 0)
        with pytest.raises(TaskSerializationError, match="item 2 of 'items'"):
            parallel_map(
                _count_and_time, [0, 1, lambda: 2], jobs=2, backend="process",
                label="items",
            )
        sync_worker_perf()
        assert perf.counters().get("test.worker_event", 0) == before

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


BACKENDS = pytest.mark.parametrize(
    ("jobs", "backend"),
    [(1, "thread"), (2, "thread"), (2, "process")],
    ids=["serial", "thread", "process"],
)


class TestOnResult:
    """``on_result`` reports each successful item as soon as it exists."""

    @BACKENDS
    def test_each_success_reported_once_before_return(self, jobs, backend):
        seen = []
        out = parallel_map(
            _square, range(8), jobs=jobs, backend=backend,
            on_result=lambda index, result: seen.append((index, result)),
        )
        assert out == [x * x for x in range(8)]
        assert sorted(seen) == [(x, x * x) for x in range(8)]

    @BACKENDS
    def test_failure_not_reported_and_lowest_index_raises(self, jobs, backend):
        seen = []
        with pytest.raises(Boom, match="bad input 3"):
            parallel_map(
                _boom_on_multiples_of_three, range(10), jobs=jobs,
                backend=backend,
                on_result=lambda index, result: seen.append(index),
            )
        # The serial loop stops at the failure; pools run every item.
        expected = [0, 1, 2] if jobs == 1 else [0, 1, 2, 4, 5, 7, 8]
        assert sorted(seen) == expected

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_fast_item_reported_while_slow_one_runs(self, backend):
        reported = {}
        out = parallel_map(
            _sleep_then_return, [(0, 2.0), (1, 0.0)], jobs=2, backend=backend,
            on_result=lambda index, result: reported.setdefault(
                index, time.monotonic()
            ),
        )
        returned = time.monotonic()
        assert out == [0, 1]
        assert set(reported) == {0, 1}
        assert returned - reported[1] >= 1.0, returned - reported[1]


class TestTransport:
    """The function ships once per worker per map; items go costliest-first."""

    def test_function_unpickled_once_per_worker_per_map(self):
        fn = _LoadCounter()
        first = _loads_by_worker(
            parallel_map(fn, range(12), jobs=2, backend="process")
        )
        second = _loads_by_worker(
            parallel_map(fn, range(12), jobs=2, backend="process")
        )
        # every task a worker ran in one map saw the same load count...
        assert all(len(counts) == 1 for counts in first.values())
        assert all(len(counts) == 1 for counts in second.values())
        # ...and the next map loaded the function once more
        for pid, counts in second.items():
            if pid in first:
                assert counts == {min(first[pid]) + 1}

    def test_partial_context_reaches_every_task(self):
        context = {f"k{i}": i * i for i in range(10)}
        out = parallel_map(
            partial(_lookup, context), list(context), jobs=2, backend="process"
        )
        assert out == [i * i for i in range(10)]

    def test_costliest_items_start_first(self):
        items = list(range(8))
        sync_worker_perf()
        before = perf.counters().get("test.stamped_tasks", 0)
        out = parallel_map(
            _stamp_start, items, jobs=2, backend="process", cost=float
        )
        sync_worker_perf()
        assert [x for x, _ in out] == items
        assert perf.counters()["test.stamped_tasks"] - before == len(items)
        by_start = sorted(out, key=lambda row: row[1])
        assert {x for x, _ in by_start[:2]} == {6, 7}


class TestWorkerDeath:
    def test_killed_worker_raises_typed_error_then_pool_respawns(self):
        with pytest.raises(
            WorkerDiedError,
            match=r"pool worker \d+ died while running task 2 of 'die'",
        ):
            parallel_map(_die_on_two, range(6), jobs=2, backend="process", label="die")
        assert issubclass(WorkerDiedError, RuntimeError)
        assert parallel_map(_square, range(6), jobs=2, backend="process") == [
            x * x for x in range(6)
        ]

    def test_surviving_worker_exits_quietly(self):
        root = Path(__file__).resolve().parents[2]
        script = textwrap.dedent(
            """
            from repro.parallel import parallel_map
            from tests.eval.test_parallel_backends import _die_on_two

            try:
                parallel_map(
                    _die_on_two, range(6), jobs=2, backend="process",
                    label="die",
                )
            except RuntimeError as exc:
                print(type(exc).__name__)
            """
        )
        env = dict(os.environ)
        env.pop("REPRO_TRACE", None)
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=root, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "WorkerDiedError"
        assert "BrokenPipeError" not in proc.stderr, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr


class TestWorkerState:
    """What the parent reads or resets must include the live workers."""

    def test_clear_caches_reaches_warm_workers(self):
        designs = ["aes", "dynamic_node"]
        assert all(parallel_map(_synthesize, designs, jobs=2, backend="process"))
        embedded = dict(parallel_map(_embed_misses, range(2), jobs=2, backend="process"))
        clear_caches()
        sync_worker_perf()
        before = perf.counters()
        assert all(parallel_map(_synthesize, designs, jobs=2, backend="process"))
        again = parallel_map(_embed_misses, range(2), jobs=2, backend="process")
        sync_worker_perf()
        after = perf.counters()
        for name, expected in (("synthcache.miss", 2), ("synthcache.hit", 0)):
            assert after.get(name, 0) - before.get(name, 0) == expected, name
        # A worker re-embedding a graph it embedded before the clear misses.
        rembedded = [misses for pid, misses in again if pid in embedded]
        assert rembedded and all(misses == 1 for misses in rembedded), (embedded, again)

    def test_manifest_counts_live_workers(self):
        parallel_map(_count_and_time, range(10), jobs=2, backend="process")
        manifest = build_manifest("workers")
        shutdown_pools()  # merges whatever the workers still hold
        snapshot = perf.snapshot()
        assert manifest["counters"]["test.worker_event"] >= 10
        assert manifest["counters"] == snapshot["counters"]
        assert manifest["stages"] == snapshot["timers"]
