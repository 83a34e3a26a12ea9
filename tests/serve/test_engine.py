"""Serving-engine behavior: parity, coalescing, policy, metrics, ledger."""

from __future__ import annotations

import json
import threading

import pytest

from repro.core import ChatLS
from repro.core import chatls as chatls_module
from repro.obs import metrics as obs_metrics
from repro.obs.ledger import load_manifest
from repro.serve import BatchPolicy, ChainState, ServeEngine, ServeRequest
from repro.serve.engine import _serve_metric_families
from repro.synth.cache import clear_caches, frontend_cache
from tests.retention import burst_requests, live_netlists, netlists_since


class TestBatchPolicy:
    def test_defaults(self):
        policy = BatchPolicy()
        assert policy.batch_max == 16
        assert policy.batch_wait_ms == 2.0

    def test_invalid_values_raise(self):
        with pytest.raises(ValueError, match="batch_max must be >= 1"):
            BatchPolicy(batch_max=0)
        with pytest.raises(ValueError, match="batch_wait_ms must be >= 0"):
            BatchPolicy(batch_wait_ms=-1)


class TestServeParity:
    def test_matches_sequential_loop(
        self, chatls, make_requests, expected_results, assert_identical
    ):
        engine = ServeEngine(chatls, policy=BatchPolicy(batch_max=8, batch_wait_ms=5))
        served = engine.run(make_requests())
        assert_identical(served, expected_results)
        # Every session went through every stage exactly once.
        assert engine.stage_sessions == {
            "analyze": 3, "retrieve": 3, "draft": 3, "revise": 3, "synthesize": 3,
        }

    def test_coalesces_concurrent_sessions(self, chatls, make_requests):
        engine = ServeEngine(chatls, policy=BatchPolicy(batch_max=8, batch_wait_ms=50))
        engine.run(make_requests())
        # All three sessions arrive at once and fit one batch per stage.
        for name in ("retrieve", "draft", "revise"):
            assert engine.batchers[name].batch_count == 1, name
            assert engine.batchers[name].max_batch == 3, name

    def test_batch_max_one_is_sequential_batching(
        self, chatls, make_requests, expected_results, assert_identical
    ):
        engine = ServeEngine(chatls, policy=BatchPolicy(batch_max=1, batch_wait_ms=0))
        served = engine.run(make_requests())
        assert_identical(served, expected_results)
        assert engine.batchers["retrieve"].max_batch == 1
        assert engine.batchers["retrieve"].batch_count == 3

    def test_no_evaluate_matches_customize(
        self, chatls, make_requests, sequential_results, assert_identical
    ):
        requests = make_requests(evaluate=False)
        engine = ServeEngine(chatls, policy=BatchPolicy(batch_max=8, batch_wait_ms=5))
        served = engine.run(requests)
        assert_identical(
            served, sequential_results(chatls, requests, evaluate=False)
        )
        assert all(result.qor is None for result in served)
        assert engine.stage_sessions["synthesize"] == 0

    def test_empty_run(self, chatls):
        assert ServeEngine(chatls).run([]) == []

    def test_process_backend(
        self, chatls, make_requests, expected_results, assert_identical
    ):
        from repro.parallel import shutdown_pools

        engine = ServeEngine(
            chatls,
            policy=BatchPolicy(batch_max=8, batch_wait_ms=5),
            backend="process",
            jobs=2,
        )
        try:
            served = engine.run(make_requests())
        finally:
            shutdown_pools()
        assert_identical(served, expected_results)


#: The synthesize stage's fan-out with the backend pinned, so that a
#: monkeypatched stage task runs in this process under any
#: ``REPRO_PARALLEL_BACKEND``: one job is the serial loop.
SYNTH_FANOUT = pytest.mark.parametrize("jobs", [1, 3], ids=["serial", "thread"])


def _record_results(monkeypatch, on_result=None) -> dict:
    """Patch ``ChainState.result``, the moment a session leaves the engine."""
    left: dict = {}
    original = ChainState.result

    def result(state):
        outcome = original(state)
        left[state.request.session_id] = outcome
        if on_result is not None:
            on_result(state)
        return outcome

    monkeypatch.setattr(ChainState, "result", result)
    return left


class TestPerSessionRelease:
    """A session leaves the synthesize stage when its own synthesis ends."""

    @SYNTH_FANOUT
    def test_fast_sessions_leave_before_slow_synthesis_ends(
        self, chatls, make_requests, expected_results, assert_identical,
        monkeypatch, jobs,
    ):
        requests = make_requests()
        slow_design = requests[-1].design_name  # last in the batch
        fast_left = threading.Event()
        slow_done = threading.Event()
        order: list[tuple[str, bool]] = []  # (session, slow synthesis over)

        def on_result(state):
            order.append((state.request.session_id, slow_done.is_set()))
            if len(order) == 2:
                fast_left.set()

        left = _record_results(monkeypatch, on_result)
        synthesize = chatls_module._synthesize_task

        def slow_synthesize(task):
            if task[1] != slow_design:
                return synthesize(task)
            # Without per-session release nobody leaves first: the wait
            # times out instead of hanging, and the asserts below fail.
            fast_left.wait(timeout=10)
            try:
                return synthesize(task)
            finally:
                slow_done.set()

        monkeypatch.setattr(chatls_module, "_synthesize_task", slow_synthesize)
        engine = ServeEngine(
            chatls, policy=BatchPolicy(batch_max=8, batch_wait_ms=50),
            jobs=jobs, backend="thread",
        )
        served = engine.run(requests)
        synth = engine.batchers["synthesize"]
        assert (synth.batch_count, synth.max_batch) == (1, 3)
        assert sorted(order[:2]) == [("s0000", False), ("s0001", False)]
        assert order[2] == ("s0002", True)
        assert_identical(served, expected_results)
        assert_identical([left[f"s{i:04d}"] for i in range(3)], expected_results)

    @pytest.mark.parametrize(
        ("jobs", "finished"),
        [(1, ["s0000"]), (3, ["s0000", "s0002"])],
        ids=["serial", "thread"],
    )
    def test_failing_synthesis_fails_only_its_session(
        self, chatls, make_requests, expected_results, assert_identical,
        monkeypatch, jobs, finished,
    ):
        """Batch-mates released before or beside a failing synthesis keep
        their results; the serial loop never runs the sessions queued
        behind the failure, so they fail with it."""
        requests = make_requests()
        bad_design = requests[1].design_name
        left = _record_results(monkeypatch)
        synthesize = chatls_module._synthesize_task

        def failing_synthesize(task):
            if task[1] == bad_design:
                raise _SynthesisCrash(task[1])
            return synthesize(task)

        monkeypatch.setattr(
            chatls_module, "_synthesize_task", failing_synthesize
        )
        engine = ServeEngine(
            chatls, policy=BatchPolicy(batch_max=8, batch_wait_ms=50),
            jobs=jobs, backend="thread",
        )
        with pytest.raises(_SynthesisCrash, match=bad_design):
            engine.run(requests)
        # The batch is counted although its kernel raised.
        synth = engine.batchers["synthesize"]
        assert (synth.batch_count, synth.item_count, synth.max_batch) == (1, 3, 3)
        assert sorted(left) == finished
        assert_identical(
            [left[session] for session in finished],
            [expected_results[int(session[1:])] for session in finished],
        )


class _SynthesisCrash(RuntimeError):
    pass


def test_synthesis_cost_hint_is_the_cell_count(
    chatls, make_requests, expected_results, monkeypatch
):
    """The process pool dispatches synthesis costliest first by the
    analysis's cell count, which tracks synthesis time."""
    hints: dict[str, float] = {}
    parallel_map = chatls_module.parallel_map

    def recording(fn, items, **kwargs):
        items = list(items)
        if kwargs.get("label") == "chatls-synthesize":
            hints.update((task[1], kwargs["cost"](task)) for task in items)
        return parallel_map(fn, items, **kwargs)

    monkeypatch.setattr(chatls_module, "parallel_map", recording)
    requests = make_requests()
    engine = ServeEngine(chatls, policy=BatchPolicy(batch_max=8, batch_wait_ms=50))
    engine.run(requests)
    assert hints == {
        request.design_name: expected.analysis.num_cells
        for request, expected in zip(requests, expected_results)
    }


class TestAblationParity:
    """The serve path must honour the paper's ablation switches."""

    def test_no_rag(self, tiny_database, make_requests, sequential_results,
                    assert_identical):
        from repro.llm import chatls_core

        ablated = ChatLS(tiny_database, llm=chatls_core(), use_rag=False)
        requests = make_requests()
        engine = ServeEngine(ablated, policy=BatchPolicy(batch_max=8, batch_wait_ms=5))
        assert_identical(
            engine.run(requests), sequential_results(ablated, requests)
        )

    def test_no_synthexpert(self, tiny_database, make_requests, sequential_results,
                            assert_identical):
        from repro.llm import chatls_core

        ablated = ChatLS(tiny_database, llm=chatls_core(), use_synthexpert=False)
        requests = make_requests()
        engine = ServeEngine(ablated, policy=BatchPolicy(batch_max=8, batch_wait_ms=5))
        served = engine.run(requests)
        assert_identical(served, sequential_results(ablated, requests))
        assert all(len(result.trace.steps) == 0 for result in served)


class TestServeObservability:
    def test_batch_size_histogram_recorded(self, chatls, make_requests):
        engine = ServeEngine(chatls, policy=BatchPolicy(batch_max=8, batch_wait_ms=5))
        engine.run(make_requests())
        rendered = obs_metrics.render()
        assert "repro_serve_batch_size_bucket" in rendered
        assert 'stage="retrieve"' in rendered

    def test_gauges_collectable(self, chatls, make_requests):
        engine = ServeEngine(chatls, policy=BatchPolicy(batch_max=8, batch_wait_ms=5))
        engine.run(make_requests())
        families = {family.name: family for family in _serve_metric_families()}
        assert "repro_serve_inflight_sessions" in families
        assert families["repro_serve_inflight_sessions"].samples[0].value == 0
        assert "repro_serve_queue_depth" in families

    def test_stage_timers_feed_perf(self, chatls, make_requests):
        from repro import perf

        engine = ServeEngine(chatls, policy=BatchPolicy(batch_max=8, batch_wait_ms=5))
        engine.run(make_requests())
        timers = perf.snapshot()["timers"]
        for stage in ("analyze", "retrieve", "draft", "revise", "synthesize"):
            assert f"serve.{stage}" in timers, stage

    def test_run_ledger_manifest(self, chatls, make_requests, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_LEDGER", str(tmp_path))
        engine = ServeEngine(chatls, policy=BatchPolicy(batch_max=8, batch_wait_ms=5))
        engine.run(make_requests())
        manifests = sorted(tmp_path.glob("*.json"))
        assert manifests, "no manifest recorded"
        manifest = load_manifest(str(manifests[-1]))
        assert manifest["label"] == "serve"
        serve = manifest["extra"]
        assert serve["sessions"] == 3
        assert serve["throughput_sessions_per_s"] > 0
        assert serve["stages"]["retrieve"]["sessions"] == 3
        assert any(name.startswith("serve.") for name in manifest["stages"])
        json.dumps(manifest)  # manifest stays JSON-serializable


class TestServeRetention:
    def test_finished_sessions_keep_no_netlist(self, chatls):
        """Served results, analyses included, hold no netlist, and each
        session's synthesis took the netlist its analysis handed over:
        after two 7-session bursts no netlist is alive.  The thread
        backend is pinned: the hand-over happens in this process's cache."""
        clear_caches()
        before = live_netlists()
        requests = burst_requests(8) + burst_requests(9)
        engine = ServeEngine(
            chatls, policy=BatchPolicy(batch_max=8, batch_wait_ms=5), backend="thread"
        )
        results = engine.run(requests, arrival_delays=[0.0] * 7 + [0.05] * 7)
        assert len(results) == 14 and all(result.executable for result in results)
        assert netlists_since(before) == []
        stats = frontend_cache().stats()
        assert (stats["entries"], stats["cells"], stats["hits"], stats["misses"]) == (
            0, 0, 14, 14
        )
