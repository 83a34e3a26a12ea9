"""End-to-end trace of a real customization run (the acceptance check):

every SynthExpert step span and every SynthRAG retrieval span — including
those emitted from ``parallel_map`` worker threads — must be a descendant
of the ``chatls.customize`` root span.  Untraced, the same run still times
every layer into the perf registry.
"""

import json

import pytest

from repro import obs, perf
from repro.core import ChatLS
from repro.designs import get_benchmark
from repro.designs.chipyard import generate_family_variant
from repro.designs.database import ExpertDatabase
from repro.eval.harness import TIMING_REQUIREMENT, baseline_script
from repro.mentor import CircuitEncoder
from repro.parallel import sync_worker_perf
from repro.synth.cache import clear_caches


@pytest.fixture(scope="module")
def db():
    database = ExpertDatabase(CircuitEncoder(seed=0))
    for family in ("rocket", "sha3"):
        database.add_design(
            generate_family_variant(family, 0),
            strategies=["baseline_compile", "ultra_retime"],
        )
    return database


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory, db):
    result, spans = _run_traced_pass_at_k(tmp_path_factory.mktemp("obs"), db)
    # the module-scoped run outlives the per-test reset fixture, so
    # restore the disabled default here too
    obs.configure(None)
    return result, spans


def _run_traced_pass_at_k(tmp_path, db):
    # These tests assert the *thread* backend's span-nesting contract
    # (worker spans descend from the customize root).  The process
    # backend re-roots worker spans into sidecar traces instead — that
    # contract is covered by tests/obs/test_process_trace.py — so the
    # traced run is pinned to threads regardless of the ambient env.
    patcher = pytest.MonkeyPatch()
    patcher.setenv("REPRO_PARALLEL_BACKEND", "thread")
    try:
        return _run_traced_pass_at_k_threaded(tmp_path, db)
    finally:
        patcher.undo()


def _run_traced_pass_at_k_threaded(tmp_path, db):
    tracer = obs.configure(str(tmp_path / "trace.jsonl"))
    bench = get_benchmark("aes")
    result = ChatLS(db).customize_pass_at_k(
        bench.verilog,
        bench.name,
        baseline_script(bench),
        TIMING_REQUIREMENT,
        k=2,
        top=bench.top,
        clock_period=bench.clock_period,
        jobs=2,
    )
    tracer.shutdown()
    with open(tracer.path) as fh:
        events = [json.loads(line) for line in fh if line.strip()]
    return result, [e for e in events if e.get("type") == "span"]


class TestTracedCustomization:
    def test_retrieval_and_expert_spans_descend_from_root(self, traced_run):
        result, spans = traced_run
        assert result.executable
        by_id = {s["span"]: s for s in spans}
        roots = [s for s in spans if s["name"] == "chatls.customize"]
        assert len(roots) == 1
        root_id = roots[0]["span"]

        def has_root_ancestor(record):
            while record.get("parent"):
                record = by_id[record["parent"]]
                if record["span"] == root_id:
                    return True
            return False

        checked = [
            s
            for s in spans
            if s["name"].startswith(("rag.", "expert.step"))
        ]
        assert checked, "expected rag/expert spans in the trace"
        assert all(has_root_ancestor(s) for s in checked)
        # spans genuinely came from parallel worker threads
        worker_spans = [s for s in checked if s["tname"] != "MainThread"]
        assert worker_spans, "expected retrieval spans from worker threads"
        # all spans of the run share the root's trace id
        assert {s["trace"] for s in checked} == {roots[0]["trace"]}

    def test_stage_coverage(self, traced_run):
        _, spans = traced_run
        names = {s["name"] for s in spans}
        for expected in (
            "chatls.customize",
            "chatls.analyze",
            "chatls.retrieve",
            "chatls.draft",
            "chatls.revise",
            "expert.step",
            "rag.embedding",
            "rag.manual",
            "eval.task",
            "synth.synthesize",
            "synth.script",
            "synth.compile",
            "synth.techmap",
            "pass.size_gates",
            "synth.sta",
            "gnn.embed",
            "llm.complete",
        ):
            assert expected in names, f"missing stage span {expected}"

    def test_sta_spans_carry_mode_and_perf_deltas(self, traced_run):
        _, spans = traced_run
        sta = [s for s in spans if s["name"] == "synth.sta"]
        assert sta
        assert {s["attrs"]["mode"] for s in sta} <= {"full", "incremental"}
        root = next(s for s in spans if s["name"] == "chatls.customize")
        delta = root["attrs"].get("perf", {})
        assert delta.get("sta.full", 0) + delta.get("sta.incremental", 0) > 0


class TestUntracedCustomization:
    def test_perf_timers_cover_every_layer(self, db):
        obs.configure(None)
        clear_caches()  # synthesize for real, even after the traced run
        perf.reset()
        bench = get_benchmark("aes")
        ChatLS(db).customize_pass_at_k(
            bench.verilog,
            bench.name,
            baseline_script(bench),
            TIMING_REQUIREMENT,
            k=2,
            top=bench.top,
            clock_period=bench.clock_period,
            jobs=2,
        )
        sync_worker_perf()  # the process backend ran the seeds in workers
        timers = perf.snapshot()["timers"]
        for stage in ("chatls.customize", "rag.manual", "expert.step", "synth.sta",
                      "gnn.embed", "llm.complete"):
            assert timers.get(stage, {}).get("calls", 0) > 0, f"no {stage} timer"
