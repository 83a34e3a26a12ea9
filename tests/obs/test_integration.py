"""End-to-end trace of a real customization run (the acceptance check):

every SynthExpert step span and every SynthRAG retrieval span — including
those emitted from ``parallel_map`` worker threads — must be a descendant
of the ``chatls.customize`` root span.  Untraced, the same run still times
every layer into the perf registry.  A stage's span is its record: a CoT
step's edit and a synthesis batch's failures are span attributes.
"""

import json

import pytest

from repro import obs, perf
from repro.core import ChatLS, SynthExpert
from repro.designs import get_benchmark
from repro.designs.chipyard import generate_family_variant
from repro.designs.database import ExpertDatabase
from repro.eval.harness import TIMING_REQUIREMENT, baseline_script
from repro.llm import chatls_core
from repro.mentor import CircuitEncoder, build_circuit_graph
from repro.parallel import sync_worker_perf
from repro.rag import SynthRAG
from repro.synth import SynthesisCache, synthesize_batch
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


def _spans_named(tracer, name):
    tracer.flush()
    with open(tracer.path) as fh:
        events = [json.loads(line) for line in fh if line.strip()]
    return [e for e in events if e.get("type") == "span" and e["name"] == name]


class TestStageRecords:
    def test_expert_step_spans_record_each_edit(self, db, tmp_path):
        design = generate_family_variant("rocket", 2)
        circuit = build_circuit_graph(design.verilog, design.name, top=design.top)
        rag = SynthRAG.build(db, circuit=circuit, llm=chatls_core())
        tracer = obs.configure(str(tmp_path / "trace.jsonl"))
        script = "\n".join([
            "create_clock -period 1.0 clk",
            "retime_design -effort high",  # hallucinated: repaired from intent
            "compile_ultra -auto_retime",  # undocumented option: sanitized
            "write_sdf out.sdf",  # unknown, no intent match: dropped
            "report_qor",
        ])
        SynthExpert(chatls_core(), rag).refine(script)
        steps = {s["attrs"]["command"]: s["attrs"] for s in _spans_named(tracer, "expert.step")}
        assert set(steps) == {"retime_design", "compile_ultra", "write_sdf", "report_qor"}
        edits = {
            (attrs["before"], attrs.get("after"))
            for attrs in steps.values() if attrs["action"] == "repaired"
        }
        assert edits == {
            ("retime_design -effort high", "optimize_registers"),
            ("compile_ultra -auto_retime", "compile_ultra"),
        }
        dropped = steps["write_sdf"]
        assert dropped["action"] == "dropped"
        assert dropped["before"] == "write_sdf out.sdf"
        assert "after" not in dropped
        for attrs in steps.values():
            assert ("reason" in attrs) == (attrs["action"] != "kept")
        assert "before" not in steps["report_qor"]

    def test_synthesize_span_counts_failed_scripts(self, tmp_path):
        bench = get_benchmark("dynamic_node")
        good = baseline_script(bench)
        scripts = [good, good + "\nno_such_command"]
        cache = SynthesisCache()
        tracer = obs.configure(str(tmp_path / "trace.jsonl"))
        ran = synthesize_batch(None, bench.name, bench.verilog, scripts, top=bench.top, cache=cache)
        served = synthesize_batch(None, bench.name, bench.verilog, scripts, top=bench.top, cache=cache)
        assert [r.success for r in ran] == [r.success for r in served] == [True, False]
        assert "no_such_command" in ran[1].error
        first, second = (s["attrs"] for s in _spans_named(tracer, "synth.synthesize"))
        assert (first["cached"], first["failed"]) == (0, 1)
        assert (second["cached"], second["failed"]) == (2, 1)
