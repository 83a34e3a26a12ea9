"""Tracer tests: nesting, attributes, perf deltas and timers,
cross-thread propagation, exporters, and the disabled-mode fast path."""

import json
import threading

import pytest

from repro import obs, perf
from repro.obs.chrome import to_chrome
from repro.obs.tracer import NOOP_SPAN
from repro.parallel import parallel_map


def read_events(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def spans_of(events):
    return [e for e in events if e.get("type") == "span"]


class TestSpanNesting:
    def test_parent_child_ids(self, tmp_path):
        tracer = obs.configure(str(tmp_path / "t.jsonl"))
        with obs.span("outer", a=1) as outer:
            with obs.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        tracer.flush()
        events = spans_of(read_events(tracer.path))
        by_name = {e["name"]: e for e in events}
        # children close first, so inner precedes outer in the log
        assert [e["name"] for e in events] == ["inner", "outer"]
        assert by_name["inner"]["parent"] == by_name["outer"]["span"]
        assert by_name["inner"]["trace"] == by_name["outer"]["trace"]
        assert by_name["outer"]["parent"] is None

    def test_sibling_roots_get_distinct_traces(self, tmp_path):
        tracer = obs.configure(str(tmp_path / "t.jsonl"))
        with obs.span("first"):
            pass
        with obs.span("second"):
            pass
        tracer.flush()
        events = spans_of(read_events(tracer.path))
        assert events[0]["trace"] != events[1]["trace"]

    def test_attribute_capture(self, tmp_path):
        tracer = obs.configure(str(tmp_path / "t.jsonl"))
        with obs.span("op", k=3) as sp:
            sp.set_attribute("hits", 2)
            sp.set_attributes(scores=[0.5, 0.25])
        tracer.flush()
        (record,) = spans_of(read_events(tracer.path))
        assert record["attrs"]["k"] == 3
        assert record["attrs"]["hits"] == 2
        assert record["attrs"]["scores"] == [0.5, 0.25]

    def test_exception_recorded_and_propagates(self, tmp_path):
        tracer = obs.configure(str(tmp_path / "t.jsonl"))
        with pytest.raises(ValueError, match="boom"):
            with obs.span("fails"):
                raise ValueError("boom")
        tracer.flush()
        (record,) = spans_of(read_events(tracer.path))
        assert record["attrs"]["error"] == "ValueError: boom"

    def test_perf_counter_deltas(self, tmp_path):
        tracer = obs.configure(str(tmp_path / "t.jsonl"))
        with obs.span("outer"):
            perf.incr("obs.test.outer", 2)
            with obs.span("inner"):
                perf.incr("obs.test.inner")
        tracer.flush()
        by_name = {e["name"]: e for e in spans_of(read_events(tracer.path))}
        assert by_name["inner"]["attrs"]["perf"] == {"obs.test.inner": 1}
        # the outer span sees its whole subtree's counters
        outer_delta = by_name["outer"]["attrs"]["perf"]
        assert outer_delta["obs.test.outer"] == 2
        assert outer_delta["obs.test.inner"] == 1

    def test_traced_span_times_into_perf(self, tmp_path):
        tracer = obs.configure(str(tmp_path / "t.jsonl"))
        before = perf.snapshot()["timers"].get("obs.test.traced", {}).get("calls", 0)
        with obs.span("obs.test.traced"):
            pass
        tracer.flush()
        assert len(spans_of(read_events(tracer.path))) == 1
        assert perf.snapshot()["timers"]["obs.test.traced"]["calls"] == before + 1

    def test_current_span(self, tmp_path):
        obs.configure(str(tmp_path / "t.jsonl"))
        assert obs.current_span() is NOOP_SPAN
        with obs.span("op") as sp:
            assert obs.current_span() is sp
        assert obs.current_span() is NOOP_SPAN


class TestCrossThread:
    def test_parallel_map_workers_nest_under_caller(self, tmp_path):
        tracer = obs.configure(str(tmp_path / "t.jsonl"))

        def work(i):
            with obs.span("worker.op", item=i):
                return i

        with obs.span("harness") as root:
            parallel_map(work, range(6), jobs=3, backend="thread")
        tracer.flush()
        events = spans_of(read_events(tracer.path))
        tasks = [e for e in events if e["name"] == "eval.task"]
        ops = [e for e in events if e["name"] == "worker.op"]
        assert len(tasks) == 6 and len(ops) == 6
        assert all(e["trace"] == root.trace_id for e in tasks + ops)
        assert {e["parent"] for e in tasks} == {root.span_id}
        task_ids = {e["span"] for e in tasks}
        assert all(e["parent"] in task_ids for e in ops)
        # the work really ran on worker threads, not the main thread
        assert any(e["tname"] != threading.current_thread().name for e in ops)

    def test_plain_threads_inherit_nothing(self, tmp_path):
        tracer = obs.configure(str(tmp_path / "t.jsonl"))
        done = threading.Event()

        def worker():
            with obs.span("detached"):
                done.set()

        with obs.span("root"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert done.wait(1)
        tracer.flush()
        by_name = {e["name"]: e for e in spans_of(read_events(tracer.path))}
        # a raw Thread has a fresh context: the span is a new root
        assert by_name["detached"]["parent"] is None
        assert by_name["detached"]["trace"] != by_name["root"]["trace"]


class TestDisabledMode:
    def test_span_is_shared_noop(self):
        """An untraced span is falsy, opens no context and only times itself."""
        obs.configure(None)
        before = perf.snapshot()["timers"].get("obs.test.untraced", {}).get("calls", 0)
        with obs.span("obs.test.untraced", k=1) as sp:
            assert not sp
            assert sp.span_id == "" and sp.parent_id is None
            assert obs.current_span() is NOOP_SPAN
            sp.set_attribute("a", 1)
            sp.set_attributes(b=2)
        assert perf.snapshot()["timers"]["obs.test.untraced"]["calls"] == before + 1
        assert not obs.tracing_enabled()

    def test_no_events_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        tracer = obs.configure(None)
        with obs.span("op"):
            pass
        tracer.flush()
        tracer.shutdown()
        assert tracer.events() == []
        assert list(tmp_path.iterdir()) == []

    def test_env_configuration(self, tmp_path, monkeypatch):
        import repro.obs.tracer as tracer_mod

        monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "env.jsonl"))
        monkeypatch.setattr(tracer_mod, "_TRACER", None)
        tracer = obs.get_tracer()
        assert tracer.enabled
        assert tracer.path == str(tmp_path / "env.jsonl")


class TestChromeExport:
    def test_json_path_selects_chrome_format(self, tmp_path):
        path = str(tmp_path / "trace.json")
        tracer = obs.configure(path)
        assert tracer.format == "chrome"
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        tracer.shutdown()
        document = json.load(open(path))
        names = {e["name"] for e in document["traceEvents"]}
        assert {"outer", "inner"}.issubset(names)

    def test_chrome_events_validate(self, tmp_path):
        tracer = obs.configure(str(tmp_path / "t.jsonl"))
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        tracer.flush()
        events = read_events(tracer.path)
        document = to_chrome(events)
        # round-trips as JSON
        document = json.loads(json.dumps(document))
        complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
        by_name = {e["name"]: e for e in complete}
        for record in complete:
            assert record["ts"] >= 0
            assert record["dur"] >= 0
        # monotonically consistent: the child lies within the parent
        outer, inner = by_name["outer"], by_name["inner"]
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-3

    def test_thread_metadata_present(self, tmp_path):
        tracer = obs.configure(str(tmp_path / "t.jsonl"))
        with obs.span("op"):
            pass
        tracer.flush()
        document = to_chrome(read_events(tracer.path))
        metadata = [e for e in document["traceEvents"] if e["ph"] == "M"]
        assert any(e["name"] == "thread_name" for e in metadata)


class TestShutdown:
    def test_shutdown_appends_perf_snapshot(self, tmp_path):
        tracer = obs.configure(str(tmp_path / "t.jsonl"))
        perf.incr("obs.test.shutdown")
        with obs.span("op"):
            pass
        tracer.shutdown()
        events = read_events(tracer.path)
        (snap,) = [e for e in events if e.get("type") == "snapshot"]
        assert snap["perf"]["counters"]["obs.test.shutdown"] >= 1

    def test_meta_header_line(self, tmp_path):
        tracer = obs.configure(str(tmp_path / "t.jsonl"))
        with obs.span("op"):
            pass
        tracer.flush()
        first = read_events(tracer.path)[0]
        assert first["type"] == "meta"
        assert first["format"] == "jsonl"

    def test_incremental_jsonl_flushes_append(self, tmp_path):
        tracer = obs.configure(str(tmp_path / "t.jsonl"))
        with obs.span("one"):
            pass
        tracer.flush()
        with obs.span("two"):
            pass
        tracer.flush()
        names = [e["name"] for e in spans_of(read_events(tracer.path))]
        assert names == ["one", "two"]
