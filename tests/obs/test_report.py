"""Report CLI tests on a canned trace (golden-ish output assertions)."""

import json

import pytest

from repro.obs.report import load_events, main, percentile, render_report, summarize


def canned_events():
    """A tiny deterministic trace: one root, three rag spans, a snapshot."""
    spans = [
        ("chatls.customize", "s1", None, 0.00, 1.00),
        ("rag.manual", "s2", "s1", 0.10, 0.10),
        ("rag.manual", "s3", "s1", 0.30, 0.20),
        ("rag.manual", "s4", "s1", 0.60, 0.30),
    ]
    events = [{"type": "meta", "pid": 1, "format": "jsonl"}]
    for name, sid, parent, ts, dur in spans:
        events.append(
            {
                "type": "span",
                "name": name,
                "trace": "t1",
                "span": sid,
                "parent": parent,
                "ts": ts,
                "dur": dur,
                "tid": 1,
                "tname": "MainThread",
                "attrs": {"k": 2} if name == "rag.manual" else {},
            }
        )
    events.append(
        {
            "type": "snapshot",
            "ts": 1.0,
            "perf": {
                "counters": {"synthcache.hit": 5, "sta.full": 2},
                "timers": {},
                "caches": {
                    "synthesis": {"entries": 3, "hits": 5, "misses": 4},
                    "netlist": {"entries": 1, "hits": 7, "misses": 1},
                },
            },
        }
    )
    return events


def write_trace(path, events):
    path.write_text("\n".join(json.dumps(e) for e in events) + "\n")
    return str(path)


class TestSummarize:
    def test_stage_aggregation(self):
        summary = summarize(canned_events())
        manual = summary["stages"]["rag.manual"]
        assert manual["calls"] == 3
        assert manual["total_s"] == pytest.approx(0.6)
        assert manual["p50_s"] == pytest.approx(0.2)
        assert manual["p95_s"] == pytest.approx(0.3)
        assert manual["max_s"] == pytest.approx(0.3)
        assert summary["stages"]["chatls.customize"]["calls"] == 1
        assert summary["traces"] == 1

    def test_counters_from_snapshot(self):
        summary = summarize(canned_events())
        assert summary["counters"] == {"synthcache.hit": 5, "sta.full": 2}
        assert summary["caches"]["netlist"]["hits"] == 7

    def test_counters_fall_back_to_root_deltas(self):
        events = [e for e in canned_events() if e["type"] == "span"]
        events[0]["attrs"]["perf"] = {"sta.full": 3}
        summary = summarize(events)
        assert summary["counters"] == {"sta.full": 3}

    def test_slowest_ordering(self):
        slowest = summarize(canned_events())["slowest"]
        assert [s["dur"] for s in slowest] == sorted(
            (s["dur"] for s in slowest), reverse=True
        )


class TestPercentile:
    def test_nearest_rank(self):
        assert percentile([0.1, 0.2, 0.3], 0.5) == 0.2
        assert percentile([0.1, 0.2, 0.3], 0.95) == 0.3
        assert percentile([0.4], 0.5) == 0.4
        assert percentile([], 0.5) == 0.0


class TestRenderReport:
    def test_golden_sections(self):
        text = render_report(canned_events())
        assert "OBSERVABILITY RUN REPORT" in text
        assert "Per-stage time breakdown" in text
        assert "Perf counters" in text
        assert "Caches" in text
        assert "Slowest spans" in text
        # stage row: rag.manual with exact aggregates
        manual_line = next(l for l in text.splitlines() if l.startswith("rag.manual"))
        assert "0.600000" in manual_line  # total
        assert "3" in manual_line  # calls
        assert "0.200000" in manual_line  # p50
        assert "0.300000" in manual_line  # p95
        # counter summary rows
        assert "synthcache.hit" in text and "sta.full" in text
        # slowest span is the root
        slow_section = text[text.index("Slowest spans") :]
        first_row = slow_section.splitlines()[3]
        assert first_row.startswith("chatls.customize")

    def test_stages_sorted_by_total_desc(self):
        text = render_report(canned_events())
        lines = text.splitlines()
        start = lines.index("Per-stage time breakdown") + 3
        assert lines[start].startswith("chatls.customize")
        assert lines[start + 1].startswith("rag.manual")


class TestCLI:
    def test_main_prints_report(self, tmp_path, capsys):
        trace = write_trace(tmp_path / "trace.jsonl", canned_events())
        assert main([trace]) == 0
        out = capsys.readouterr().out
        assert "Per-stage time breakdown" in out

    def test_main_converts_chrome(self, tmp_path, capsys):
        trace = write_trace(tmp_path / "trace.jsonl", canned_events())
        chrome_out = tmp_path / "trace.json"
        assert main([trace, "--chrome", str(chrome_out)]) == 0
        document = json.load(open(chrome_out))
        assert any(e["name"] == "rag.manual" for e in document["traceEvents"])

    def test_main_rejects_empty_trace(self, tmp_path, capsys):
        trace = write_trace(tmp_path / "trace.jsonl", [{"type": "meta"}])
        assert main([trace]) == 1

    def test_load_events_skips_bad_lines_by_default(self, tmp_path, capsys):
        """A truncated tail (worker killed mid-write) must not lose the run."""
        path = tmp_path / "torn.jsonl"
        good = {"type": "span", "name": "a", "trace": "t", "span": "s",
                "parent": None, "ts": 0.0, "dur": 0.1, "tid": 1,
                "tname": "MainThread", "attrs": {}}
        path.write_text(
            json.dumps(good) + "\n"
            + '{"type": "span", "name": "trunca'  # torn mid-record
            + "\n[1, 2, 3]\n"  # valid JSON but not an object
        )
        events = load_events(str(path))
        assert [e["name"] for e in events] == ["a"]
        err = capsys.readouterr().err
        assert "skipped 2 unparseable lines" in err
        assert "torn.jsonl:2" in err  # first bad location reported

    def test_main_survives_truncated_trace(self, tmp_path, capsys):
        events = canned_events()
        trace = tmp_path / "trace.jsonl"
        text = "\n".join(json.dumps(e) for e in events) + "\n"
        trace.write_text(text + '{"type": "span", "name": "to')  # torn tail
        assert main([str(trace)]) == 0
        assert "Per-stage time breakdown" in capsys.readouterr().out

    def test_main_fails_when_no_line_parses(self, tmp_path, capsys):
        trace = tmp_path / "all_torn.jsonl"
        trace.write_text('{"a\n{"b\n')
        assert main([str(trace)]) == 1
        assert "no spans recorded" in capsys.readouterr().err
