"""Metrics registry, exposition format, perf bridge and endpoint."""

import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import perf
from repro.obs import metrics
from repro.obs.metrics import (
    MetricFamily,
    MetricsRegistry,
    collect_perf,
    parse_exposition,
    render,
    sanitize_name,
)
from repro.parallel import parallel_map


@pytest.fixture(autouse=True)
def _stop_endpoint():
    yield
    metrics.stop_server()


def scrape(port: int, path: str = "/metrics") -> str:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=5) as r:
        assert r.status == 200
        return r.read().decode()


def gauge_callback(name: str, read, **labels):
    """A collect-time callback reporting ``read()`` as one gauge sample."""

    def collect():
        family = MetricFamily(name, "gauge")
        family.add(read(), **labels)
        return [family]

    return collect


class TestCounter:
    def test_rejects_bad_names(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            reg.histogram("bad-name")
        with pytest.raises(ValueError, match="invalid label name"):
            reg.histogram("ok").observe(1.0, **{"bad-label": "v"})

    def test_sanitize_name(self):
        assert sanitize_name("synthcache.hit") == "synthcache_hit"
        assert sanitize_name("9lives") == "_9lives"


class TestGauge:
    def test_callback_child_evaluated_at_collect(self):
        reg = MetricsRegistry()
        state = {"v": 1.0}
        reg.register_callback(
            "live", gauge_callback("g", lambda: state["v"], src="live")
        )
        state["v"] = 42.0
        (family,) = reg.collect()
        assert family.type == "gauge"
        assert family.samples[0].value == 42.0

    def test_dead_callback_skipped_at_collect(self):
        reg = MetricsRegistry()
        reg.register_callback("dead", gauge_callback("g_dead", lambda: 1 / 0))
        reg.register_callback("ok", gauge_callback("g_ok", lambda: 5, src="ok"))
        families = reg.collect()
        assert [(f.name, f.samples[0].value) for f in families] == [("g_ok", 5)]


class TestHistogram:
    def test_buckets_cumulative_and_exact_sum_count(self):
        h = MetricsRegistry().histogram("h_seconds", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.5, 5.0):
            h.observe(v)
        family = h.collect()
        by_le = {
            s.labels["le"]: s.value
            for s in family.samples
            if s.name == "h_seconds_bucket"
        }
        assert by_le == {"0.01": 1, "0.1": 2, "1": 3, "+Inf": 4}
        total = next(s for s in family.samples if s.name == "h_seconds_sum")
        count = next(s for s in family.samples if s.name == "h_seconds_count")
        assert total.value == pytest.approx(5.555)
        assert count.value == 4

    def test_boundary_value_lands_in_its_bucket(self):
        # le is an upper *inclusive* bound: observe(0.1) counts in le="0.1".
        h = MetricsRegistry().histogram("h_seconds", buckets=(0.1, 1.0))
        h.observe(0.1)
        by_le = {s.labels["le"]: s.value for s in h.collect().samples if "le" in s.labels}
        assert by_le["0.1"] == 1

    def test_rejects_non_increasing_buckets(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            MetricsRegistry().histogram("h", buckets=(1.0, 1.0))


class TestRegistry:
    def test_get_or_create_idempotent(self):
        reg = MetricsRegistry()
        assert reg.histogram("x_seconds") is reg.histogram("x_seconds")

    def test_collect_drops_empty_families(self):
        reg = MetricsRegistry()
        reg.histogram("never_used_seconds")
        reg.histogram("used_seconds").observe(0.5)
        assert [f.name for f in reg.collect()] == ["used_seconds"]

    def test_broken_callback_does_not_kill_scrape(self):
        reg = MetricsRegistry()
        reg.histogram("ok_seconds").observe(0.5)
        reg.register_callback("boom", lambda: 1 / 0)
        assert [f.name for f in reg.collect()] == ["ok_seconds"]


class TestExpositionRoundTrip:
    def build(self):
        reg = MetricsRegistry()

        def jobs_and_depth():
            jobs = MetricFamily("jobs_total", "counter", "Jobs.")
            jobs.add(3, queue='we"ird\\path')
            depth = MetricFamily("depth", "gauge")
            depth.add(2.5, pool="p0")
            return [jobs, depth]

        reg.register_callback("jobs", jobs_and_depth)
        h = reg.histogram("lat_seconds", "Latency.", buckets=(0.01, 0.1))
        h.observe(0.005)
        h.observe(0.05)
        h.observe(7.0)
        return reg

    def test_every_line_parses_and_types_survive(self):
        types, samples = parse_exposition(render(self.build()))
        assert types == {
            "jobs_total": "counter",
            "depth": "gauge",
            "lat_seconds": "histogram",
        }
        job = next(s for s in samples if s.name == "jobs_total")
        assert job.labels == {"queue": 'we"ird\\path'}  # escapes round-trip
        assert job.value == 3

    def test_histogram_invariants_validated(self):
        types, samples = parse_exposition(render(self.build()))
        by_le = {s.labels["le"]: s.value for s in samples if s.name == "lat_seconds_bucket"}
        assert by_le == {"0.01": 1, "0.1": 2, "+Inf": 3}

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError, match="unparseable sample"):
            parse_exposition("!!! not a metric\n")
        with pytest.raises(ValueError, match="bad TYPE"):
            parse_exposition("# TYPE x bogus_kind\n")
        with pytest.raises(ValueError, match="bad value"):
            parse_exposition("x twelve\n")

    def test_parser_rejects_decreasing_buckets(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\n'
            'h_bucket{le="1"} 3\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_count 3\n"
        )
        with pytest.raises(ValueError, match="bucket counts decrease"):
            parse_exposition(text)

    def test_parser_rejects_inf_count_mismatch(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 3\n'
            "h_count 4\n"
        )
        with pytest.raises(ValueError, match="!="):
            parse_exposition(text)


class TestPerfBridge:
    def test_counters_timers_and_caches_bridge(self):
        perf.reset()
        try:
            perf.incr("bridge.test_event", 7)
            for ms in (1, 2, 50):
                perf.add_time("bridge.test_stage", ms / 1000.0)
            families = {f.name: f for f in collect_perf()}
            events = families["repro_perf_events_total"]
            assert any(
                s.labels.get("name") == "bridge.test_event" and s.value == 7
                for s in events.samples
            )
            stage = [
                s for s in families["repro_stage_seconds"].samples
                if s.labels.get("stage") == "bridge.test_stage"
            ]
            count = next(s for s in stage if s.name == "repro_stage_seconds_count")
            assert count.value == 3
            total = next(s for s in stage if s.name == "repro_stage_seconds_sum")
            assert total.value == pytest.approx(0.053)
            # cumulative bucket counts never decrease and +Inf == count
            buckets = [s for s in stage if s.name == "repro_stage_seconds_bucket"]
            values = [s.value for s in buckets]
            assert values == sorted(values)
            assert values[-1] == 3
            # every finite bucket is the timer's own cumulative count
            timer = perf.export_state()["timers"]["bridge.test_stage"]
            cumulative = [sum(timer.counts[: i + 1]) for i in range(len(perf.BOUNDS))]
            assert values[:-1] == cumulative
            assert [float(s.labels["le"]) for s in buckets[:-1]] == list(perf.BOUNDS)
        finally:
            perf.reset()

    def test_cache_stats_and_hit_ratio(self):
        # collect_perf reads the module-global perf registry; register a
        # throwaway provider there and neutralize it afterwards (providers
        # cannot be removed, but an empty dict emits no samples).
        perf.register_stats_provider(
            "bridge_test_cache", lambda: {"entries": 2, "hits": 3, "misses": 1}
        )
        try:
            families = {f.name: f for f in collect_perf()}
            stats = {
                (s.labels["stat"], s.value)
                for s in families["repro_cache_stat"].samples
                if s.labels.get("cache") == "bridge_test_cache"
            }
            assert stats == {("entries", 2.0), ("hits", 3.0), ("misses", 1.0)}
            ratio = next(
                s for s in families["repro_cache_hit_ratio"].samples
                if s.labels.get("cache") == "bridge_test_cache"
            )
            assert ratio.value == pytest.approx(0.75)
        finally:
            perf.register_stats_provider("bridge_test_cache", lambda: {})

    def test_global_render_parses(self):
        # Whatever the process accumulated so far must render cleanly.
        parse_exposition(render())


class TestEnvGate:
    def test_metrics_port_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_METRICS_PORT", raising=False)
        assert metrics.metrics_port() is None
        assert not metrics.metrics_enabled()
        monkeypatch.setenv("REPRO_METRICS_PORT", "0")
        assert metrics.metrics_port() == 0
        assert metrics.metrics_enabled()
        monkeypatch.setenv("REPRO_METRICS_PORT", "9464")
        assert metrics.metrics_port() == 9464
        monkeypatch.setenv("REPRO_METRICS_PORT", "banana")
        with pytest.raises(ValueError, match="integer"):
            metrics.metrics_port()
        monkeypatch.setenv("REPRO_METRICS_PORT", "70000")
        with pytest.raises(ValueError, match="out of range"):
            metrics.metrics_port()

    def test_ensure_server_noop_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_METRICS_PORT", raising=False)
        assert metrics.ensure_server() is None
        assert metrics.active_server() is None

    def test_ensure_server_starts_when_set(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS_PORT", "0")
        server = metrics.ensure_server()
        assert server is not None
        assert server.port > 0
        assert metrics.ensure_server() is server  # idempotent
        assert "ok" in scrape(server.port, "/healthz")


class TestEndpoint:
    def test_serves_metrics_and_404(self):
        server = metrics.start_server(port=0)
        body = scrape(server.port)
        types, samples = parse_exposition(body)  # every line round-trips
        assert "repro_process_rss_bytes" in types  # read at collect time
        assert types["repro_process_cpu_seconds_total"] == "counter"
        with pytest.raises(urllib.error.HTTPError):
            scrape(server.port, "/nope")

    def test_scrape_during_live_parallel_map(self):
        """Satellite: scrape mid-run and round-trip-parse every line."""
        server = metrics.start_server(port=0)
        done = threading.Event()

        def work(i):
            time.sleep(0.01)
            return i * 2

        result = {}

        def run():
            try:
                result["out"] = parallel_map(
                    work, list(range(24)), jobs=4, label="metrics_scrape",
                    backend="thread",
                )
            finally:
                done.set()

        thread = threading.Thread(target=run)
        thread.start()
        bodies = []
        while not done.is_set() and len(bodies) < 50:
            bodies.append(scrape(server.port))
        thread.join(timeout=30)
        bodies.append(scrape(server.port))  # one post-run scrape

        assert result["out"] == [i * 2 for i in range(24)]
        for body in bodies:
            parse_exposition(body)  # typing + histogram invariants, every scrape
        types, samples = parse_exposition(bodies[-1])
        assert types.get("repro_stage_seconds") == "histogram"
        assert types.get("repro_process_threads") == "gauge"
        stage_counts = [
            s for s in samples
            if s.name == "repro_stage_seconds_count"
            and s.labels.get("stage") == "eval.parallel_queue_wait"
        ]
        assert stage_counts and stage_counts[0].value >= 24
        inflight = [s for s in samples if s.name == "repro_parallel_inflight_tasks"]
        assert inflight and inflight[0].value == 0  # drained after the run
