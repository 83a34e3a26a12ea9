"""Process resource gauges: procfs readers and the collect-time callback."""

import gc

from repro.obs import metrics
from repro.obs.sampler import count_open_fds, process_families, read_rss_bytes


class TestReaders:
    def test_rss_positive(self):
        rss = read_rss_bytes()
        assert rss is not None and rss > 1024 * 1024  # a CPython process

    def test_open_fds_positive(self):
        fds = count_open_fds()
        assert fds is not None and fds >= 3  # stdio at minimum


class TestProcessFamilies:
    def test_gauges_and_cpu_counter_read_at_collect(self):
        first = {f.name: f for f in process_families()}
        assert first["repro_process_rss_bytes"].type == "gauge"
        assert first["repro_process_rss_bytes"].samples[0].value > 0
        assert first["repro_process_threads"].samples[0].value >= 1
        assert {s.labels["generation"] for s in
                first["repro_process_gc_collections_total"].samples} >= {"0"}
        cpu = first["repro_process_cpu_seconds_total"]
        assert cpu.type == "counter"
        sum(range(200_000))  # burn a little CPU
        (later,) = [f for f in process_families()
                    if f.name == "repro_process_cpu_seconds_total"]
        assert later.samples[0].value >= cpu.samples[0].value

    def test_gc_collected_counter_per_generation(self):
        def collected():
            (family,) = [f for f in process_families()
                         if f.name == "repro_process_gc_collected_total"]
            assert family.type == "counter"
            return {s.labels["generation"]: s.value for s in family.samples}

        before = collected()
        assert set(before) == {"0", "1", "2"}
        cycle = []
        cycle.append(cycle)
        del cycle
        gc.collect()
        assert collected()["2"] >= before["2"] + 1

    def test_registered_on_the_global_registry(self):
        names = {family.name for family in metrics.registry.collect()}
        assert {"repro_process_rss_bytes", "repro_process_cpu_seconds_total"} <= names
