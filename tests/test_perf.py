"""Tests for the perf counter/timer registry."""

import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import perf
from repro.perf import PerfRegistry


class TestCounters:
    def test_incr_and_read(self):
        reg = PerfRegistry()
        reg.incr("a")
        reg.incr("a", 4)
        assert reg.counter("a") == 5
        assert reg.counter("missing") == 0

    def test_timer_accumulates(self):
        reg = PerfRegistry()
        reg.add_time("t", 0.25)
        reg.add_time("t", 0.5)
        snap = reg.snapshot()
        assert snap["timers"]["t"]["calls"] == 2
        assert snap["timers"]["t"]["total_s"] == 0.75

    def test_reset(self):
        reg = PerfRegistry()
        reg.incr("a")
        reg.add_time("t", 0.001)
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "timers": {}}

    def test_snapshot_is_a_copy(self):
        reg = PerfRegistry()
        reg.incr("a")
        snap = reg.snapshot()
        snap["counters"]["a"] = 99
        assert reg.counter("a") == 1

    def test_thread_safety(self):
        reg = PerfRegistry()

        def worker():
            for _ in range(1000):
                reg.incr("shared")

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("shared") == 8000


class TestPercentiles:
    def test_snapshot_reports_p50_p95_max(self):
        reg = PerfRegistry()
        for ms in range(1, 101):  # 1ms .. 100ms
            reg.add_time("t", ms / 1000.0)
        snap = reg.snapshot()["timers"]["t"]
        assert snap["calls"] == 100
        assert snap["total_s"] == round(sum(range(1, 101)) / 1000.0, 6)
        assert abs(snap["p50_s"] - 0.050) <= 0.002
        assert abs(snap["p95_s"] - 0.095) <= 0.002
        assert snap["max_s"] == 0.100

    def test_max_is_exact_beyond_reservoir_capacity(self):
        reg = PerfRegistry()
        for _ in range(2560):
            reg.add_time("t", 0.001)
        reg.add_time("t", 9.0)  # a single tail spike inside a wide bucket
        snap = reg.snapshot()["timers"]["t"]
        assert snap["max_s"] == 9.0
        assert snap["calls"] == 2561

    def test_percentiles_deterministic(self):
        snaps = []
        for _ in range(2):
            reg = PerfRegistry()
            for i in range(2000):
                reg.add_time("t", (i % 97) / 1000.0)
            snaps.append(reg.snapshot()["timers"]["t"])
        assert snaps[0] == snaps[1]


class TestStatsProviders:
    def test_caches_key_absent_without_providers(self):
        assert "caches" not in PerfRegistry().snapshot()

    def test_provider_output_surfaces_under_caches(self):
        reg = PerfRegistry()
        reg.register_stats_provider("fake", lambda: {"hits": 3, "misses": 1})
        assert reg.snapshot()["caches"] == {"fake": {"hits": 3, "misses": 1}}

    def test_provider_may_call_back_into_registry(self):
        reg = PerfRegistry()

        def provider():
            reg.incr("provider.called")  # must not deadlock on the lock
            return {"ok": True}

        reg.register_stats_provider("reentrant", provider)
        assert reg.snapshot()["caches"]["reentrant"] == {"ok": True}
        assert reg.counter("provider.called") == 1

    def test_reregistering_replaces(self):
        reg = PerfRegistry()
        reg.register_stats_provider("c", lambda: {"v": 1})
        reg.register_stats_provider("c", lambda: {"v": 2})
        assert reg.snapshot()["caches"]["c"] == {"v": 2}

    def test_global_registry_exposes_synthesis_caches(self):
        import repro.synth.cache  # noqa: F401  (registers its providers)

        caches = perf.snapshot().get("caches", {})
        assert "netlist" not in caches
        shape = {"entries", "capacity", "hits", "misses", "hit_ratio"}
        assert set(caches["synthesis"]) == shape
        # The frontend cache's capacity is in cells; it reports those held.
        assert set(caches["frontend"]) == shape | {"cells"}


class TestReservoirMerge:
    def test_merge_adds_totals_calls_and_exact_max(self):
        donor = PerfRegistry()
        donor.add_time("t", 0.002)
        donor.add_time("t", 9.0)
        target = PerfRegistry()
        target.add_time("t", 0.001)
        target.merge_state(donor.export_state())
        snap = target.snapshot()["timers"]["t"]
        assert snap["calls"] == 3
        assert snap["total_s"] == round(9.003, 6)
        assert snap["max_s"] == 9.0

    def test_merge_weights_by_source_call_counts(self):
        """Skewed sources: a 10x-busier worker keeps 10x the weight.

        Donor A timed 2560 calls at 1ms; donor B timed 256 calls at
        100ms.  Merging adds bucket counts, so the slow population keeps
        its true 1-in-11 share and the pooled p50 stays in the 1ms bucket.
        """
        donor_a = PerfRegistry()
        for _ in range(2560):
            donor_a.add_time("t", 0.001)
        donor_b = PerfRegistry()
        for _ in range(256):
            donor_b.add_time("t", 0.100)
        target = PerfRegistry()
        target.merge_state(donor_a.export_state())
        target.merge_state(donor_b.export_state())

        counts = target.export_state()["timers"]["t"].counts
        assert counts[perf.BOUNDS.index(0.001)] == 2560
        assert counts[perf.BOUNDS.index(0.1)] == 256
        snap = target.snapshot()["timers"]["t"]
        assert snap["calls"] == 2816
        # p50 interpolates inside the (0.000794, 0.001] bucket.
        assert 0.000794 < snap["p50_s"] <= 0.001
        assert snap["max_s"] == 0.100

    def test_merge_is_deterministic(self):
        def merged():
            donor = PerfRegistry()
            for i in range(3000):
                donor.add_time("t", (i % 37) / 1000.0)
            target = PerfRegistry()
            for i in range(500):
                target.add_time("t", (i % 11) / 1000.0)
            target.merge_state(donor.export_state())
            return target.snapshot()["timers"]["t"]

        assert merged() == merged()

    def test_merge_rejects_other_bounds(self):
        target = perf.Histogram()
        with pytest.raises(ValueError, match="different bounds"):
            target.merge(perf.Histogram((1.0, 2.0)))


#: Timed calls: (stage name, seconds, repeats, registry the calls land in).
_CALLS = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c"]),
        st.one_of(
            st.floats(min_value=0.0, max_value=250.0),
            st.sampled_from(perf.BOUNDS),
        ),
        st.integers(min_value=1, max_value=100),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=30,
)


class TestMergeIsExact:
    @given(_CALLS)
    def test_split_registries_merge_to_one_registry(self, calls):
        """However calls are split over k registries, merging them reports
        exactly what one registry that saw every call reports."""
        whole = PerfRegistry()
        parts = [PerfRegistry() for _ in range(4)]
        for name, seconds, repeats, part in calls:
            for _ in range(repeats):
                whole.add_time(name, seconds)
                parts[part].add_time(name, seconds)
        merged = PerfRegistry()
        for part in reversed(parts):
            merged.merge_state(part.export_state())
        assert merged.snapshot() == whole.snapshot()
        want = whole.export_state()["timers"]
        got = merged.export_state()["timers"]
        assert {n: h.counts for n, h in got.items()} == {
            n: h.counts for n, h in want.items()
        }


class TestModuleRegistry:
    def test_module_aliases_hit_global_registry(self):
        perf.reset()
        perf.incr("x", 2)
        perf.add_time("y", 0.001)
        snap = perf.snapshot()
        assert snap["counters"]["x"] == 2
        assert snap["timers"]["y"]["calls"] == 1
        perf.reset()
        assert perf.counter("x") == 0
