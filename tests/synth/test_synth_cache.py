"""Tests for the content-addressed synthesis result cache."""

import dataclasses
import threading

import pytest

from repro import perf
from repro.designs import get_benchmark
from repro.eval.harness import baseline_script
from repro.hdl.parser import parse_source
from repro.synth import (
    ScriptResult,
    SynthesisCache,
    clear_caches,
    default_cache,
    frontend_cache,
    TechLibrary,
    nangate45,
    synthesize_batch,
    synthesize_cached,
)
from repro.synth.cache import synthesis_key


@pytest.fixture
def cache():
    return SynthesisCache(max_entries=4)


def _result(tag="ok"):
    return ScriptResult(success=True, error=None, transcript=[("cmd", tag)])


class TestSynthesisKey:
    def test_deterministic(self):
        a = synthesis_key("lib", "aes", "module m;", "m", "compile")
        b = synthesis_key("lib", "aes", "module m;", "m", "compile")
        assert a == b

    def test_every_component_matters(self):
        base = ("lib", "aes", "module m;", "m", "compile")
        reference = synthesis_key(*base)
        for i in range(len(base)):
            changed = list(base)
            changed[i] = changed[i] + "X"
            assert synthesis_key(*changed) != reference

    def test_none_top_is_stable(self):
        assert synthesis_key("l", "d", "v", None, "s") == synthesis_key(
            "l", "d", "v", None, "s"
        )

    def test_library_digest_covers_cell_values(self):
        base = nangate45()
        assert base.digest() == nangate45().digest()
        cells = base.cells()
        tweaked = [dataclasses.replace(cells[0], leakage=cells[0].leakage + 1.0)]
        same_name = TechLibrary(base.name, tweaked + cells[1:])
        assert same_name.digest() != base.digest()

    def test_add_cell_resets_library_digest(self):
        lib = nangate45()
        before = lib.digest()
        extra = dataclasses.replace(lib.cell("INV_X1"), name="INV_X8", drive=8)
        lib.add_cell(extra)
        assert lib.digest() != before


class TestSynthesisCache:
    def test_miss_then_hit(self, cache):
        key = synthesis_key("l", "d", "v", None, "s")
        assert cache.get(key) is None
        cache.put(key, _result())
        got = cache.get(key)
        assert got is not None and got.success
        assert cache.stats() == {
            "entries": 1, "capacity": 4, "hits": 1, "misses": 1, "hit_ratio": 0.5,
        }

    def test_values_are_isolated_copies(self, cache):
        cache.put("k", _result())
        first = cache.get("k")
        first.transcript.append(("evil", "mutation"))
        second = cache.get("k")
        assert second.transcript == [("cmd", "ok")]

    def test_lru_eviction(self, cache):
        for i in range(4):
            cache.put(f"k{i}", _result(str(i)))
        cache.get("k0")  # refresh k0 so k1 is now the oldest
        cache.put("k4", _result("4"))
        assert cache.get("k1") is None
        assert cache.get("k0") is not None
        assert len(cache) == 4

    def test_clear(self, cache):
        cache.put("k", _result())
        cache.get("k")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == {
            "entries": 0, "capacity": 4, "hits": 0, "misses": 0, "hit_ratio": 0.0,
        }

    def test_thread_safety(self, cache):
        errors = []

        def worker(n):
            try:
                for i in range(200):
                    cache.put(f"k{(n + i) % 6}", _result())
                    cache.get(f"k{i % 6}")
            except Exception as exc:  # pragma: no cover - only on failure
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 4


class TestSynthesizeCached:
    def test_second_run_is_a_hit_with_equal_qor(self):
        bench = get_benchmark("dynamic_node")
        script = baseline_script(bench)
        cache = SynthesisCache()
        first = synthesize_cached(
            None, bench.name, bench.verilog, script, top=bench.top, cache=cache
        )
        second = synthesize_cached(
            None, bench.name, bench.verilog, script, top=bench.top, cache=cache
        )
        assert first.success and second.success
        assert cache.stats()["hits"] == 1
        assert second.qor == first.qor

    def test_different_script_misses(self):
        bench = get_benchmark("dynamic_node")
        script = baseline_script(bench)
        cache = SynthesisCache()
        synthesize_cached(
            None, bench.name, bench.verilog, script, top=bench.top, cache=cache
        )
        synthesize_cached(
            None,
            bench.name,
            bench.verilog,
            script + "\nreport_qor",
            top=bench.top,
            cache=cache,
        )
        assert cache.stats()["hits"] == 0
        assert len(cache) == 2

    def test_parsed_source_keys_on_its_text(self):
        """A parsed source and its text share both keys: the text is served
        the parsed run's result, and a synthesis miss on the text hits the
        netlist that the parsed source elaborated into, unparsed."""
        bench = get_benchmark("dynamic_node")
        script = baseline_script(bench)
        source = parse_source(bench.verilog)
        cache = SynthesisCache()
        clear_caches()
        perf.reset()
        (parsed,) = synthesize_batch(
            None, bench.name, source, [script], top=bench.top, cache=cache
        )
        served = synthesize_cached(
            None, bench.name, bench.verilog, script, top=bench.top, cache=cache
        )
        rerun = synthesize_cached(
            None, bench.name, bench.verilog, script, top=bench.top,
            cache=SynthesisCache(),
        )
        assert (cache.stats()["hits"], cache.stats()["misses"]) == (1, 1)
        frontend = frontend_cache().stats()
        assert (frontend["hits"], frontend["misses"]) == (1, 1)
        assert perf.snapshot()["timers"].get("hdl.parse", {}).get("calls", 0) == 0
        assert parsed.success
        for other in (served, rerun):
            assert (other.transcript, other.qor) == (parsed.transcript, parsed.qor)

    def test_same_named_library_with_other_cells_misses(self):
        """A library with 3x intrinsic delays under the same name must not
        be served the nangate45 result: the key hashes the cells."""
        bench = get_benchmark("aes")
        script = baseline_script(bench)
        base = nangate45()
        slow = TechLibrary(
            base.name,
            [dataclasses.replace(c, intrinsic=c.intrinsic * 3) for c in base.cells()],
        )
        cache = SynthesisCache()
        first = synthesize_cached(
            base, bench.name, bench.verilog, script, top=bench.top, cache=cache
        )
        served = synthesize_cached(
            slow, bench.name, bench.verilog, script, top=bench.top, cache=cache
        )
        fresh = synthesize_cached(
            slow, bench.name, bench.verilog, script, top=bench.top,
            cache=SynthesisCache(),
        )
        assert cache.stats()["hits"] == 0
        assert served.qor == fresh.qor
        assert served.qor.wns < first.qor.wns

    def test_default_cache_is_shared(self):
        assert default_cache() is default_cache()
