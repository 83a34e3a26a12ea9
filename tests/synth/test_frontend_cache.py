"""Frontend (elaborated netlist) cache: in-memory LRU and its gate.

``elaborate_cached`` keys on hash(RTL source, top, params) and hands out
private clones of a pristine cached netlist, so repeated compiles of the
same design skip parsing/elaboration entirely while callers stay free to
mutate their copy.  ``REPRO_SYNTH_CACHE=0`` switches it off together with
the synthesis cache.
"""

import pickle

import pytest

from repro import perf
from repro.hdl import elaborate
from repro.synth.cache import (
    FRONTEND_CELLS,
    FrontendCache,
    clear_caches,
    elaborate_cached,
    frontend_cache,
    frontend_key,
)

COUNTER = """
module counter #(parameter WIDTH = 4) (
  input clk,
  input [WIDTH-1:0] d,
  output [WIDTH-1:0] q
);
  reg [WIDTH-1:0] state;
  always @(posedge clk) state <= d ^ state;
  assign q = state;
endmodule
"""

ADDER = """
module adder (input a, input b, output s, output c);
  assign s = a ^ b;
  assign c = a & b;
endmodule
"""


@pytest.fixture(autouse=True)
def _clean_caches(monkeypatch):
    # Pin the gate on so the suite is independent of the ambient
    # environment.
    monkeypatch.setenv("REPRO_SYNTH_CACHE", "1")
    clear_caches()
    perf.reset()
    yield
    clear_caches()


class TestKey:
    def test_key_depends_on_source_top_params(self):
        base = frontend_key(COUNTER, "counter")
        assert frontend_key(COUNTER, "counter") == base
        assert frontend_key(ADDER, "adder") != base
        assert frontend_key(COUNTER, None) != base
        assert frontend_key(COUNTER, "counter", {"WIDTH": 8}) != base

    def test_param_order_is_canonical(self):
        a = frontend_key(COUNTER, "counter", {"A": 1, "B": 2})
        b = frontend_key(COUNTER, "counter", {"B": 2, "A": 1})
        assert a == b


class TestMemoryLayer:
    def test_warm_compile_hits_and_matches(self):
        cold = elaborate_cached(COUNTER, "counter")
        before = perf.counters()
        warm = elaborate_cached(COUNTER, "counter")
        after = perf.counters()
        # One lookup is counted once: the warm call adds one netcache.hit
        # and nothing else.
        delta = {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}
        assert delta == {"netcache.hit": 1}
        assert perf.counter("netcache.miss") == 1
        assert not [name for name in after if name.startswith("frontend.")]
        assert warm.fingerprint() == cold.fingerprint()
        warm.validate()

    def test_hits_are_private_clones(self):
        first = elaborate_cached(ADDER, "adder")
        # Mutating one caller's copy must not leak into the next hit.
        victim = next(iter(first.cells))
        first.remove_cell(victim)
        second = elaborate_cached(ADDER, "adder")
        assert victim in second.cells
        second.validate()

    def test_clone_uid_counter_does_not_collide(self):
        elaborate_cached(ADDER, "adder")
        warm = elaborate_cached(ADDER, "adder")
        fresh_net = warm.add_net()
        assert fresh_net.name not in elaborate(ADDER, "adder").nets
        warm.validate()

    def test_params_are_part_of_the_key(self):
        four = elaborate_cached(COUNTER, "counter", params={"WIDTH": 4})
        eight = elaborate_cached(COUNTER, "counter", params={"WIDTH": 8})
        assert perf.counter("netcache.miss") == 2
        assert len(eight.nets) > len(four.nets)

    def test_lru_eviction_bounds_entries(self):
        """The bound is in cells: a budget of two adders keeps two of them."""
        nl = elaborate(ADDER, "adder")
        cache = FrontendCache(max_cells=2 * len(nl.cells))
        for i in range(4):
            cache.put(f"k{i}", nl)
        assert len(cache) == 2
        assert cache.get("k0") is None
        assert cache.get("k3") is not None

    def test_stats_provider_shape(self):
        elaborate_cached(ADDER, "adder")
        elaborate_cached(ADDER, "adder")
        stats = frontend_cache().stats()
        assert stats == {
            "entries": 1, "cells": len(elaborate(ADDER, "adder").cells),
            "capacity": FRONTEND_CELLS, "hits": 1, "misses": 1, "hit_ratio": 0.5,
        }
        assert perf.snapshot()["caches"]["frontend"] == stats

    def test_unpickled_netlist_keeps_working(self):
        """The process backend ships netlists as pickles between processes."""
        elaborate_cached(COUNTER, "counter")
        warm = pickle.loads(pickle.dumps(elaborate_cached(COUNTER, "counter")))
        # Journal/uid state is rebuilt on unpickle: new nets and cells get
        # non-colliding names and structural edits still journal cleanly.
        before = warm.version
        net = warm.add_net()
        warm.add_cell("BUF", [next(iter(warm.primary_inputs))], net.name)
        assert warm.version > before
        warm.validate()


class TestCellBudget:
    """``FrontendCache`` bounds the summed cell count of its netlists."""

    def test_evicts_least_recently_used_by_cells(self):
        adder, counter = elaborate(ADDER, "adder"), elaborate(COUNTER, "counter")
        a, c = len(adder.cells), len(counter.cells)
        assert c > 2 * a
        cache = FrontendCache(max_cells=c + 2 * a)
        cache.put("counter", counter)
        cache.put("a0", adder)
        cache.put("a1", adder)
        assert cache.get("counter") is not None  # a0 is now least recent
        cache.put("a2", adder)
        assert cache.get("a0") is None
        assert cache.stats()["cells"] == c + 2 * a
        # A heavier entry evicts as many of the oldest as it takes.
        cache.put("counter2", counter)
        assert [key for key in ("counter", "a1", "a2", "counter2")
                if cache.get(key) is not None] == ["a2", "counter2"]
        assert cache.stats()["entries"] == 2
        assert cache.stats()["cells"] == a + c

    def test_keeps_a_newest_entry_over_the_whole_budget(self):
        adder, counter = elaborate(ADDER, "adder"), elaborate(COUNTER, "counter")
        cache = FrontendCache(max_cells=len(counter.cells) - 1)
        cache.put("adder", adder)
        cache.put("counter", counter)
        assert len(cache) == 1
        assert cache.get("counter").fingerprint() == counter.fingerprint()
        assert cache.stats()["cells"] == len(counter.cells)
        cache.put("adder", adder)  # the next put evicts it
        assert cache.get("counter") is None
        assert cache.stats()["cells"] == len(adder.cells)

    def test_stats_report_the_cells_held(self):
        adder, counter = elaborate(ADDER, "adder"), elaborate(COUNTER, "counter")
        cache = FrontendCache()
        assert cache.stats()["capacity"] == FRONTEND_CELLS
        cache.put("adder", adder)
        cache.put("counter", counter)
        cache.put("adder", adder)  # a re-put replaces, never double counts
        stats = cache.stats()
        assert (stats["entries"], stats["cells"]) == (
            2, len(adder.cells) + len(counter.cells)
        )
        cache.clear()
        assert (cache.stats()["entries"], cache.stats()["cells"]) == (0, 0)


class TestEnvGates:
    def test_synth_cache_gate_also_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_SYNTH_CACHE", "0")
        elaborate_cached(ADDER, "adder")
        elaborate_cached(ADDER, "adder")
        assert len(frontend_cache()) == 0
