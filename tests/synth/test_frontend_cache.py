"""Frontend (elaborated netlist) cache: in-memory LRU and hand-overs.

``elaborate_cached`` keys on hash(RTL source, top) and hands out private
clones of a pristine shared netlist, so repeated compiles of the same
design skip parsing/elaboration entirely while callers stay free to
mutate their copy.  A design analysis leaves the netlist it only read as
a hand-over entry, which the next ``read_verilog`` takes without a copy.
"""

import pickle
import sys
import threading
import time
from functools import partial

import pytest

from repro import perf
from repro.designs import generate_family_variant
from repro.hdl import elaborate
from repro.mentor import analyze_design
from repro.synth import soa
from repro.synth.cache import (
    FRONTEND_CELLS,
    FrontendCache,
    clear_caches,
    elaborate_cached,
    frontend_cache,
    frontend_key,
    synthesize_cached,
)
from tests.retention import live_netlists, netlists_since
from tests.solo import run_solo

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
def _clean_caches():
    clear_caches()
    perf.reset()
    yield
    clear_caches()


class TestKey:
    def test_key_depends_on_source_and_top(self):
        base = frontend_key(COUNTER, "counter")
        assert frontend_key(COUNTER, "counter") == base
        assert frontend_key(ADDER, "adder") != base
        assert frontend_key(COUNTER, None) != base


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


def _race(targets) -> None:
    """Run each target in its own thread with a short switch interval."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=target) for target in targets]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def _ahead(verilog: str, top: str):
    """An elaborated netlist whose last generated uid named a removed cell,
    so its uid counter runs ahead of a clone's."""
    netlist = elaborate(verilog, top)
    spare = netlist.add_net()
    cell = netlist.add_cell("BUF", [netlist.primary_inputs[0]], spare.name)
    netlist.remove_cell(cell.name)
    return netlist


ROCKET = generate_family_variant("rocket", 3)

SCRIPT = "\n".join([
    f"read_verilog {ROCKET.name}",
    "create_clock -period 1.0 clk",
    "set_max_fanout 16",
    "compile_ultra",
    "report_qor",
    "write -format verilog",
])


def _synthesize() -> tuple:
    """``SCRIPT`` in a fresh shell: its result and its ``write`` output."""
    result, shell = run_solo(ROCKET.name, ROCKET.verilog, SCRIPT, top=ROCKET.top)
    assert result.success, result.error
    return result, shell.last_written


class TestHandOver:
    """An analysis's netlist is handed to the next read of its RTL, not copied."""

    def test_taken_once_as_the_same_object(self):
        cache = FrontendCache()
        netlist = elaborate(COUNTER, "counter")
        assert cache.hand_over("k", netlist)
        assert cache.stats()["cells"] == len(netlist.cells)
        assert cache.get("k") is netlist
        stats = cache.stats()
        assert (stats["entries"], stats["cells"], stats["hits"], stats["misses"]) == (
            0, 0, 1, 0
        )
        assert cache.get("k") is None

    def test_a_read_without_take_copies_and_keeps_it(self):
        cache = FrontendCache()
        netlist = elaborate(COUNTER, "counter")
        cache.hand_over("k", netlist)
        copy = cache.get("k", take=False)
        assert copy is not netlist and copy.fingerprint() == netlist.fingerprint()
        assert cache.get("k") is netlist

    def test_shared_entries_still_copy_out(self):
        cache = FrontendCache()
        netlist = elaborate(COUNTER, "counter")
        cache.put("k", netlist)
        first, second = cache.get("k"), cache.get("k")
        assert len({id(netlist), id(first), id(second)}) == 3
        assert first.fingerprint() == second.fingerprint() == netlist.fingerprint()
        assert len(cache) == 1
        # A hand-over never replaces an entry: the shared one stays.
        assert not cache.hand_over("k", elaborate(COUNTER, "counter"))
        assert cache.get("k") is not cache.get("k")

    def test_hand_over_weighs_its_cells_and_ages(self):
        adder, counter = elaborate(ADDER, "adder"), elaborate(COUNTER, "counter")
        cache = FrontendCache(max_cells=len(counter.cells))
        cache.hand_over("adder", adder)
        cache.put("counter", counter)  # evicts the older hand-over
        assert cache.get("adder") is None
        assert cache.stats()["cells"] == len(counter.cells)
        cache.release("counter")  # only a hand-over is released
        assert len(cache) == 1

    def test_concurrent_takes_take_each_hand_over_once(self):
        """Eight threads hand over and take on four keys with a short switch
        interval: no netlist is taken twice or lost, and the cells add up."""
        cache = FrontendCache()
        per_thread = 40
        pools = [[elaborate(ADDER, "adder") for _ in range(per_thread)] for _ in range(8)]
        stored, taken = [], []
        lock = threading.Lock()

        def work(index, pool):
            for step, netlist in enumerate(pool):
                key = f"k{(index + step) % 4}"
                if cache.hand_over(key, netlist):
                    with lock:
                        stored.append(netlist)
                got = cache.get(f"k{(index + 2 * step) % 4}")
                if got is not None:
                    with lock:
                        taken.append(got)

        _race([partial(work, i, pool) for i, pool in enumerate(pools)])
        left = [cache.get(f"k{key}") for key in range(4)]
        left = [netlist for netlist in left if netlist is not None]
        assert len({id(n) for n in taken + left}) == len(taken) + len(left)
        assert {id(n) for n in taken + left} == {id(n) for n in stored}
        assert cache.stats()["cells"] == 0 and len(cache) == 0

    def test_a_clone_never_reads_a_taker_edit(self):
        """Three threads clone a hand-over while a fourth takes it and edits
        it: the take waits for any clone in progress, so every clone is the
        pristine netlist and none fails mid-copy."""
        pristine = elaborate(ROCKET.verilog, ROCKET.top)
        expected = pristine.fingerprint()
        cache = FrontendCache()
        rounds = [pristine.clone() for _ in range(12)]
        clones, errors = [], []
        done = threading.Event()

        def read():
            while not done.is_set():
                try:
                    copy = cache.get("k", take=False)
                except Exception as exc:  # a copy torn by an edit
                    errors.append(exc)
                    return
                if copy is not None:
                    clones.append(copy.fingerprint())

        def take_and_edit():
            try:
                for netlist in rounds:
                    cache.hand_over("k", netlist)
                    time.sleep(0.002)  # let the readers start a clone
                    taken = cache.get("k")
                    assert taken is netlist
                    for name in [n for n, c in taken.cells.items() if c.gate != "DFF"]:
                        cell = taken.cells[name]
                        taken.remove_cell(name)
                        taken.add_cell(cell.gate, list(cell.inputs), cell.output)
            except Exception as exc:
                errors.append(exc)
            finally:
                done.set()

        _race([read, read, read, take_and_edit])
        assert errors == []
        assert clones and set(clones) == {expected}
        assert expected not in {netlist.fingerprint() for netlist in rounds}

    def test_taken_netlist_synthesizes_like_a_clone(self):
        """Same transcript, QoR and written netlist, with a counter running
        ahead of a clone's: the hand-over resumes it where a clone would."""
        key = frontend_key(ROCKET.verilog, ROCKET.top)
        netlist = _ahead(ROCKET.verilog, ROCKET.top)
        assert next(_ahead(ROCKET.verilog, ROCKET.top)._uid) > (
            netlist.clone()._max_uid() + 1
        )
        frontend_cache().put(key, netlist)
        from_clone = _synthesize()
        clear_caches()
        frontend_cache().hand_over(key, _ahead(ROCKET.verilog, ROCKET.top))
        from_take = _synthesize()
        assert len(frontend_cache()) == 0
        assert perf.counter("netcache.hit") == 2
        assert from_take == from_clone

    def test_take_never_serves_a_stale_lowering(self):
        netlist = elaborate(COUNTER, "counter")
        lowered = soa.get_structure(netlist)
        frontend_cache().hand_over(frontend_key(COUNTER, "counter"), netlist)
        assert soa.peek_structure(netlist) is None
        taken = elaborate_cached(COUNTER, "counter")
        assert taken is netlist
        # An observer's older cursor reads as trimmed: it rebuilds.
        assert taken.journal_since(0) is None and taken.journal_since(taken.version) == []
        out = taken.add_net("extra", is_output=True)
        taken.add_cell("NOT", [taken.primary_outputs[0]], out.name)
        edited = soa.get_structure(taken)
        assert edited is not lowered
        assert edited.num_cells == len(taken.cells) == lowered.num_cells + 1
        assert edited.net_names == list(taken.nets)

    def test_analysis_hands_over_to_the_synthesis(self):
        before = live_netlists()
        analysis = analyze_design(
            ROCKET.verilog, ROCKET.name, top=ROCKET.top, clock_period=1.2
        )
        stats = frontend_cache().stats()
        assert (stats["entries"], stats["cells"], stats["misses"]) == (
            1, analysis.num_cells, 1
        )
        # A second analysis reads a copy and leaves the entry for the synthesis.
        analyze_design(ROCKET.verilog, ROCKET.name, top=ROCKET.top, clock_period=1.2)
        assert frontend_cache().stats()["hits"] == 1
        assert len(frontend_cache()) == 1
        assert _synthesize()[0].success
        stats = frontend_cache().stats()
        assert (stats["entries"], stats["cells"], stats["hits"]) == (0, 0, 2)
        assert netlists_since(before) == []

    def test_a_synthesis_served_from_cache_releases_the_hand_over(self):
        args = (None, ROCKET.name, ROCKET.verilog, SCRIPT, ROCKET.top)
        before = live_netlists()
        for _ in range(2):
            analyze_design(ROCKET.verilog, ROCKET.name, top=ROCKET.top)
            synthesize_cached(*args)
        assert perf.counter("synthcache.hit") == 1
        assert len(frontend_cache()) == 0
        assert netlists_since(before) == []

    def test_two_in_flight_sessions_match_the_sequential_loop(self):
        """Two sessions of one RTL analyzed before either synthesizes: the
        second reads a copy, and both return what one-at-a-time returns."""
        scripts = [SCRIPT, SCRIPT.replace("compile_ultra", "compile")]

        def analyze():
            analysis = analyze_design(
                ROCKET.verilog, ROCKET.name, top=ROCKET.top, clock_period=1.2
            )
            analysis.circuit = None  # module graphs: not netlist-derived
            return pickle.dumps(analysis)

        def synthesize(script):
            return synthesize_cached(None, ROCKET.name, ROCKET.verilog, script, ROCKET.top)

        sequential = []
        for script in scripts:
            sequential.append((analyze(), synthesize(script)))
        clear_caches()
        analyses = [analyze(), analyze()]
        runs = [synthesize(script) for script in scripts]
        assert list(zip(analyses, runs)) == sequential
