"""Design-space explorer: parity, determinism and QoR contracts.

The explorer (``repro.synth.explore``) promises:

* ``TimingEngine.trial_metrics_batch`` returns ``(cps, area)`` per
  move-set lane bit-identical to committing that move set and
  measuring, with the incremental engine and with the scalar reference
  STA (:mod:`tests.synth.scalar_reference`);
* ``anneal_chain`` walks the same accepted-move sequence whether it
  scores through the grouped kernel or through commit-measure-revert
  lanes on the scalar reference — same final bindings, same QoR;
* the multi-start reduction is bit-identical across the thread and
  process backends and independent of completion order;
* ``explore_sizing`` never worsens the lexicographic
  ``(timing violation, area)`` QoR of its input;
* a bare ``explore_sizing`` (no ``-budget``/``-chains``) runs fixed
  defaults, so the script text ``synthesis_key`` hashes determines it.

These tests run on hypothesis-generated netlists and on the full
OpenCores corpus.
"""

import dataclasses
import functools
import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designs import get_benchmark
from repro.designs.opencores import benchmark_names
from repro.hdl import elaborate
from repro.rand import rng as seeded_rng
from repro.synth import (
    Constraints,
    DCShell,
    PassContext,
    SynthesisCache,
    explore_sizing,
    get_wireload,
    nangate45,
    sizing_neighbors,
    synthesize_cached,
)
from repro.synth import explore as explore_module
from repro.synth.explore import (
    ExploreConfig,
    anneal_chain,
    reduce_chains,
    run_chains,
)
from repro.synth.techmap import map_to_library

from .scalar_reference import ReferenceEngine
from .test_soa_parity import _engine, random_mapped_netlist

LIBRARY = nangate45()
WIRELOAD = get_wireload("5K_heavy_1k")
NEIGHBORS = sizing_neighbors(LIBRARY)


def _random_lanes(netlist, rng, count=6, max_gates=3):
    """Randomized multi-gate move sets against the current bindings."""
    sizable = [
        (name, cell.lib_cell)
        for name, cell in netlist.cells.items()
        if cell.lib_cell is not None and NEIGHBORS.get(cell.lib_cell)
    ]
    if not sizable:
        return []
    lanes = []
    for _ in range(count):
        width = min(len(sizable), 1 + rng.randrange(max_gates))
        chosen = {}
        for _ in range(width * 4):
            if len(chosen) >= width:
                break
            name, bound = sizable[rng.randrange(len(sizable))]
            if name in chosen:
                continue
            options = NEIGHBORS[bound]
            chosen[name] = options[rng.randrange(len(options))]
        lanes.append(sorted(chosen.items()))
    return lanes


def _committed_reference(engine, lanes):
    """(cps, area) per lane by committing, measuring and reverting."""
    cells = engine.netlist.cells
    out = []
    for lane in lanes:
        previous = [(cells[name], cells[name].lib_cell) for name, _ in lane]
        for name, lib_name in lane:
            cells[name].lib_cell = lib_name
        out.append((engine.trial_cps(), engine.total_area()))
        for cell, prev in previous:
            cell.lib_cell = prev
    return out


@functools.lru_cache(maxsize=None)
def _mapped_benchmark(name):
    bench = get_benchmark(name)
    netlist = elaborate(bench.verilog, bench.top)
    map_to_library(netlist, LIBRARY)
    return netlist, bench.clock_period


class TestTrialMetricsBatch:
    @settings(max_examples=20, deadline=None)
    @given(random_mapped_netlist(), st.integers(0, 2**32 - 1))
    def test_matches_committed_state(self, case, seed):
        """Grouped lanes == commit-measure-revert, incremental and scalar."""
        netlist, constraints = case
        lanes = _random_lanes(netlist, seeded_rng(seed, "lanes"))
        if not lanes:
            return
        engine = _engine(netlist, constraints)
        engine.analyze(with_paths=False)
        got = engine.trial_metrics_batch(lanes)
        assert got == _committed_reference(engine, lanes)
        reference = ReferenceEngine(netlist, LIBRARY, WIRELOAD, constraints)
        assert got == reference.trial_metrics_batch(lanes)

    @pytest.mark.parametrize("design", benchmark_names())
    def test_opencores_grouped_matches_fallback(self, design):
        """Grouped kernel vs commit-measure-revert scoring: bit-exact
        CP/area on the full corpus for randomized multi-gate move sets."""
        netlist, period = _mapped_benchmark(design)
        netlist = netlist.clone()
        constraints = Constraints(clock_period=period * 0.95)
        engine = _engine(netlist, constraints)
        engine.analyze(with_paths=False)
        lanes = _random_lanes(netlist, seeded_rng(0, "corpus", design))
        grouped = engine.trial_metrics_batch(lanes)
        assert grouped == _committed_reference(engine, lanes)


def _chain_outcome(netlist, constraints, config, seed, reference=False):
    local = netlist.clone()
    context = None
    if reference:
        context = PassContext(
            local, LIBRARY, WIRELOAD, constraints,
            engine=ReferenceEngine(local, LIBRARY, WIRELOAD, constraints),
        )
    result = anneal_chain(
        local, LIBRARY, WIRELOAD, constraints,
        dataclasses.replace(config, seed=seed), context=context,
    )
    return result, {
        name: cell.lib_cell for name, cell in local.cells.items()
    }


class TestAnnealChain:
    @settings(max_examples=10, deadline=None)
    @given(random_mapped_netlist(), st.integers(0, 2**16 - 1))
    def test_grouped_and_fallback_chains_identical(self, case, seed):
        """Same seed, grouped kernel vs scalar commit-measure-revert
        scoring: same walk, same final netlist."""
        netlist, constraints = case
        config = ExploreConfig(budget=16, chains=1, batch=4, max_gates=2)
        grouped, bound_g = _chain_outcome(netlist, constraints, config, seed)
        fallback, bound_f = _chain_outcome(
            netlist, constraints, config, seed, reference=True
        )
        assert grouped == fallback
        assert bound_g == bound_f

    def test_chain_never_worsens_start_state(self):
        netlist, period = _mapped_benchmark("dynamic_node")
        netlist = netlist.clone()
        constraints = Constraints(clock_period=period * 0.6)
        config = ExploreConfig(budget=24, chains=1)
        engine = _engine(netlist, constraints)
        start_cps = engine.trial_cps()
        start_area = engine.total_area()
        result = anneal_chain(netlist, LIBRARY, WIRELOAD, constraints, config)
        start_key = (max(0.0, -start_cps), start_area)
        assert result.cost <= start_key
        assert result.trials == 24


class TestMultiStart:
    def test_thread_and_process_backends_identical(self, monkeypatch):
        netlist, period = _mapped_benchmark("riscv32i")
        constraints = Constraints(clock_period=period * 0.7)
        config = ExploreConfig(budget=16, chains=2, batch=8, seed=11)
        outcomes = {}
        for backend in ("thread", "process"):
            monkeypatch.setenv("REPRO_PARALLEL_BACKEND", backend)
            outcomes[backend] = run_chains(
                netlist.clone(), LIBRARY, WIRELOAD, constraints, config,
                jobs=2,
            )
        assert outcomes["thread"] == outcomes["process"]
        assert len(outcomes["thread"]) == 2

    def test_reduction_is_order_independent(self):
        netlist, period = _mapped_benchmark("dynamic_node")
        constraints = Constraints(clock_period=period * 0.7)
        config = ExploreConfig(budget=12, chains=3, seed=4)
        results = run_chains(
            netlist.clone(), LIBRARY, WIRELOAD, constraints, config, jobs=1
        )
        winner = reduce_chains(results)
        assert winner is not None
        for rotation in range(len(results)):
            shuffled = results[rotation:] + results[:rotation]
            assert reduce_chains(shuffled) == winner


class TestFixedDefaults:
    """A bare ``explore_sizing`` must be a pure function of the script
    text, which is all ``synthesis_key`` hashes besides the design."""

    def test_defaults_are_fixed(self):
        config = ExploreConfig()
        assert (config.budget, config.chains) == (240, 2)
        params = inspect.signature(explore_sizing).parameters
        assert (params["budget"].default, params["chains"].default) == (240, 2)
        # Nothing can move them at run time: the explorer reads no
        # environment, so no setting escapes the cache key.
        assert "os.environ" not in inspect.getsource(explore_module)

    def test_bare_explore_cache_hit_matches_fresh_run(self):
        bench = get_benchmark("riscv32i")

        def synthesize(explore_command, cache):
            script = "\n".join(
                [
                    "read_verilog riscv32i",
                    f"create_clock -period {bench.clock_period * 0.6}",
                    "compile",
                    explore_command,
                    "report_qor",
                ]
            )
            return synthesize_cached(
                None, bench.name, bench.verilog, script, top=bench.top, cache=cache
            )

        cache = SynthesisCache()
        synthesize("explore_sizing", cache)
        cached = synthesize("explore_sizing", cache)
        assert cache.stats()["hits"] == 1
        fresh = synthesize("explore_sizing", SynthesisCache())
        assert cached.qor == fresh.qor
        assert cached.transcript == fresh.transcript
        explicit = synthesize("explore_sizing -budget 240 -chains 2", SynthesisCache())
        assert explicit.qor == fresh.qor


class TestExploreSizingPass:
    def test_pass_never_worsens_qor(self):
        netlist, period = _mapped_benchmark("riscv32i")
        netlist = netlist.clone()
        constraints = Constraints(clock_period=period * 0.6)
        context = PassContext(netlist, LIBRARY, WIRELOAD, constraints)
        result = explore_sizing(
            netlist, LIBRARY, WIRELOAD, constraints,
            budget=20, seed=2, chains=2, context=context,
        )
        before = (max(0.0, -result.wns_before), result.area_before)
        after = (max(0.0, -result.wns_after), result.area_after)
        assert after <= before

    def test_dcshell_command(self):
        bench = get_benchmark("dynamic_node")
        shell = DCShell()
        shell.add_design("dynamic_node", bench.verilog, bench.top)
        result = shell.run_script(
            "\n".join(
                [
                    "read_verilog dynamic_node",
                    f"create_clock -period {bench.clock_period * 0.6}",
                    "compile",
                    "explore_sizing -budget 16 -chains 1 -seed 3",
                    "report_qor",
                ]
            )
        )
        assert result.success, result.error
        out = next(
            out for line, out in result.transcript
            if line.startswith("explore_sizing")
        )
        assert out.startswith("exploration:")
