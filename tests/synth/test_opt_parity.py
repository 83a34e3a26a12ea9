"""Parity: batched pass engine == the same passes on scalar verdicts.

The optimization passes score candidates through
``TimingEngine.trial_cps_batch`` (grouped kernel sweeps against the
committed SoA arrays) and ``trial_cps`` folds.  Replaying a pass flow on
:class:`~tests.synth.scalar_reference.ReferenceEngine` — where every
verdict is a from-scratch scalar STA and every trial commits, measures
and reverts — must produce the identical accepted-change sequence, the
identical final netlist (fingerprint) and identical QoR.  The full
``compile_ultra`` flow on the seven OpenCores designs is pinned to the
fingerprints and QoR recorded in ``compile_ultra_golden.json`` (the
output the batched and the retired scalar pass loops agreed on).
"""

import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.designs import benchmark_names, get_benchmark
from repro.synth import Constraints, get_wireload, nangate45
from repro.synth.dcshell import DCShell
from repro.synth.optimizer import recover_area, size_gates
from repro.synth.passes import PassContext
from repro.synth.techmap import propagate_constants

from .scalar_reference import ReferenceEngine
from .test_soa_parity import random_mapped_netlist

LIBRARY = nangate45()
WIRELOAD = get_wireload("5K_heavy_1k")
GOLDEN = json.loads(
    (Path(__file__).with_name("compile_ultra_golden.json")).read_text()
)


def _context(netlist, constraints, reference=False):
    engine = None
    if reference:
        engine = ReferenceEngine(netlist, LIBRARY, WIRELOAD, constraints)
    return PassContext(netlist, LIBRARY, WIRELOAD, constraints, engine=engine)


def _sizing_flow(netlist, constraints, reference):
    """The pass sequence under test; returns (results, bindings, fingerprint)."""
    ctx = _context(netlist, constraints, reference)
    results = [
        size_gates(
            netlist, LIBRARY, WIRELOAD, constraints,
            max_rounds=8, scan=6, context=ctx,
        ),
        recover_area(
            netlist, LIBRARY, WIRELOAD, constraints,
            slack_margin=-5.0, context=ctx,
        ),
    ]
    bindings = {c.name: c.lib_cell for c in netlist.cells.values()}
    return results, bindings, netlist.fingerprint()


class TestRandomNetlistParity:
    @settings(max_examples=30, deadline=None)
    @given(random_mapped_netlist())
    def test_fast_matches_scalar_pass_loops(self, case):
        netlist, constraints = case
        fast = _sizing_flow(netlist.clone(), constraints, reference=False)
        scalar = _sizing_flow(netlist.clone(), constraints, reference=True)
        assert fast == scalar

    @settings(max_examples=20, deadline=None)
    @given(random_mapped_netlist(), st.integers(0, 2**32 - 1))
    def test_batch_lanes_match_sequential_rebinds(self, case, seed):
        """Every trial_cps_batch lane == rebind applied alone (or grouped)."""
        from repro.rand import rng as seeded_rng

        netlist, constraints = case
        ctx = _context(netlist, constraints)
        engine = ctx.engine
        engine.analyze()
        upgrade = ctx.upgrade_table()
        sized = [
            (c.name, upgrade[c.lib_cell].name)
            for c in netlist.cells.values()
            if c.lib_cell is not None and upgrade[c.lib_cell] is not None
        ]
        if not sized:
            return
        rng = seeded_rng(seed)
        lanes = []
        for _ in range(min(6, len(sized))):
            group = rng.sample(sized, k=min(rng.randint(1, 3), len(sized)))
            if len({name for name, _ in group}) < len(group):
                continue
            lanes.append(group[0] if len(group) == 1 else group)
        if not lanes:
            return
        batch = engine.trial_cps_batch(lanes)
        for lane, got in zip(lanes, batch):
            rebinds = [lane] if isinstance(lane[0], str) else list(lane)
            previous = [
                (netlist.cells[name], netlist.cells[name].lib_cell)
                for name, _ in rebinds
            ]
            for name, lib_name in rebinds:
                netlist.cells[name].lib_cell = lib_name
            expected = engine.analyze(with_paths=False).cps
            for cell, prev in previous:
                cell.lib_cell = prev
            engine.analyze(with_paths=False)  # fold the revert
            assert got == expected, lane
        reference = ReferenceEngine(netlist, LIBRARY, WIRELOAD, constraints)
        assert batch == reference.trial_cps_batch(lanes)


class TestOpenCoresParity:
    @pytest.mark.parametrize("design", benchmark_names())
    def test_compile_ultra_matches_golden(self, design):
        bench = get_benchmark(design)
        shell = DCShell()
        shell.add_design(design, bench.verilog, bench.top)
        result = shell.run_script(
            "\n".join(
                [
                    f"read_verilog {design}",
                    f"create_clock -period {bench.clock_period * 0.9}",
                    "set_max_fanout 24",
                    "set_max_area 0",
                    "compile_ultra",
                ]
            )
        )
        assert result.success, result.error
        golden = GOLDEN[design]
        assert dataclasses.asdict(shell.qor()) == golden["qor"]
        assert shell.netlist.fingerprint() == golden["fingerprint"]

    def test_retime_then_incremental_matches_golden(self):
        """ethmac's retiming flow ties 130-260 registers at the worst slack,
        so one ulp of net load picks a different register.  Loads sum in
        ``net.sinks`` attach order, which no hash seed changes."""
        bench = get_benchmark("ethmac")
        shell = DCShell()
        shell.add_design("ethmac", bench.verilog, bench.top)
        result = shell.run_script(
            "\n".join(
                [
                    "read_verilog ethmac",
                    f"create_clock -period {bench.clock_period * 0.9}",
                    "set_max_fanout 24",
                    "set_max_area 0",
                    "compile_ultra -retime",
                    "compile -incremental",
                ]
            )
        )
        assert result.success, result.error
        golden = GOLDEN["ethmac_retime_incremental"]
        assert dataclasses.asdict(shell.qor()) == golden["qor"]
        assert shell.netlist.fingerprint() == golden["fingerprint"]

    def test_fast_mode_drops_analyze_calls(self):
        """Trials never build a timing report: only the start state and
        each accepted state do."""
        bench = get_benchmark("riscv32i")
        from repro.hdl import elaborate
        from repro.synth.techmap import map_to_library

        netlist = elaborate(bench.verilog, bench.top)
        map_to_library(netlist, LIBRARY)
        constraints = Constraints(clock_period=bench.clock_period * 0.8)
        ctx = _context(netlist, constraints)
        ctx.engine.analyze()
        perf.reset()
        result = size_gates(
            netlist, LIBRARY, WIRELOAD, constraints,
            max_rounds=6, scan=16, context=ctx,
        )
        assert perf.counter("sta.trial_batch") > 0
        assert perf.counter("opt.trials") > result.changes
        assert perf.counter("sta.report") == 1 + result.changes


class TestPassContext:
    def test_upgrade_table_shared_per_library(self):
        bench = get_benchmark("dynamic_node")
        from repro.hdl import elaborate
        from repro.synth.techmap import map_to_library

        netlist = elaborate(bench.verilog, bench.top)
        map_to_library(netlist, LIBRARY)
        constraints = Constraints(clock_period=bench.clock_period)
        a = PassContext(netlist, LIBRARY, WIRELOAD, constraints)
        b = PassContext(netlist.clone(), LIBRARY, WIRELOAD, constraints)
        assert a.upgrade_table() is b.upgrade_table()
        assert a.downgrade_table() is b.downgrade_table()


class TestConstWorklist:
    def test_counter_zero_without_constant_seeds(self):
        from repro.hdl.netlist import Netlist

        netlist = Netlist("no_consts")
        netlist.add_net("a", is_input=True)
        netlist.add_net("b", is_input=True)
        netlist.add_cell("AND2", ["a", "b"], "n1")
        netlist.add_cell("XOR2", ["n1", "a"], "n2")
        netlist.add_net("out", is_output=True)
        netlist.add_cell("BUF", ["n2"], "out")
        perf.reset()
        changed = propagate_constants(netlist)
        # no CONST cells and no tied-input pairs: the seeded worklist is
        # empty, so the pass visits nothing instead of sweeping all cells
        assert perf.counter("techmap.const_cells_visited") == 0
        assert changed == 0

    def test_counter_tracks_visits_with_constants(self):
        from repro.hdl.netlist import Netlist

        netlist = Netlist("const_cone")
        netlist.add_net("a", is_input=True)
        netlist.add_cell("CONST0", [], "zero")
        netlist.add_cell("AND2", ["a", "zero"], "n1")
        netlist.add_cell("OR2", ["n1", "a"], "n2")
        netlist.add_net("out", is_output=True)
        netlist.add_cell("BUF", ["n2"], "out")
        perf.reset()
        changed = propagate_constants(netlist)
        assert changed >= 1
        assert perf.counter("techmap.const_cells_visited") >= 1
