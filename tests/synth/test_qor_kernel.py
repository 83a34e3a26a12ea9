"""Parity: QoR read from the SoA kernel == the Python walks over the netlist.

``snapshot``, ``render_area_report``, the compile summary and
``analyze_design`` take their totals and counts from the timing
engine's kernel: area, leakage and summed net load are sequential folds
in netlist order, the register count is the lowering's register table,
and fanout counts distinct sink cells (not pins).  The oracle is the
Python walk kept in :mod:`tests.synth.scalar_reference`; agreement is
bit for bit, unrounded totals included, on the seven OpenCores designs
under every golden flow and on random netlists with the cases where
pins and sinks differ: a cell that reads one net on two pins, a
register whose data pin reads its clock net, a primary output that is
also read inside the design, constants, and cells left unmapped.
``analyze_design`` times the generic netlist unmapped; every field of
its result is held to the oracle's walk over a mapped copy, on the
OpenCores designs and on one variant of each Chipyard family.
"""

from collections import Counter
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designs import FAMILIES, benchmark_names, generate_family_variant, get_benchmark
from repro.hdl import elaborate
from repro.hdl.parser import parse_source
from repro.mentor.analyzer import DesignAnalysis, _high_fanout_nets, analyze_design
from repro.mentor.circuit_graph import build_circuit_graph
from repro.synth import Constraints, TimingEngine, get_wireload, nangate45
from repro.synth.dcshell import DCShell
from repro.synth.reports import render_area_report, snapshot
from repro.synth.techmap import map_to_library

from .scalar_reference import (
    area_by_class,
    dynamic_power,
    high_fanout_nets,
    netlist_stats,
    reference_analysis,
    reference_area_report,
    reference_qor,
    reference_sta,
    total_area,
    total_leakage,
)
from .test_soa_parity import random_mapped_netlist

LIBRARY = nangate45()
WIRELOAD = get_wireload("5K_heavy_1k")


def _resize(netlist, cell_seed, variant_seed):
    """Rebind one library-bound cell to another drive variant."""
    sized = [c for c in netlist.cells.values() if c.lib_cell in LIBRARY]
    cell = sized[cell_seed % len(sized)]
    variants = LIBRARY.variants(LIBRARY.cell(cell.lib_cell).function)
    others = [v for v in variants if v.name != cell.lib_cell]
    if others:
        cell.lib_cell = others[variant_seed % len(others)].name


def _assert_qor_matches(engine, design="rand"):
    """Every kernel-read QoR number equals the oracle's, unrounded first.

    The totals are read before ``analyze()``, so pending resizes are
    folded by the totals themselves.
    """
    netlist, library = engine.netlist, engine.library
    wireload, constraints = engine.wireload, engine.constraints
    assert engine.total_area() == total_area(netlist, library)
    assert engine.total_leakage() == total_leakage(netlist, library)
    assert engine.dynamic_power() == dynamic_power(
        netlist, library, wireload, constraints
    )
    assert engine.kernel().area_by_class() == area_by_class(netlist, library)
    s = engine.kernel().s
    assert s.sink_fanout().tolist() == [netlist.fanout(n) for n in netlist.nets]
    assert _high_fanout_nets(s) == high_fanout_nets(netlist)
    report = engine.analyze()
    assert snapshot(design, engine, report) == reference_qor(
        design, netlist, library, wireload, constraints, report
    )
    assert render_area_report(design, engine) == reference_area_report(
        design, netlist, library
    )


@st.composite
def qor_netlist(draw):
    """A random mapped netlist plus the cases where pins and sinks differ."""
    netlist, constraints = draw(random_mapped_netlist())
    nets = [name for name, net in netlist.nets.items() if not net.is_clock]
    # Added after mapping: these cells stay unmapped (weakest binding).
    shared = draw(st.sampled_from(nets))
    gate = draw(st.sampled_from(["AND2", "XOR2", "NOR2"]))
    netlist.add_cell(gate, [shared, shared], "twice")  # one net on two pins
    netlist.add_cell("CONST0", [], "zero")
    netlist.add_cell("CONST1", [], "one")
    netlist.add_cell("MUX2", ["zero", "twice", "one"], "muxed")
    netlist.add_cell("DFF", ["clk"], "q_clk", clock="clk")  # data pin on the clock
    port = netlist.add_net("po_read", is_output=True)
    netlist.add_cell("BUF", ["muxed"], port.name)
    netlist.add_cell("NOT", [port.name], "po_reader", name="g_po_reader")
    last = netlist.add_net("out_last", is_output=True)
    netlist.add_cell("OR2", ["po_reader", "q_clk"], last.name)
    # A binding the library does not know falls back to the weakest cell.
    netlist.cells["g_po_reader"].lib_cell = "NOT_IN_LIBRARY"
    netlist.validate()
    return netlist, constraints


class TestRandomNetlists:
    @settings(max_examples=40, deadline=None)
    @given(
        qor_netlist(),
        st.lists(
            st.tuples(st.integers(0, 10_000), st.integers(0, 10)), max_size=6
        ),
    )
    def test_kernel_qor_matches_oracle(self, case, resizes):
        netlist, constraints = case
        engine = TimingEngine(netlist, LIBRARY, WIRELOAD, constraints)
        _assert_qor_matches(engine)
        for cell_seed, variant_seed in resizes:
            _resize(netlist, cell_seed, variant_seed)
        _assert_qor_matches(engine)

    @settings(max_examples=20, deadline=None)
    @given(qor_netlist())
    def test_fanout_counts_sinks_not_pins(self, case):
        """``s.fanout`` counts pins (the wireload's input); QoR counts sinks."""
        netlist, constraints = case
        s = TimingEngine(netlist, LIBRARY, WIRELOAD, constraints).kernel().s
        shared = netlist.cells[netlist.nets["twice"].driver].inputs[0]
        for name in (shared, "clk"):
            ni = s.net_index[name]
            assert s.sink_fanout()[ni] == netlist.fanout(name) < s.fanout[ni]
        assert s.sink_fanout()[s.net_index["po_read"]] == 2  # a reader + the port


def _golden_flows():
    flows = [
        (
            design,
            [
                f"read_verilog {design}",
                f"create_clock -period {get_benchmark(design).clock_period * 0.9}",
                "set_max_fanout 24",
                "set_max_area 0",
                "compile_ultra",
            ],
        )
        for design in benchmark_names()
    ]
    ethmac = get_benchmark("ethmac")
    flows.append(
        (
            "ethmac",
            [
                "read_verilog ethmac",
                f"create_clock -period {ethmac.clock_period * 0.9}",
                "set_max_fanout 24",
                "set_max_area 0",
                "compile_ultra -retime",
                "compile -incremental",
            ],
        )
    )
    return flows


class TestGoldenFlows:
    @pytest.mark.parametrize(
        "design,lines",
        _golden_flows(),
        ids=[*benchmark_names(), "ethmac_retime_incremental"],
    )
    def test_kernel_qor_matches_oracle(self, design, lines):
        bench = get_benchmark(design)
        shell = DCShell()
        shell.add_design(design, bench.verilog, bench.top)
        result = shell.run_script("\n".join(lines))
        assert result.success, result.error
        netlist, constraints = shell.netlist, shell.constraints
        # The compile summary prints the rounded area, WNS and TNS.
        ref = reference_sta(netlist, shell.library, shell.wireload, constraints)
        area = round(total_area(netlist, shell.library), 2)
        assert result.transcript[-1][1] == (
            f"Optimization complete: area={area:.1f} "
            f"wns={ref.wns:.3f} tns={ref.tns:.3f}"
        )
        engine = shell._engine()
        _assert_qor_matches(engine, design)
        # Resizes with no analyze() in between: the totals fold them.
        for seed in range(12):
            _resize(netlist, seed * 131, seed)
        _assert_qor_matches(engine, design)


class TestAnalyzeDesign:
    """Every analysis field, bit for bit, against a walk over a mapped copy.

    The analysis times the generic netlist unmapped, so this also holds
    the weakest-cell binding of an unmapped gate to ``map_to_library``'s.
    """

    @pytest.mark.parametrize("design", benchmark_names())
    def test_fields_match_oracle(self, design):
        bench = get_benchmark(design)
        analysis = analyze_design(
            bench.verilog, design, top=bench.top, clock_period=bench.clock_period
        )
        _assert_analysis_matches(
            analysis, bench.verilog, bench.top, bench.clock_period
        )

    def test_chipyard_variant_matches_oracle(self):
        """One variant of each Chipyard family."""
        for family in sorted(FAMILIES):
            variant = generate_family_variant(family, 1)
            analysis = analyze_design(
                variant.verilog, variant.name, top=variant.top, clock_period=1.2
            )
            _assert_analysis_matches(analysis, variant.verilog, variant.top, 1.2)


def _assert_analysis_matches(analysis, verilog, top, clock_period):
    """The analysis keeps no netlist: the oracle maps its own copy."""
    source = parse_source(verilog)
    netlist = elaborate(source, top)
    map_to_library(netlist, LIBRARY)
    expected = reference_analysis(
        analysis.design_name, netlist, LIBRARY, WIRELOAD,
        Constraints(clock_period=clock_period),
    )
    circuit = build_circuit_graph(source, analysis.design_name, top=top)
    expected["category_mix"] = dict(
        Counter(profile.category for profile in circuit.profiles.values())
    )
    assert set(expected) == {f.name for f in fields(DesignAnalysis)} - {"circuit"}
    for name, value in expected.items():
        assert getattr(analysis, name) == value, name
    # Equal dicts may differ in order; the endpoint order is part of the
    # contract (the imbalance folds the arrivals in it).
    assert list(analysis.timing.endpoint_slacks.items()) == list(
        expected["timing"].endpoint_slacks.items()
    )
    assert list(analysis.category_mix.items()) == list(expected["category_mix"].items())
    assert analysis.circuit.profiles == circuit.profiles
    assert all(
        type(value) is int
        for value in (analysis.num_cells, analysis.num_registers, analysis.max_fanout)
    )
