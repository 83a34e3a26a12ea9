"""Techmap cleanup against its whole-netlist-rescan oracle.

``propagate_constants`` and ``sweep_dead_cells`` follow worklists instead
of rescanning every cell.  They must leave the same order-sensitive
netlist state as the rescans of :mod:`tests.synth.cleanup_reference`:
the same cells and nets in the same order, every net's sinks in the same
order, the same ports and the same next uid, so every later pass and the
golden fingerprints see no difference.  Per-pass totals and the
``techmap.const_cells_visited`` counter must match too.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import perf
from repro.designs import benchmark_names, get_benchmark
from repro.designs.chipyard import FAMILIES, generate_family_variant
from repro.hdl.netlist import Netlist
from repro.synth import nangate45, techmap
from repro.synth.cache import elaborate_cached
from repro.synth.optimizer import balance_chains, resynthesize_adders

from . import cleanup_reference as reference

LIBRARY = nangate45()

DESIGNS = [f"opencores:{name}" for name in benchmark_names()] + [
    f"chipyard:{family}:{variant}" for family in FAMILIES for variant in range(6)
]


@functools.lru_cache(maxsize=None)
def _mapped(design: str) -> Netlist:
    kind, *rest = design.split(":")
    if kind == "opencores":
        bench = get_benchmark(rest[0])
        verilog, top = bench.verilog, bench.top
    else:
        soc = generate_family_variant(rest[0], int(rest[1]))
        verilog, top = soc.verilog, soc.top
    netlist = elaborate_cached(verilog, top)
    techmap.map_to_library(netlist, LIBRARY)
    return netlist


def _visited() -> int:
    return perf.counters().get("techmap.const_cells_visited", 0)


def _flow(netlist: Netlist, cleanup, flatten: bool) -> list:
    """``cleanup``, ``balance_chains``, ``cleanup``: totals, visits and state."""
    seen = []
    for step in ("cleanup", "balance", "cleanup"):
        if step == "balance":
            balance_chains(netlist, LIBRARY)
            seen.append(reference.netlist_state(netlist))
            continue
        before = _visited()
        totals = cleanup(netlist, LIBRARY, flatten=flatten)
        seen += [totals, _visited() - before, reference.netlist_state(netlist)]
    return seen


def _assert_same(start: Netlist, flatten: bool) -> None:
    expected = _flow(start.clone(), reference.cleanup, flatten)
    actual = _flow(start.clone(), techmap.cleanup, flatten)
    assert len(actual) == len(expected)
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, f"step {index} differs"


@pytest.mark.parametrize("flatten", [False, True], ids=["hier", "flat"])
@pytest.mark.parametrize("adders", [False, True], ids=["plain", "adders"])
@pytest.mark.parametrize("design", DESIGNS)
def test_cleanup_matches_oracle(design, adders, flatten):
    start = _mapped(design).clone()
    if adders:
        resynthesize_adders(start, LIBRARY)
    _assert_same(start, flatten)


_GATES = ["BUF", "NOT", "AND2", "OR2", "NAND2", "NOR2", "XOR2", "XNOR2", "MUX2"]
_ARITY = {"BUF": 1, "NOT": 1, "MUX2": 3}


@st.composite
def _netlists(draw) -> Netlist:
    """Random mapped netlists with constants, tied pins, register loops,
    dead register cycles and constant-driven output ports."""
    netlist = Netlist("rand")
    netlist.add_net("clk", is_input=True)
    nets = []
    for i in range(draw(st.integers(1, 4))):
        nets.append(netlist.add_net(f"in{i}", is_input=True).name)
    outputs = [
        netlist.add_net(f"out{j}", is_output=True).name
        for j in range(draw(st.integers(1, 3)))
    ]
    for gate in draw(st.lists(st.sampled_from(["CONST0", "CONST1"]), max_size=3)):
        out = netlist.add_net().name
        netlist.add_cell(gate, [], out)
        nets.append(out)
    # Register outputs exist before the logic that drives their inputs,
    # so registers can close loops through it.
    registers = draw(st.integers(0, 3))
    for i in range(registers):
        netlist.add_cell("DFF", [f"d{i}"], f"q{i}", clock="clk")
        nets.append(f"q{i}")

    def drive(out: str) -> None:
        gate = draw(st.sampled_from(_GATES))
        pins = [draw(st.sampled_from(nets)) for _ in range(_ARITY.get(gate, 2))]
        attrs = {}
        if gate == "BUF":
            attrs = draw(st.sampled_from([{}, {}, {"hierarchy": True}, {"fanout_buffer": True}]))
        netlist.add_cell(gate, pins, out, **attrs)

    for _ in range(draw(st.integers(0, 25))):
        out = netlist.add_net().name
        drive(out)
        nets.append(out)
    for i in range(registers):
        drive(f"d{i}")
    if draw(st.booleans()):  # a register cycle no output reads
        netlist.add_cell("DFF", ["dead_d"], "dead_q", clock="clk")
        netlist.add_cell("NOT", ["dead_q"], "dead_d")
    for out in outputs:
        drive(out)
    techmap.map_to_library(netlist, LIBRARY)
    netlist.validate()
    return netlist


@given(netlist=_netlists(), flatten=st.booleans())
def test_random_netlists_match_oracle(netlist, flatten):
    _assert_same(netlist, flatten)


def test_dead_sweep_removes_chains_and_keeps_dead_cycles():
    netlist = Netlist("chain")
    netlist.add_net("clk", is_input=True)
    netlist.add_net("a", is_input=True)
    netlist.add_net("y", is_output=True)
    netlist.add_cell("NOT", ["a"], "n1")
    netlist.add_cell("NOT", ["n1"], "n2")
    netlist.add_cell("AND2", ["n2", "n2"], "n3")  # unread: the chain dies
    netlist.add_cell("BUF", ["a"], "y")
    netlist.add_cell("DFF", ["d"], "q", clock="clk")
    netlist.add_cell("NOT", ["q"], "d")  # a dead cycle no removal reaches
    assert techmap.sweep_dead_cells(netlist) == 3
    assert [c.output for c in netlist.cells.values()] == ["y", "q", "d"]
    assert list(netlist.nets["a"].sinks) == [netlist.nets["y"].driver]
