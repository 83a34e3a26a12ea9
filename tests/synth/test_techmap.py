"""Tests for technology mapping and structural cleanup passes.

Functional equivalence after every pass is checked by simulation.
"""

import numpy as np
import pytest

from repro.hdl import elaborate
from repro.hdl.sim import Simulator
from repro.synth import cleanup, map_to_library, nangate45
from repro.synth.techmap import (
    merge_inverters,
    propagate_constants,
    remove_buffers,
    sweep_dead_cells,
)

from .scalar_reference import netlist_stats

LIB = nangate45()

COMB_SRC = """
module comb(input [7:0] a, input [7:0] b, input s, output [7:0] y, output z);
  wire [7:0] t;
  assign t = (a & b) | (a ^ 8'hF0);
  assign y = s ? t + b : t - b;
  assign z = &a | ^b;
endmodule
"""


def io_signature(netlist, seeds=range(12)):
    """Deterministic functional fingerprint via simulation."""
    rng = np.random.default_rng(0)
    results = []
    for _ in seeds:
        sim = Simulator(netlist)
        sim.set_word("a", int(rng.integers(0, 256)), 8)
        sim.set_word("b", int(rng.integers(0, 256)), 8)
        sim.set_word("s", int(rng.integers(0, 2)), 1)
        sim.settle()
        results.append((sim.get_word("y", 8), sim.get_word("z", 1)))
    return results


@pytest.fixture
def comb_netlist():
    return elaborate(COMB_SRC, "comb")


class TestMapping:
    def test_all_cells_bound(self, comb_netlist):
        map_to_library(comb_netlist, LIB)
        for cell in comb_netlist.cells.values():
            if cell.gate not in ("CONST0", "CONST1"):
                assert cell.lib_cell is not None
                assert cell.lib_cell in LIB

    def test_mapping_preserves_function(self, comb_netlist):
        before = io_signature(comb_netlist)
        map_to_library(comb_netlist, LIB)
        assert io_signature(comb_netlist) == before


class TestCleanupPasses:
    def test_constant_propagation_preserves_function(self, comb_netlist):
        before = io_signature(comb_netlist)
        folded = propagate_constants(comb_netlist)
        assert folded > 0  # the ^ 8'hF0 constant must fold
        comb_netlist.validate()
        assert io_signature(comb_netlist) == before

    def test_buffer_removal_preserves_function(self, comb_netlist):
        before = io_signature(comb_netlist)
        remove_buffers(comb_netlist, flatten=True)
        comb_netlist.validate()
        assert io_signature(comb_netlist) == before

    def test_inverter_merge_creates_nand(self):
        src = """
        module m(input a, b, output y);
          assign y = ~(a & b);
        endmodule
        """
        nl = elaborate(src, "m")
        map_to_library(nl, LIB)
        remove_buffers(nl)
        merged = merge_inverters(nl, LIB)
        assert merged == 1
        gates = netlist_stats(nl)["gate_counts"]
        assert gates.get("NAND2", 0) == 1
        assert gates.get("AND2", 0) == 0
        sim = Simulator(nl)
        for a in (0, 1):
            for b in (0, 1):
                sim.set_input("a", a)
                sim.set_input("b", b)
                sim.settle()
                assert sim.values["y"] == 1 - (a & b)

    def test_dead_code_swept(self):
        src = """
        module m(input [3:0] a, output y);
          wire [3:0] unused;
          assign unused = a + 4'd3;
          assign y = a[0];
        endmodule
        """
        nl = elaborate(src, "m")
        removed = sweep_dead_cells(nl)
        assert removed > 0
        nl.validate()

    def test_dead_register_swept(self):
        src = """
        module m(input clk, input a, output y);
          reg ghost;
          always @(posedge clk) ghost <= a;
          assign y = a;
        endmodule
        """
        nl = elaborate(src, "m")
        sweep_dead_cells(nl)
        assert netlist_stats(nl)["sequential"] == 0

    def test_live_register_kept(self):
        src = """
        module m(input clk, input a, output reg y);
          always @(posedge clk) y <= a;
        endmodule
        """
        nl = elaborate(src, "m")
        sweep_dead_cells(nl)
        assert netlist_stats(nl)["sequential"] == 1

    def test_full_cleanup_shrinks_and_preserves(self, comb_netlist):
        before_sig = io_signature(comb_netlist)
        before_cells = comb_netlist.num_cells
        map_to_library(comb_netlist, LIB)
        totals = cleanup(comb_netlist, LIB, flatten=True)
        comb_netlist.validate()
        assert comb_netlist.num_cells < before_cells
        assert sum(totals.values()) > 0
        assert io_signature(comb_netlist) == before_sig

    def test_hierarchy_buffers_kept_without_flatten(self):
        src = """
        module inv(input a, output y); assign y = ~a; endmodule
        module top(input x, output z);
          wire m;
          inv u1 (.a(x), .y(m));
          inv u2 (.a(m), .y(z));
        endmodule
        """
        nl = elaborate(src, "top")
        kept = nl.clone()
        cleanup(kept, LIB, flatten=False)
        flat = nl.clone()
        cleanup(flat, LIB, flatten=True)
        kept_bufs = netlist_stats(kept)["gate_counts"].get("BUF", 0)
        flat_bufs = netlist_stats(flat)["gate_counts"].get("BUF", 0)
        assert kept_bufs > flat_bufs

    def test_share_logic_merges_duplicates(self):
        from repro.synth.techmap import share_logic

        src = """
        module m(input [3:0] a, b, output [3:0] y, z);
          assign y = a & b;
          assign z = a & b;
        endmodule
        """
        nl = elaborate(src, "m")
        before_ands = netlist_stats(nl)["gate_counts"]["AND2"]
        merged = share_logic(nl)
        nl.validate()
        assert merged >= 4  # one duplicated AND per bit
        assert netlist_stats(nl)["gate_counts"]["AND2"] == before_ands - merged
        sim = Simulator(nl)
        sim.set_word("a", 0b1100, 4)
        sim.set_word("b", 0b1010, 4)
        sim.settle()
        assert sim.get_word("y", 4) == 0b1000
        assert sim.get_word("z", 4) == 0b1000

    def test_share_logic_commutative_inputs(self):
        from repro.hdl.netlist import Netlist
        from repro.synth.techmap import share_logic

        nl = Netlist()
        nl.add_net("a", is_input=True)
        nl.add_net("b", is_input=True)
        nl.add_cell("AND2", ["a", "b"], "x")
        nl.add_cell("AND2", ["b", "a"], "y")  # same function, swapped pins
        nl.add_net("o1", is_output=True)
        nl.add_net("o2", is_output=True)
        nl.add_cell("BUF", ["x"], "o1")
        nl.add_cell("BUF", ["y"], "o2")
        assert share_logic(nl) == 1
        nl.validate()

    def test_share_logic_keeps_port_drivers(self):
        from repro.hdl.netlist import Netlist
        from repro.synth.techmap import share_logic

        nl = Netlist()
        nl.add_net("a", is_input=True)
        nl.add_net("p", is_output=True)
        nl.add_net("q", is_output=True)
        nl.add_cell("NOT", ["a"], "p")
        nl.add_cell("NOT", ["a"], "q")  # both drive ports: keep both
        assert share_logic(nl) == 0
        nl.validate()

    def test_share_logic_non_commutative_mux(self):
        from repro.hdl.netlist import Netlist
        from repro.synth.techmap import share_logic

        nl = Netlist()
        for name in ("s", "a", "b"):
            nl.add_net(name, is_input=True)
        nl.add_cell("MUX2", ["s", "a", "b"], "x")
        nl.add_cell("MUX2", ["s", "b", "a"], "y")  # different function!
        nl.add_net("o1", is_output=True)
        nl.add_net("o2", is_output=True)
        nl.add_cell("BUF", ["x"], "o1")
        nl.add_cell("BUF", ["y"], "o2")
        assert share_logic(nl) == 0

    def test_constant_output_port_terminates(self):
        """Regression: a constant driving a port must not oscillate.

        propagate_constants once looped forever here: the folded gate was
        replaced by a BUF-from-constant, which itself folded back to a
        constant, re-adding the BUF, ad infinitum.
        """
        src = """
        module m(input a, output y, output z);
          assign y = a & 1'b0;
          assign z = ~(a ^ a);
        endmodule
        """
        nl = elaborate(src, "m")
        cleanup(nl, LIB, flatten=True)  # must terminate
        nl.validate()
        sim = Simulator(nl)
        for a in (0, 1):
            sim.set_input("a", a)
            sim.settle()
            assert sim.values["y"] == 0
            assert sim.values["z"] == 1

    def test_map_complex_gates_aoi(self):
        from repro.hdl.netlist import Netlist
        from repro.synth.techmap import map_complex_gates

        nl = Netlist()
        for name in ("a", "b", "c"):
            nl.add_net(name, is_input=True)
        nl.add_cell("AND2", ["a", "b"], "ab")
        nl.add_net("y", is_output=True)
        nl.add_cell("NOR2", ["ab", "c"], "y")
        assert map_complex_gates(nl, LIB) == 1
        nl.validate()
        assert netlist_stats(nl)["gate_counts"] == {"AOI21": 1}
        sim = Simulator(nl)
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    sim.set_input("a", a)
                    sim.set_input("b", b)
                    sim.set_input("c", c)
                    sim.settle()
                    assert sim.values["y"] == 1 - ((a & b) | c)

    def test_map_complex_gates_oai(self):
        from repro.hdl.netlist import Netlist
        from repro.synth.techmap import map_complex_gates

        nl = Netlist()
        for name in ("a", "b", "c"):
            nl.add_net(name, is_input=True)
        nl.add_cell("OR2", ["a", "b"], "ab")
        nl.add_net("y", is_output=True)
        nl.add_cell("NAND2", ["c", "ab"], "y")  # inner on second pin
        assert map_complex_gates(nl, LIB) == 1
        nl.validate()
        sim = Simulator(nl)
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    sim.set_input("a", a)
                    sim.set_input("b", b)
                    sim.set_input("c", c)
                    sim.settle()
                    assert sim.values["y"] == 1 - ((a | b) & c)

    def test_map_complex_gates_respects_fanout(self):
        from repro.hdl.netlist import Netlist
        from repro.synth.techmap import map_complex_gates

        nl = Netlist()
        for name in ("a", "b", "c"):
            nl.add_net(name, is_input=True)
        nl.add_cell("AND2", ["a", "b"], "ab")
        nl.add_net("y", is_output=True)
        nl.add_net("z", is_output=True)
        nl.add_cell("NOR2", ["ab", "c"], "y")
        nl.add_cell("BUF", ["ab"], "z")  # second reader: no merge allowed
        assert map_complex_gates(nl, LIB) == 0

    def test_mux_constant_select_folds(self):
        src = """
        module m(input [3:0] a, b, output [3:0] y);
          wire sel;
          assign sel = 1'b1;
          assign y = sel ? a : b;
        endmodule
        """
        nl = elaborate(src, "m")
        propagate_constants(nl)
        sweep_dead_cells(nl)
        assert netlist_stats(nl)["gate_counts"].get("MUX2", 0) == 0
