"""Unit tests for netlist data structures."""

import pytest

from repro.hdl.netlist import Netlist, NetlistError

from ..synth.scalar_reference import netlist_stats


def make_inverter():
    nl = Netlist("inv")
    nl.add_net("a", is_input=True)
    nl.add_net("y", is_output=True)
    nl.add_cell("NOT", ["a"], "y", name="u1")
    return nl


class TestConstruction:
    def test_add_net_and_cell(self):
        nl = make_inverter()
        assert nl.num_cells == 1
        assert nl.nets["y"].driver == "u1"
        assert "u1" in nl.nets["a"].sinks

    def test_duplicate_net_rejected(self):
        nl = Netlist()
        nl.add_net("x")
        with pytest.raises(NetlistError):
            nl.add_net("x")

    def test_duplicate_cell_rejected(self):
        nl = make_inverter()
        nl.add_net("z")
        with pytest.raises(NetlistError):
            nl.add_cell("NOT", ["a"], "z", name="u1")

    def test_double_driver_rejected(self):
        nl = make_inverter()
        with pytest.raises(NetlistError):
            nl.add_cell("BUF", ["a"], "y")

    def test_driving_primary_input_rejected(self):
        nl = make_inverter()
        with pytest.raises(NetlistError):
            nl.add_cell("BUF", ["y"], "a")

    def test_wrong_arity_rejected(self):
        nl = Netlist()
        nl.add_net("a")
        with pytest.raises(NetlistError):
            nl.add_cell("AND2", ["a"], "y")

    def test_unknown_gate_rejected(self):
        nl = Netlist()
        nl.add_net("a")
        with pytest.raises(NetlistError):
            nl.add_cell("FROB", ["a"], "y")

    def test_dff_registers_clock_sink(self):
        nl = Netlist()
        nl.add_net("clk", is_input=True, is_clock=True)
        nl.add_net("d", is_input=True)
        nl.add_cell("DFF", ["d"], "q", name="r1", clock="clk")
        assert "r1" in nl.nets["clk"].sinks
        assert nl.cells["r1"].is_sequential


class TestMutation:
    def test_remove_cell_clears_links(self):
        nl = make_inverter()
        nl.remove_cell("u1")
        assert nl.nets["y"].driver is None
        assert "u1" not in nl.nets["a"].sinks

    def test_rewire_input(self):
        nl = make_inverter()
        nl.add_net("b", is_input=True)
        nl.rewire_input("u1", "a", "b")
        assert nl.cells["u1"].inputs == ("b",)
        assert "u1" not in nl.nets["a"].sinks
        assert "u1" in nl.nets["b"].sinks

    def test_rewire_missing_input_rejected(self):
        nl = make_inverter()
        with pytest.raises(NetlistError):
            nl.rewire_input("u1", "zzz", "a")


class TestQueries:
    def test_fanout_counts_output_port(self):
        nl = make_inverter()
        assert nl.fanout("y") == 1  # primary output counts as a sink
        assert nl.fanout("a") == 1

    def test_topological_order(self):
        nl = Netlist()
        nl.add_net("a", is_input=True)
        nl.add_cell("NOT", ["a"], "b", name="g1")
        nl.add_cell("NOT", ["b"], "c", name="g2")
        nl.add_cell("AND2", ["a", "c"], "d", name="g3")
        order = [c.name for c in nl.topological_cells()]
        assert order.index("g1") < order.index("g2") < order.index("g3")

    def test_combinational_cycle_detected(self):
        nl = Netlist()
        nl.add_net("x")
        nl.add_net("y")
        nl.add_cell("NOT", ["x"], "y")
        nl.add_cell("NOT", ["y"], "x")
        with pytest.raises(NetlistError, match="cycle"):
            nl.topological_cells()

    def test_cycle_through_dff_is_legal(self):
        nl = Netlist()
        nl.add_net("clk", is_input=True)
        nl.add_cell("NOT", ["q"], "d")
        nl.add_cell("DFF", ["d"], "q", clock="clk")
        nl.validate()

    def test_stats_shape(self):
        stats = netlist_stats(make_inverter())
        assert stats["cells"] == 1
        assert stats["gate_counts"] == {"NOT": 1}
        assert stats["inputs"] == 1


class TestCloneAndValidate:
    def test_clone_is_deep(self):
        nl = make_inverter()
        other = nl.clone()
        other.remove_cell("u1")
        assert nl.nets["y"].driver == "u1"
        assert other.nets["y"].driver is None

    def test_clone_validates(self):
        nl = make_inverter()
        nl.clone().validate()

    def test_clone_uid_continues(self):
        nl = make_inverter()
        other = nl.clone()
        fresh = other.add_net()
        assert fresh.name not in nl.nets

    def test_validate_passes_on_good_netlist(self):
        make_inverter().validate()

    def test_validate_catches_broken_backlink(self):
        nl = make_inverter()
        del nl.nets["a"].sinks["u1"]
        with pytest.raises(NetlistError):
            nl.validate()
