"""Tests for the netlist change journal, topo cache and fingerprint."""

import gc
import pickle

import pytest

from repro.hdl.netlist import _JOURNAL_LIMIT, Cell, EditUndo, Net, Netlist
from repro.synth import Constraints, TimingEngine, get_wireload, nangate45
from repro.synth.techmap import map_to_library


def small_netlist():
    nl = Netlist("t")
    nl.add_net("a", is_input=True)
    nl.add_net("b", is_input=True)
    nl.add_net("clk", is_input=True, is_clock=True)
    nl.add_cell("AND2", ["a", "b"], "x", name="g_and")
    nl.add_cell("DFF", ["x"], "q", name="g_dff", clock="clk")
    nl.add_net("out", is_output=True)
    nl.add_cell("BUF", ["q"], "out", name="g_buf")
    return nl


class TestJournal:
    def test_version_advances_on_mutation(self):
        nl = small_netlist()
        v = nl.version
        nl.add_net("extra")
        assert nl.version == v + 1

    def test_structure_events(self):
        nl = small_netlist()
        cursor = nl.version
        nl.add_net("extra")
        nl.rewire_input("g_buf", "q", "extra")
        events = nl.journal_since(cursor)
        assert events == [
            ("structure", None, "extra"),
            ("structure", "g_buf", "q", "extra"),
        ]

    def test_resize_event_via_lib_cell_setter(self):
        nl = small_netlist()
        lib = nangate45()
        nl.cells["g_and"].lib_cell = lib.weakest("AND2").name
        cursor = nl.version
        nl.cells["g_and"].lib_cell = lib.variants("AND2")[-1].name
        assert nl.journal_since(cursor) == [("resize", "g_and")]

    def test_same_lib_cell_is_a_noop(self):
        nl = small_netlist()
        lib = nangate45()
        nl.cells["g_and"].lib_cell = lib.weakest("AND2").name
        cursor = nl.version
        nl.cells["g_and"].lib_cell = lib.weakest("AND2").name
        assert nl.journal_since(cursor) == []

    def test_journal_since_none_after_trim(self):
        nl = Netlist("t")
        nl.add_net("a", is_input=True)
        nl.add_cell("NOT", ["a"], "b", name="g")
        for i in range(_JOURNAL_LIMIT + 1):
            nl._note_resize("g")
        assert nl.journal_since(0) is None
        assert nl.journal_since(nl.version) == []

    def test_touch_records_structure(self):
        nl = small_netlist()
        cursor = nl.version
        nl.touch()
        assert nl.journal_since(cursor) == [("structure", None)]

    def test_remove_cell_detaches_owner(self):
        nl = small_netlist()
        cell = nl.cells["g_buf"]
        nl.remove_cell("g_buf")
        cursor = nl.version
        cell.lib_cell = "BUF_X1"  # detached: must not journal into nl
        assert nl.journal_since(cursor) == []


class TestTopoCache:
    def test_cached_until_structural_change(self):
        nl = small_netlist()
        first = nl.topological_cells()
        assert nl.topological_cells() is first
        nl.add_net("extra")
        assert nl.topological_cells() is not first

    def test_resize_keeps_cache(self):
        nl = small_netlist()
        lib = nangate45()
        nl.cells["g_and"].lib_cell = lib.weakest("AND2").name
        first = nl.topological_cells()
        nl.cells["g_and"].lib_cell = lib.variants("AND2")[-1].name
        assert nl.topological_cells() is first

    def test_clone_order_matches(self):
        nl = small_netlist()
        order = [c.name for c in nl.topological_cells()]
        assert [c.name for c in nl.clone().topological_cells()] == order


class TestClone:
    def test_clone_is_independent(self):
        nl = small_netlist()
        other = nl.clone()
        other.remove_cell("g_buf")
        assert "g_buf" in nl.cells

    def test_clone_journals_into_clone_only(self):
        nl = small_netlist()
        other = nl.clone()
        cursor = nl.version
        other.add_net("extra")
        assert nl.journal_since(cursor) == []

    def test_clone_uid_skips_generated_cell_names(self):
        nl = Netlist("t")
        nl.add_net("a", is_input=True)
        nl.add_cell("NOT", ["a"], "b")  # autogenerated $g name
        clone = nl.clone()
        clone.add_cell("NOT", ["b"], clone.add_net().name)  # must not collide

    def test_fingerprint_stable_and_sensitive(self):
        nl = small_netlist()
        assert nl.fingerprint() == nl.clone().fingerprint()
        other = nl.clone()
        other.add_net("extra")
        assert other.fingerprint() != nl.fingerprint()


class TestSlots:
    def test_no_instance_dict(self):
        nl = small_netlist()
        net = nl.nets["a"]
        cell = nl.cells["g_and"]
        with pytest.raises(AttributeError):
            net.bogus = 1
        with pytest.raises(AttributeError):
            cell.bogus = 1
        assert not hasattr(net, "__dict__")
        assert not hasattr(cell, "__dict__")

    def test_net_and_cell_construct(self):
        net = Net(name="n", uid=0)
        assert net.sinks == {}
        cell = Cell(name="c", gate="NOT", inputs=["n"], output="o")
        assert cell.lib_cell is None


class TestJournalIsolation:
    """A ``lib_cell`` rebind journals into its own netlist only."""

    def test_clone_rebinds_journal_into_their_own_netlist(self):
        nl = small_netlist()
        other = nl.clone()
        cursor, other_cursor = nl.version, other.version
        other.cells["g_and"].lib_cell = "AND2_X2"
        assert nl.version == cursor
        assert other.journal_since(other_cursor) == [("resize", "g_and")]
        nl.cells["g_and"].lib_cell = "AND2_X4"
        assert nl.journal_since(cursor) == [("resize", "g_and")]
        assert other.version == other_cursor + 1

    def test_unpickled_copy_journals_into_itself(self):
        lib = nangate45()
        nl = small_netlist()
        map_to_library(nl, lib)
        copy = pickle.loads(pickle.dumps(nl))
        constraints = Constraints(clock_period=0.2)
        engine = TimingEngine(copy, lib, get_wireload("5K_heavy_1k"), constraints)
        engine.analyze()
        area = engine.total_area()
        cursor, original = copy.version, nl.version
        copy.cells["g_and"].lib_cell = lib.variants("AND2")[-1].name
        assert copy.journal_since(cursor) == [("resize", "g_and")]
        assert nl.version == original
        # The engine follows the copy's journal, so it sees the resize.
        fresh = TimingEngine(copy, lib, get_wireload("5K_heavy_1k"), constraints)
        assert engine.analyze() == fresh.analyze()
        assert engine.total_area() == fresh.total_area() != area

    def test_rollback_reattaches_restored_cells_only(self):
        nl = small_netlist()
        undo = EditUndo(nl)
        removed = nl.cells["g_buf"]
        undo.remove_cell("g_buf")
        added = nl.add_cell("NOT", ["q"], "out", name="g_not")
        undo.rollback()
        assert nl.cells["g_buf"] is removed
        cursor = nl.version
        removed.lib_cell = "BUF_X2"
        assert nl.journal_since(cursor) == [("resize", "g_buf")]
        cursor = nl.version
        added.lib_cell = "INV_X2"  # dropped by the rollback: journals nowhere
        assert nl.journal_since(cursor) == []


class TestSinkOrder:
    """``net.sinks`` iterates in attach order, whatever the hash seed."""

    NAMES = ["g5", "g1", "g9", "g3", "g7", "g0"]

    def fanout_netlist(self):
        nl = Netlist("t")
        nl.add_net("a", is_input=True)
        for name in self.NAMES:
            nl.add_cell("NOT", ["a"], f"{name}_y", name=name)
        return nl

    def test_attach_order_survives_removal_and_clone(self):
        nl = self.fanout_netlist()
        assert list(nl.nets["a"].sinks) == self.NAMES
        nl.remove_cell("g9")
        nl.add_cell("NOT", ["a"], "late_y", name="late")
        expected = ["g5", "g1", "g3", "g7", "g0", "late"]
        assert list(nl.nets["a"].sinks) == expected
        assert list(nl.clone().nets["a"].sinks) == expected

    def test_rollback_restores_attach_order(self):
        nl = self.fanout_netlist()
        undo = EditUndo(nl)
        undo.remove_cell("g1")
        nl.add_cell("BUF", ["a"], "g1_y", name="g1_buf")
        assert list(nl.nets["a"].sinks)[-1] == "g1_buf"
        undo.rollback()
        assert list(nl.nets["a"].sinks) == self.NAMES

    def test_copies_hold_untracked_sinks(self):
        """A dict of names to None is invisible to the cyclic collector."""
        clone = self.fanout_netlist().clone()
        assert not any(gc.is_tracked(net.sinks) for net in clone.nets.values())
        assert all(type(cell.inputs) is tuple for cell in clone.cells.values())
