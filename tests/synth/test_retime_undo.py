"""Retiming undo: a rolled-back move restores the netlist exactly.

``retime`` keeps a register move only when the worst slack does not
degrade.  A degrading move is undone from an
:class:`~repro.hdl.netlist.EditUndo` record of the cells and nets it
touched.  The oracle is the snapshot rollback the pass used to run:
``netlist.clone()`` before the move, adopted back in place by
:func:`replace_with` after it.  Both must leave the same netlist — same
fingerprint, cell and net order, topological order, per-net sink
iteration order and next generated name — and bit-identical timing.
"""

import json
import os
import subprocess
import sys
import textwrap

from hypothesis import given, settings

from repro import perf
from repro.hdl.netlist import EditUndo, Netlist
from repro.synth import (
    Constraints,
    TimingEngine,
    get_wireload,
    nangate45,
    optimizer,
    retime,
)
from repro.synth.techmap import map_to_library

from .test_soa_parity import random_mapped_netlist

LIBRARY = nangate45()
WIRELOAD = get_wireload("5K_heavy_1k")


def replace_with(netlist, other):
    """Adopt ``other``'s contents in place (the clone-snapshot rollback)."""
    netlist.name = other.name
    netlist.nets = other.nets
    netlist.cells = other.cells
    netlist.primary_inputs = other.primary_inputs
    netlist.primary_outputs = other.primary_outputs
    netlist._uid = other._uid
    for cell in netlist.cells.values():
        cell._journal = netlist._journal
    netlist.touch()


class CloneUndo:
    """:class:`EditUndo`'s interface over a clone snapshot (the oracle)."""

    def __init__(self, netlist, positions=None):
        self.netlist = netlist
        self.snapshot = netlist.clone()

    def remove_cell(self, name):
        self.netlist.remove_cell(name)

    def rollback(self):
        replace_with(self.netlist, self.snapshot)


def observed(netlist, constraints):
    """Everything a rollback must restore; allocates the next net name."""
    report = TimingEngine(netlist, LIBRARY, WIRELOAD, constraints).analyze()
    return (
        netlist.fingerprint(),
        list(netlist.cells),
        list(netlist.nets),
        [cell.name for cell in netlist.topological_cells()],
        {name: list(net.sinks) for name, net in netlist.nets.items()},
        report,
        netlist.add_net().name,
    )


def pipeline(before: int, after: int) -> Netlist:
    """``a`` -> ``before`` inverters -> AND2 -> register -> ``after`` -> out.

    Plus an off-path net ``c`` whose sink set grew and shrank.
    """
    netlist = Netlist("pipe")
    netlist.add_net("clk", is_input=True, is_clock=True)
    netlist.add_net("a", is_input=True)
    netlist.add_net("b", is_input=True)
    prev = "a"
    for i in range(before):
        netlist.add_cell("NOT", [prev], f"x{i}", name=f"gx{i}")
        prev = f"x{i}"
    netlist.add_cell("AND2", [prev, "b"], "d", name="g")
    netlist.add_cell("DFF", ["d"], "q", name="r", clock="clk")
    prev = "q"
    for i in range(after):
        netlist.add_cell("NOT", [prev], f"y{i}", name=f"gy{i}")
        prev = f"y{i}"
    netlist.add_net("out", is_output=True)
    netlist.add_cell("BUF", [prev], "out", name="gout")
    # ``c``'s sinks lost their first 34 entries; a rollback must keep the
    # order of the rest.
    netlist.add_net("c", is_input=True)
    for i in range(40):
        netlist.add_cell("BUF", ["c"], f"z{i}", name=f"gz{i}")
    for i in range(34):
        netlist.remove_cell(f"gz{i}")
    map_to_library(netlist, LIBRARY)
    return netlist


class TestRollback:
    def test_degrading_move_rolls_back_like_a_clone(self, monkeypatch):
        """Kept moves, then one that degrades the slack and is undone."""
        constraints = Constraints(clock_period=0.1)
        netlist = pipeline(3, 4)
        perf.reset()
        result = retime(netlist, LIBRARY, WIRELOAD, constraints)
        assert perf.counter("retime.rollback") >= 1
        assert result.changes >= 1
        monkeypatch.setattr(optimizer, "EditUndo", CloneUndo)
        oracle = pipeline(3, 4)
        expected = retime(oracle, LIBRARY, WIRELOAD, constraints)
        assert result == expected
        assert observed(netlist, constraints) == observed(oracle, constraints)

    @settings(max_examples=30, deadline=None)
    @given(random_mapped_netlist())
    def test_retime_matches_clone_oracle(self, case):
        # Two clones of one netlist start with identical sink-set layouts.
        netlist, oracle = case[0].clone(), case[0].clone()
        constraints = case[1]
        result = retime(netlist, LIBRARY, WIRELOAD, constraints)
        saved = optimizer.EditUndo
        optimizer.EditUndo = CloneUndo
        try:
            expected = retime(oracle, LIBRARY, WIRELOAD, constraints)
        finally:
            optimizer.EditUndo = saved
        assert result == expected
        assert observed(netlist, constraints) == observed(oracle, constraints)

    @settings(max_examples=30, deadline=None)
    @given(random_mapped_netlist())
    def test_every_legal_move_undoes_to_the_snapshot(self, case):
        """Each legal backward/forward move, undone, equals a clone taken
        before it (what ``replace_with`` would have adopted)."""
        netlist, constraints = case
        for name in list(netlist.cells):
            for move in (optimizer._retime_backward, optimizer._retime_forward):
                work = netlist.clone()
                snapshot = work.clone()
                undo = EditUndo(work)
                if move(work, name, undo):
                    undo.rollback()
                    assert observed(work, constraints) == observed(
                        snapshot, constraints
                    )


FORWARD_MOVE = textwrap.dedent(
    """
    import json

    from repro.hdl.netlist import Netlist
    from repro.synth import Constraints, get_wireload, nangate45, retime
    from repro.synth.techmap import map_to_library

    lib = nangate45()
    nl = Netlist("fwd")
    nl.add_net("clk", is_input=True, is_clock=True)
    for i in range(2):
        nl.add_net(f"a{i}", is_input=True)
        nl.add_cell("DFF", [f"a{i}"], f"q{i}", name=f"r{i}", clock="clk")
    nl.add_cell("AND2", ["q0", "q1"], "x0", name="g")
    for i in range(4):
        nl.add_cell("NOT", [f"x{i}"], f"x{i + 1}", name=f"n{i}")
    nl.add_net("out", is_output=True)
    nl.add_cell("BUF", ["x4"], "out", name="o")
    map_to_library(nl, lib)
    nl.cells["r0"].lib_cell = "DFF_X1"
    nl.cells["r1"].lib_cell = "DFF_X2"
    result = retime(nl, lib, get_wireload("5K_heavy_1k"), Constraints(clock_period=0.15))
    regs = sorted(c.lib_cell for c in nl.cells.values() if c.is_sequential)
    print(json.dumps([result.changes, regs, nl.fingerprint()]))
    """
)


class TestForwardDeterminism:
    def test_merged_register_follows_pin_order_under_any_hash_seed(self):
        """The merged register takes the library cell of the first pin's
        register (DFF_X1), whatever ``PYTHONHASHSEED`` orders sets by."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        outputs = set()
        for seed in range(6):
            env["PYTHONHASHSEED"] = str(seed)
            run = subprocess.run(
                [sys.executable, "-c", FORWARD_MOVE],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs.add(run.stdout.strip())
        assert len(outputs) == 1, outputs
        changes, regs, _ = json.loads(outputs.pop())
        assert changes >= 1
        assert regs == ["DFF_X1"]
