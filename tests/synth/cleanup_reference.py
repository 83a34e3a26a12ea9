"""Reference techmap cleanup: the five passes as a whole-netlist rescan.

This is the oracle for :func:`repro.synth.techmap.cleanup`.  Each pass
here rescans every cell on every call:

* ``propagate_constants`` seeds its pending set by reading the driver of
  every input of every cell, and walks all of ``netlist.cells`` once per
  sweep;
* ``sweep_dead_cells`` marks the transitive fanin of the primary outputs
  live, then removes the other cells whose output has no sinks, in the
  iteration order of a ``set`` of names (which follows the string hash
  seed; the removed set does not).

The production passes must leave the same order-sensitive state
(:func:`netlist_state`) and return the same counts.
"""

from __future__ import annotations

import itertools

from repro import perf
from repro.hdl.netlist import Netlist
from repro.synth.library import TechLibrary
from repro.synth.techmap import _fold, _replace_net_everywhere

__all__ = [
    "netlist_state",
    "remove_buffers",
    "propagate_constants",
    "sweep_dead_cells",
    "share_logic",
    "merge_inverters",
    "cleanup",
]


def netlist_state(netlist: Netlist) -> tuple:
    """Everything about ``netlist`` that a later edit's outcome can depend on.

    Cells and nets in dict order with every field (a net's sinks in
    attach order), the port lists and the next autogenerated uid.
    """
    cells = [
        (c.name, c.gate, c.inputs, c.output, c.lib_cell, list(c.attrs.items()))
        for c in netlist.cells.values()
    ]
    nets = [
        (n.name, n.uid, n.driver, list(n.sinks), n.is_input, n.is_output, n.is_clock)
        for n in netlist.nets.values()
    ]
    following = next(netlist._uid)
    netlist._uid = itertools.count(following)
    return (
        cells, nets, list(netlist.primary_inputs), list(netlist.primary_outputs),
        following,
    )


def remove_buffers(
    netlist: Netlist, keep_port_buffers: bool = True, flatten: bool = False
) -> int:
    removed = 0
    changed = True
    while changed:
        changed = False
        for name in [n for n, c in netlist.cells.items() if c.gate == "BUF"]:
            cell = netlist.cells.get(name)
            if cell is None:
                continue
            if cell.attrs.get("fanout_buffer"):
                continue
            if cell.attrs.get("hierarchy") and not flatten:
                continue
            out_net = netlist.nets[cell.output]
            if out_net.is_output and keep_port_buffers:
                continue
            src = cell.inputs[0]
            out = cell.output
            netlist.remove_cell(name)
            _replace_net_everywhere(netlist, out, src)
            removed += 1
            changed = True
    for name in [n for n, c in netlist.cells.items() if c.gate == "NOT"]:
        outer = netlist.cells.get(name)
        if outer is None or outer.gate != "NOT":
            continue
        inner = netlist.driver_cell(outer.inputs[0])
        if inner is None or inner.gate != "NOT":
            continue
        out_net = netlist.nets[outer.output]
        if out_net.is_output:
            continue
        src = inner.inputs[0]
        out = outer.output
        netlist.remove_cell(name)
        _replace_net_everywhere(netlist, out, src)
        removed += 1
    return removed


def merge_inverters(netlist: Netlist, library: TechLibrary) -> int:
    merged = 0
    partner = {"AND2": "NAND2", "OR2": "NOR2", "NAND2": "AND2", "NOR2": "OR2",
               "XOR2": "XNOR2", "XNOR2": "XOR2"}
    for not_name in [n for n, c in netlist.cells.items() if c.gate == "NOT"]:
        not_cell = netlist.cells.get(not_name)
        if not_cell is None or not_cell.gate != "NOT":
            continue
        src_net = not_cell.inputs[0]
        driver = netlist.driver_cell(src_net)
        if driver is None or driver.gate not in partner:
            continue
        if netlist.fanout(src_net) != 1 or netlist.nets[src_net].is_output:
            continue
        new_gate = partner[driver.gate]
        if not library.variants(new_gate):
            continue
        out_net = not_cell.output
        inputs = list(driver.inputs)
        netlist.remove_cell(not_name)
        netlist.remove_cell(driver.name)
        cell = netlist.add_cell(new_gate, inputs, out_net)
        cell.lib_cell = library.weakest(new_gate).name
        merged += 1
    return merged


def propagate_constants(netlist: Netlist) -> int:
    folded = 0
    visits = 0
    const_net = {}
    for cell in netlist.cells.values():
        if cell.gate == "CONST0":
            const_net[0] = cell.output
        elif cell.gate == "CONST1":
            const_net[1] = cell.output

    def value_of(net_name: str) -> int | None:
        driver = netlist.driver_cell(net_name)
        if driver is None:
            return None
        if driver.gate == "CONST0":
            return 0
        if driver.gate == "CONST1":
            return 1
        return None

    def ensure_const(value: int) -> str:
        if value not in const_net:
            net = netlist.add_net()
            netlist.add_cell("CONST1" if value else "CONST0", [], net.name)
            const_net[value] = net.name
        return const_net[value]

    pending: set[str] = set()
    for name, cell in netlist.cells.items():
        if cell.gate in ("CONST0", "CONST1", "DFF"):
            continue
        if len(cell.inputs) == 2 and cell.inputs[0] == cell.inputs[1]:
            pending.add(name)
        elif any(value_of(n) is not None for n in cell.inputs):
            pending.add(name)
    changed = True
    while changed and pending:
        changed = False
        for name in list(netlist.cells):
            if name not in pending:
                continue
            pending.discard(name)
            cell = netlist.cells.get(name)
            if cell is None or cell.gate in ("CONST0", "CONST1", "DFF"):
                continue
            if cell.attrs.get("port_tie"):
                continue
            visits += 1
            vals = [value_of(n) for n in cell.inputs]
            same = len(cell.inputs) == 2 and cell.inputs[0] == cell.inputs[1]
            result = _fold(cell.gate, vals, same_inputs=same)
            if result is None:
                continue
            kind, payload = result
            out = cell.output
            pass_net = cell.inputs[payload] if kind in ("wire", "not") else None
            if netlist.nets[out].is_output:
                netlist.remove_cell(name)
                if kind == "const":
                    netlist.add_cell(
                        "BUF", [ensure_const(payload)], out, port_tie=True
                    )
                else:
                    netlist.add_cell(
                        "BUF" if kind == "wire" else "NOT", [pass_net], out
                    )
                folded += 1
                changed = True
                continue
            readers = list(netlist.nets[out].sinks)
            netlist.remove_cell(name)
            if kind == "const":
                source = ensure_const(payload)
            elif kind == "wire":
                source = pass_net
            else:
                inv_net = netlist.add_net()
                netlist.add_cell("NOT", [pass_net], inv_net.name)
                source = inv_net.name
            _replace_net_everywhere(netlist, out, source)
            pending.update(readers)
            folded += 1
            changed = True
    perf.incr("techmap.const_cells_visited", visits)
    return folded


def sweep_dead_cells(netlist: Netlist) -> int:
    live_nets: set[str] = set(netlist.primary_outputs)
    stack = list(live_nets)
    live_cells: set[str] = set()
    while stack:
        net_name = stack.pop()
        driver = netlist.nets[net_name].driver
        if driver is None or driver in live_cells:
            continue
        live_cells.add(driver)
        cell = netlist.cells[driver]
        for net_in in cell.inputs:
            stack.append(net_in)
        if "clock" in cell.attrs:
            stack.append(cell.attrs["clock"])
    dead = [name for name in netlist.cells if name not in live_cells]
    removed = 0
    dead_set = set(dead)
    progress = True
    while dead_set and progress:
        progress = False
        for name in list(dead_set):
            cell = netlist.cells[name]
            out_net = netlist.nets[cell.output]
            if not out_net.sinks and not out_net.is_output:
                netlist.remove_cell(name)
                dead_set.discard(name)
                removed += 1
                progress = True
    return removed


_COMMUTATIVE = frozenset({"AND2", "OR2", "XOR2", "XNOR2", "NAND2", "NOR2"})


def share_logic(netlist: Netlist) -> int:
    merged = 0
    changed = True
    while changed:
        changed = False
        table: dict[tuple, str] = {}
        for name in list(netlist.cells):
            cell = netlist.cells.get(name)
            if cell is None or cell.is_sequential:
                continue
            if cell.gate in ("CONST0", "CONST1"):
                continue
            inputs = (
                tuple(sorted(cell.inputs))
                if cell.gate in _COMMUTATIVE
                else tuple(cell.inputs)
            )
            key = (cell.gate, inputs)
            canonical = table.get(key)
            if canonical is None:
                table[key] = name
                continue
            keeper = netlist.cells[canonical]
            out_net = netlist.nets[cell.output]
            if out_net.is_output:
                if netlist.nets[keeper.output].is_output:
                    continue
                table[key] = name
                cell, keeper = keeper, netlist.cells[name]
            dup_out = cell.output
            netlist.remove_cell(cell.name)
            _replace_net_everywhere(netlist, dup_out, keeper.output)
            merged += 1
            changed = True
    return merged


def cleanup(
    netlist: Netlist,
    library: TechLibrary | None = None,
    flatten: bool = False,
) -> dict[str, int]:
    totals = {"constants": 0, "buffers": 0, "inverters": 0, "dead": 0, "shared": 0}
    for _ in range(8):
        changed = 0
        changed += (n := propagate_constants(netlist))
        totals["constants"] += n
        changed += (n := remove_buffers(netlist, flatten=flatten))
        totals["buffers"] += n
        changed += (n := share_logic(netlist))
        totals["shared"] += n
        if library is not None:
            changed += (n := merge_inverters(netlist, library))
            totals["inverters"] += n
        changed += (n := sweep_dead_cells(netlist))
        totals["dead"] += n
        if changed == 0:
            break
    return totals
