"""Technology mapping and structural cleanup passes.

These passes operate in place on a :class:`~repro.hdl.netlist.Netlist`:

* :func:`map_to_library` — bind every generic gate to a library cell.
* :func:`merge_inverters` — NAND/NOR pattern absorption (AND+NOT -> NAND).
* :func:`remove_buffers` — collapse BUF cells and double inverters.
* :func:`propagate_constants` — fold gates with constant inputs.
* :func:`sweep_dead_cells` — drop logic with no path to any output.

Each returns the number of cells it changed/removed so callers can iterate
to a fixpoint.
"""

from __future__ import annotations

import heapq
import itertools

from .. import perf
from ..hdl.netlist import Netlist
from .library import TechLibrary

__all__ = [
    "map_to_library",
    "merge_inverters",
    "remove_buffers",
    "propagate_constants",
    "sweep_dead_cells",
    "share_logic",
    "map_complex_gates",
    "cleanup",
]


def map_to_library(netlist: Netlist, library: TechLibrary) -> int:
    """Bind each generic gate to the weakest drive variant of its function."""
    mapped = 0
    for cell in netlist.cells.values():
        if cell.gate in ("CONST0", "CONST1"):
            cell.lib_cell = None
            continue
        cell.lib_cell = library.weakest(cell.gate).name
        mapped += 1
    return mapped


def _replace_net_everywhere(netlist: Netlist, old: str, new: str) -> None:
    """Redirect all readers of ``old`` (sinks + output port) to ``new``."""
    old_net = netlist.nets[old]
    for sink_name in list(old_net.sinks):
        sink = netlist.cells[sink_name]
        if old in sink.inputs:
            netlist.rewire_input(sink_name, old, new)
        if sink.attrs.get("clock") == old:
            netlist.rewire_clock(sink_name, new)
    if old_net.is_output:
        # Keep the port net: drive it with a buffer from ``new`` instead.
        if old_net.driver is None:
            netlist.add_cell("BUF", [new], old)


def merge_inverters(netlist: Netlist, library: TechLibrary) -> int:
    """Absorb NOT cells into preceding AND2/OR2, forming NAND2/NOR2.

    Applied only when the AND/OR drives nothing but the inverter, so the
    merge is always a strict area/delay win.
    """
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


def remove_buffers(
    netlist: Netlist, keep_port_buffers: bool = True, flatten: bool = False
) -> int:
    """Collapse BUF cells (and INV pairs) by rewiring sinks to the source.

    Buffers driving primary outputs are kept when ``keep_port_buffers`` so
    port nets always have a driver.  Buffers inserted intentionally by
    fanout optimization (attr ``fanout_buffer``) are preserved; buffers
    marking hierarchy boundaries (attr ``hierarchy``) are preserved unless
    ``flatten`` is set — this is what ungroup/set_flatten buy you.
    """
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
    # NOT(NOT(x)) -> x
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


#: Gates constant propagation never folds.
_NEVER_FOLDED = frozenset({"CONST0", "CONST1", "DFF"})


def propagate_constants(netlist: Netlist) -> int:
    """Fold gates fed by CONST0/CONST1 drivers.  Iterates to fixpoint.

    Visits are worklist-driven: only cells with a constant-driven input or
    tied-together input pins can fold, and a cell only *becomes* foldable
    when a fold rewires one of its inputs — so the pending set is seeded
    from the tied cells and the input-pin readers of every constant
    driver, and refilled with the rewired readers of each fold.  Each
    sweep pops the pending cells in ``netlist.cells`` order from a heap
    keyed by position; a reader queued behind the sweep's position, or a
    cell the sweep created, waits for the next sweep.  That is the fold
    sequence of a walk over every cell per sweep (a visit to a
    non-pending cell was always a no-op): identical folds in identical
    order, hence identical generated net/cell names.  The number of cells
    actually visited lands on the ``techmap.const_cells_visited`` perf
    counter.
    """
    folded = 0
    visits = 0
    cells = netlist.cells
    nets = netlist.nets
    const_net = {}
    pending: set[str] = set()
    for name, cell in cells.items():
        gate = cell.gate
        if gate == "CONST0" or gate == "CONST1":
            out = cell.output
            const_net[1 if gate == "CONST1" else 0] = out
            for reader in nets[out].sinks:
                reader_cell = cells[reader]
                if reader_cell.gate not in _NEVER_FOLDED and out in reader_cell.inputs:
                    pending.add(reader)
        elif gate != "DFF" and len(cell.inputs) == 2 and cell.inputs[0] == cell.inputs[1]:
            pending.add(name)

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

    position = dict(zip(cells, itertools.count())) if pending else {}
    changed = True
    while changed and pending:
        changed = False
        _number_new_cells(cells, position)
        horizon = len(position)  # cells created from here on wait a sweep
        heap = [(position[name], name) for name in pending]
        heapq.heapify(heap)
        while heap:
            at, name = heapq.heappop(heap)
            pending.discard(name)
            cell = cells.get(name)
            if cell is None or cell.gate in _NEVER_FOLDED:
                continue
            if cell.attrs.get("port_tie"):
                continue  # constant tie driving a port: already final
            visits += 1
            vals = [value_of(n) for n in cell.inputs]
            same = len(cell.inputs) == 2 and cell.inputs[0] == cell.inputs[1]
            result = _fold(cell.gate, vals, same_inputs=same)
            if result is None:
                continue
            kind, payload = result
            out = cell.output
            pass_net = cell.inputs[payload] if kind in ("wire", "not") else None
            if nets[out].is_output:
                # Port nets must keep a driver; a constant result becomes a
                # BUF tie-off that is never re-folded (else the fold loop
                # would oscillate removing and re-adding it).
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
            # Readers about to be rewired may become foldable; queue them
            # before the rewire detaches them from this net.
            readers = list(nets[out].sinks)
            netlist.remove_cell(name)
            if kind == "const":
                source = ensure_const(payload)
            elif kind == "wire":
                source = pass_net
            else:  # "not"
                inv_net = netlist.add_net()
                netlist.add_cell("NOT", [pass_net], inv_net.name)
                source = inv_net.name
            _replace_net_everywhere(netlist, out, source)
            for reader in readers:
                if reader not in pending:
                    pending.add(reader)
                    where = position.get(reader, horizon)
                    if at < where < horizon:
                        heapq.heappush(heap, (where, reader))
            folded += 1
            changed = True
    perf.incr("techmap.const_cells_visited", visits)
    return folded


def _number_new_cells(cells: dict, position: dict[str, int]) -> None:
    """Give the cells appended since ``position`` was last extended the
    next positions, in order (new cells sit at the end of ``cells``)."""
    fresh = []
    for name in reversed(cells):
        if name in position:
            break
        fresh.append(name)
    for name in reversed(fresh):
        position[name] = len(position)


def _fold(gate: str, vals: list[int | None], same_inputs: bool = False):
    """Constant-folding rules; returns (kind, payload) or None."""
    if same_inputs:
        # Both pins tied to one net: idempotent/annihilating identities.
        identities = {
            "AND2": ("wire", 0),
            "OR2": ("wire", 0),
            "XOR2": ("const", 0),
            "XNOR2": ("const", 1),
            "NAND2": ("not", 0),
            "NOR2": ("not", 0),
        }
        if gate in identities:
            return identities[gate]
    known = [(i, v) for i, v in enumerate(vals) if v is not None]
    if not known:
        return None
    if all(v is not None for v in vals):
        table = {
            "NOT": lambda v: 1 - v[0],
            "BUF": lambda v: v[0],
            "AND2": lambda v: v[0] & v[1],
            "OR2": lambda v: v[0] | v[1],
            "NAND2": lambda v: 1 - (v[0] & v[1]),
            "NOR2": lambda v: 1 - (v[0] | v[1]),
            "XOR2": lambda v: v[0] ^ v[1],
            "XNOR2": lambda v: 1 - (v[0] ^ v[1]),
            "MUX2": lambda v: v[2] if v[0] else v[1],
        }
        if gate in table:
            return ("const", table[gate](vals))
        return None
    idx, val = known[0]
    other = 1 - idx if gate != "MUX2" else None
    if gate == "AND2":
        return ("const", 0) if val == 0 else ("wire", other)
    if gate == "OR2":
        return ("const", 1) if val == 1 else ("wire", other)
    if gate == "NAND2":
        return ("const", 1) if val == 0 else ("not", other)
    if gate == "NOR2":
        return ("const", 0) if val == 1 else ("not", other)
    if gate == "XOR2":
        return ("wire", other) if val == 0 else ("not", other)
    if gate == "XNOR2":
        return ("not", other) if val == 0 else ("wire", other)
    if gate == "MUX2" and idx == 0:
        # select pin constant: pass through the chosen data pin
        return ("wire", 2 if val == 1 else 1)
    return None


def sweep_dead_cells(netlist: Netlist) -> int:
    """Remove, to a fixpoint, every cell whose output nothing reads.

    A cell is unread when its output net has no sinks and is not a
    primary output.  Removing it can leave one of its input or clock
    nets unread, and then that net's driver goes too: a worklist seeded
    by one pass over the cells follows those removals.  These are
    exactly the cells outside the transitive fanin of the primary
    outputs that a removal can reach (a live cell always keeps a live
    sink or drives a port); a dead cycle stays.
    """
    cells = netlist.cells
    nets = netlist.nets
    stack = [name for name, cell in cells.items() if _unread(nets[cell.output])]
    removed = 0
    while stack:
        cell = cells[stack.pop()]
        read = dict.fromkeys(cell.inputs)
        if "clock" in cell.attrs:
            read[cell.attrs["clock"]] = None
        netlist.remove_cell(cell.name)
        removed += 1
        for net_name in read:
            net = nets[net_name]
            if net.driver is not None and _unread(net):
                stack.append(net.driver)
    return removed


def _unread(net) -> bool:
    return not net.sinks and not net.is_output


def map_complex_gates(netlist: Netlist, library: TechLibrary) -> int:
    """Merge AND/OR + inverting-gate pairs into AOI21/OAI21 complex cells.

    ``NOR2(AND2(a,b), c) -> AOI21(a,b,c)`` and
    ``NAND2(OR2(a,b), c) -> OAI21(a,b,c)`` whenever the inner gate has a
    single fanout.  One complex cell replaces two simple ones — an area
    and delay win that real libraries exist to provide.
    """
    merged = 0
    patterns = {"NOR2": ("AND2", "AOI21"), "NAND2": ("OR2", "OAI21")}
    for name in list(netlist.cells):
        outer = netlist.cells.get(name)
        if outer is None or outer.gate not in patterns:
            continue
        inner_kind, complex_kind = patterns[outer.gate]
        if not library.variants(complex_kind):
            continue
        for pin in (0, 1):
            inner_net = outer.inputs[pin]
            inner = netlist.driver_cell(inner_net)
            if (
                inner is None
                or inner.gate != inner_kind
                or netlist.fanout(inner.output) != 1
                or netlist.nets[inner.output].is_output
                or outer.inputs.count(inner_net) != 1
            ):
                continue
            other_net = outer.inputs[1 - pin]
            a, b = inner.inputs
            out_net = outer.output
            netlist.remove_cell(outer.name)
            netlist.remove_cell(inner.name)
            cell = netlist.add_cell(complex_kind, [a, b, other_net], out_net)
            cell.lib_cell = library.weakest(complex_kind).name
            merged += 1
            break
    return merged


_COMMUTATIVE = frozenset({"AND2", "OR2", "XOR2", "XNOR2", "NAND2", "NOR2"})


def share_logic(netlist: Netlist) -> int:
    """Structural hashing: merge gates computing identical functions.

    Two combinational gates with the same type and the same input nets
    (order-insensitive for commutative gates) compute the same value; all
    but one are removed and their readers rewired — the classical
    "strash" / common-subexpression-sharing step.  Iterates to a fixpoint
    so chains of duplicates collapse fully.
    """
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
                # Keep port nets driven; swap roles so the port-driving
                # copy is the canonical one when possible.
                if netlist.nets[keeper.output].is_output:
                    continue  # both drive ports; leave them
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
    """Run the structural passes to a fixpoint; returns per-pass counts."""
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
