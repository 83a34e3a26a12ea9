"""Gate-level netlist data structures.

The elaborator lowers RTL to a netlist of *generic* gates; the synthesis
engine (:mod:`repro.synth`) then technology-maps those onto library cells,
optimizes, and times the result.  A :class:`Netlist` is a flat graph:

* :class:`Net` — a single-bit wire with one driver pin and many sink pins.
* :class:`Cell` — a gate instance with ordered input nets and one output
  net (sequential cells also carry clock/reset nets in ``attrs``).

Generic gate types are listed in :data:`GENERIC_GATES`.  After technology
mapping, ``Cell.lib_cell`` names the bound library cell.

Change journal
--------------

Every mutation is recorded in a bounded journal so observers (notably the
incremental timing engine in :mod:`repro.synth.timing`) can find out what
changed since they last looked instead of re-deriving the world:

* structural edits (``add_net``/``add_cell``/``remove_cell``/
  ``rewire_input``/``rewire_clock``) log ``("structure", cell, *nets)``
  naming the cell and the nets whose connectivity or flags the edit
  changed, and invalidate the cached topological order.  ``add_net``
  logs ``("structure", None, net)``; ``add_cell``/``remove_cell`` name
  the cell, then its output, input and clock nets;
  ``rewire_input``/``rewire_clock`` name the cell, then the old and the
  new net.  Any net or cell not named keeps its fields *and* its
  ``sinks`` iteration order, which is what lets the SoA lowering
  (:mod:`repro.synth.soa`) patch itself from these events;
* :meth:`Netlist.touch` logs ``("structure", None)``, naming nothing:
  something changed that the journal cannot name;
* rebinding a cell's library cell (``cell.lib_cell = ...``) logs a
  ``resize`` event naming the cell — the hot path of gate sizing.

Observers call :meth:`Netlist.journal_since` with their last-seen
:attr:`Netlist.version`; a ``None`` return means the journal was trimmed
past their cursor and they must rebuild from scratch.  Code that mutates
nets or cells directly (bypassing the methods here) must call
:meth:`Netlist.touch` afterwards so observers invalidate.

Data model
----------

A netlist and its nets and cells hold no reference cycle, so reference
counting frees a finished netlist at once, and each copy holds as few
objects as the cyclic collector must track:

* a cell journals its resizes into the netlist's :class:`_Journal`
  object, which it holds instead of the netlist itself;
* ``Net.sinks`` is an insertion-ordered ``dict`` of sink cell names to
  ``None``: it iterates in attach order, whatever the string hash seed,
  and the collector does not track a dict of strings;
* ``Cell.inputs`` is a tuple, replaced (never mutated) by
  :meth:`Netlist.rewire_input`, so clones share it.

Since a synthesis run builds no cycle, the cyclic garbage collector has
nothing to free during one; it would only rescan the live nets and
cells.  Code that runs such work (a ``DCShell`` batch, a design
analysis) does so under :func:`collector_paused`.

:class:`EditUndo` restores a netlist after an edit made of cell removals
and appended cells and nets (a retiming move) to exactly its prior
state, from a record of only the cells and nets the edit touched.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import threading
from collections.abc import Iterable, Iterator
from contextlib import contextmanager

__all__ = [
    "GENERIC_GATES", "Net", "Cell", "Netlist", "NetlistError", "EditUndo",
    "collector_paused",
]


#: Generic gate types produced by elaboration.  ``inputs`` is the pin count.
GENERIC_GATES = {
    "CONST0": 0,
    "CONST1": 0,
    "BUF": 1,
    "NOT": 1,
    "AND2": 2,
    "OR2": 2,
    "NAND2": 2,
    "NOR2": 2,
    "XOR2": 2,
    "XNOR2": 2,
    "MUX2": 3,  # (sel, a, b) -> sel ? b : a
    "AOI21": 3,  # ~((a & b) | c)
    "OAI21": 3,  # ~((a | b) & c)
    "DFF": 1,  # (d) -> q, clock in attrs["clock"]
}

#: Journal entries kept before the oldest half is trimmed.
_JOURNAL_LIMIT = 200_000


class NetlistError(ValueError):
    """Raised for structurally invalid netlist operations."""


# The collector is process-wide, so the regions' depth count is too.
_PAUSE_LOCK = threading.Lock()
_pause_depth = 0
_pause_found_enabled = False


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the block with the cyclic garbage collector disabled.

    Regions nest and overlap across threads: the first one in records
    whether the collector was enabled and disables it, the last one out
    enables it again only if it was, so a caller that disabled it keeps
    it disabled.  The state is restored when the block raises, too.
    Reference counting still frees everything acyclic at once; the
    pause only defers cyclic garbage, which a synthesis run does not make.
    Usable as a decorator: ``@collector_paused()``.
    """
    global _pause_depth, _pause_found_enabled
    with _PAUSE_LOCK:
        if _pause_depth == 0:
            _pause_found_enabled = gc.isenabled()
            gc.disable()
        _pause_depth += 1
    try:
        yield
    finally:
        with _PAUSE_LOCK:
            _pause_depth -= 1
            if _pause_depth == 0 and _pause_found_enabled:
                gc.enable()


class _Journal:
    """A netlist's change events and the version of the oldest one kept.

    Attached cells hold this object, not their netlist, to journal their
    resizes.  It pickles empty: an unpickled netlist is a fresh object no
    observer holds a cursor into, and pickle's memo hands its cells the
    same new journal.
    """

    __slots__ = ("events", "base")

    def __init__(self) -> None:
        self.events: list[tuple] = []
        self.base = 0

    def append(self, event: tuple) -> None:
        events = self.events
        events.append(event)
        if len(events) > _JOURNAL_LIMIT:
            drop = len(events) // 2
            self.base += drop
            del events[:drop]

    def __reduce__(self):
        return _Journal, ()


class Net:
    """A single-bit net (slotted: netlists hold hundreds of thousands)."""

    __slots__ = ("name", "uid", "driver", "sinks", "is_input", "is_output", "is_clock")

    def __init__(
        self,
        name: str,
        uid: int,
        driver: str | None = None,
        sinks: dict[str, None] | None = None,
        is_input: bool = False,
        is_output: bool = False,
        is_clock: bool = False,
    ) -> None:
        self.name = name
        self.uid = uid
        self.driver = driver  # cell name, or None for primary inputs
        self.sinks: dict[str, None] = sinks if sinks is not None else {}
        self.is_input = is_input
        self.is_output = is_output
        self.is_clock = is_clock

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Net(name={self.name!r}, driver={self.driver!r}, "
            f"sinks={list(self.sinks)!r})"
        )


class Cell:
    """A gate instance (slotted; ``lib_cell`` writes journal resize events)."""

    __slots__ = ("name", "gate", "inputs", "output", "_lib_cell", "attrs", "_journal")

    def __init__(
        self,
        name: str,
        gate: str,
        inputs: Iterable[str] = (),
        output: str = "",
        lib_cell: str | None = None,
        attrs: dict | None = None,
    ) -> None:
        self.name = name
        self.gate = gate
        self.inputs: tuple[str, ...] = tuple(inputs)
        self.output = output
        self._lib_cell = lib_cell  # bound library cell after mapping
        self.attrs: dict = attrs if attrs is not None else {}
        self._journal: _Journal | None = None  # set while in a netlist

    @property
    def lib_cell(self) -> str | None:
        return self._lib_cell

    @lib_cell.setter
    def lib_cell(self, value: str | None) -> None:
        if value == self._lib_cell:
            return
        self._lib_cell = value
        if self._journal is not None:
            self._journal.append(("resize", self.name))

    @property
    def is_sequential(self) -> bool:
        return self.gate == "DFF"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Cell(name={self.name!r}, gate={self.gate!r}, "
            f"inputs={self.inputs!r}, output={self.output!r}, "
            f"lib_cell={self._lib_cell!r})"
        )


class Netlist:
    """A flat gate-level netlist with named nets and cells."""

    def __init__(self, name: str = "top") -> None:
        self.name = name
        self.nets: dict[str, Net] = {}
        self.cells: dict[str, Cell] = {}
        self.primary_inputs: list[str] = []
        self.primary_outputs: list[str] = []
        self._uid = itertools.count()
        self._journal = _Journal()
        self._topo_cache: list[Cell] | None = None
        self._max_uid_memo: int | None = None

    # -- change journal -------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic mutation counter; equal versions mean nothing changed."""
        journal = self._journal
        return journal.base + len(journal.events)

    def journal_since(self, cursor: int) -> list[tuple] | None:
        """Events recorded since ``cursor``; None when trimmed past it."""
        journal = self._journal
        if cursor < journal.base:
            return None
        return journal.events[cursor - journal.base :]

    def _note_structure(self, event: tuple) -> None:
        """Journal ``("structure", cell, *nets)`` for a structural edit."""
        self._topo_cache = None
        self._max_uid_memo = None
        self._journal.append(event)

    def _note_resize(self, cell_name: str) -> None:
        """Journal ``("resize", cell)``, as an attached cell's rebind does."""
        self._journal.append(("resize", cell_name))

    def touch(self) -> None:
        """Record an out-of-band mutation (direct net/cell attribute edits)."""
        self._note_structure(("structure", None))

    # -- construction --------------------------------------------------------

    def add_net(self, name: str | None = None, **flags: bool) -> Net:
        """Create a net; autogenerates a unique name when ``name`` is None."""
        if name is None:
            name = f"$n{next(self._uid)}"
        elif name in self.nets:
            raise NetlistError(f"duplicate net {name!r}")
        net = Net(name=name, uid=next(self._uid))
        for key, value in flags.items():
            if key not in ("driver", "is_input", "is_output", "is_clock"):
                raise NetlistError(f"unknown net flag {key!r}")
            setattr(net, key, value)
        self.nets[name] = net
        if net.is_input:
            self.primary_inputs.append(name)
        if net.is_output:
            self.primary_outputs.append(name)
        self._note_structure(("structure", None, name))
        return net

    def get_or_add_net(self, name: str) -> Net:
        if name in self.nets:
            return self.nets[name]
        return self.add_net(name)

    def add_cell(
        self,
        gate: str,
        inputs: list[str],
        output: str,
        name: str | None = None,
        **attrs,
    ) -> Cell:
        """Create a gate driving ``output`` from ``inputs`` (net names)."""
        if gate not in GENERIC_GATES:
            raise NetlistError(f"unknown generic gate {gate!r}")
        expected = GENERIC_GATES[gate]
        if gate != "DFF" and len(inputs) != expected:
            raise NetlistError(
                f"{gate} expects {expected} inputs, got {len(inputs)}"
            )
        if name is None:
            name = f"$g{next(self._uid)}"
        if name in self.cells:
            raise NetlistError(f"duplicate cell {name!r}")
        out_net = self.get_or_add_net(output)
        if out_net.driver is not None:
            raise NetlistError(f"net {output!r} already driven by {out_net.driver!r}")
        if out_net.is_input:
            raise NetlistError(f"cannot drive primary input {output!r}")
        cell = Cell(name=name, gate=gate, inputs=inputs, output=output, attrs=attrs)
        cell._journal = self._journal
        out_net.driver = name
        for net_name in inputs:
            self.get_or_add_net(net_name).sinks[name] = None
        event = ("structure", name, output, *inputs)
        if "clock" in attrs:
            clk = self.get_or_add_net(attrs["clock"])
            clk.is_clock = True
            clk.sinks[name] = None
            event += (attrs["clock"],)
        self.cells[name] = cell
        self._note_structure(event)
        return cell

    def remove_cell(self, name: str) -> None:
        cell = self.cells.pop(name)
        out = self.nets[cell.output]
        out.driver = None
        for net_name in cell.inputs:
            self.nets[net_name].sinks.pop(name, None)
        event = ("structure", name, cell.output, *cell.inputs)
        if "clock" in cell.attrs:
            clock = cell.attrs["clock"]
            self.nets[clock].sinks.pop(name, None)
            event += (clock,)
        cell._journal = None
        self._note_structure(event)

    def rewire_input(self, cell_name: str, old_net: str, new_net: str) -> None:
        """Replace every occurrence of ``old_net`` in a cell's input list."""
        cell = self.cells[cell_name]
        if old_net not in cell.inputs:
            raise NetlistError(f"{old_net!r} is not an input of {cell_name!r}")
        cell.inputs = tuple(new_net if n == old_net else n for n in cell.inputs)
        if old_net not in cell.inputs and cell.attrs.get("clock") != old_net:
            self.nets[old_net].sinks.pop(cell_name, None)
        self.get_or_add_net(new_net).sinks[cell_name] = None
        self._note_structure(("structure", cell_name, old_net, new_net))

    def rewire_clock(self, cell_name: str, new_clock: str) -> None:
        """Point a sequential cell's clock pin at a different net."""
        cell = self.cells[cell_name]
        old_clock = cell.attrs.get("clock")
        if old_clock is None:
            raise NetlistError(f"{cell_name!r} has no clock pin")
        cell.attrs["clock"] = new_clock
        if old_clock not in cell.inputs:
            self.nets[old_clock].sinks.pop(cell_name, None)
        self.get_or_add_net(new_clock).sinks[cell_name] = None
        self._note_structure(("structure", cell_name, old_clock, new_clock))

    # -- queries --------------------------------------------------------------

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    def fanout(self, net_name: str) -> int:
        net = self.nets[net_name]
        return len(net.sinks) + (1 if net.is_output else 0)

    def driver_cell(self, net_name: str) -> Cell | None:
        driver = self.nets[net_name].driver
        return self.cells.get(driver) if driver else None

    def topological_cells(self) -> list[Cell]:
        """Combinational cells in topological order (DFF outputs as sources).

        The order is cached and invalidated by structural mutations; do not
        mutate the returned list.

        Raises:
            NetlistError: if the combinational logic contains a cycle.
        """
        if self._topo_cache is not None:
            return self._topo_cache
        indegree: dict[str, int] = {}
        dependents: dict[str, list[str]] = {}
        for cell in self.cells.values():
            if cell.is_sequential:
                continue
            deps = 0
            for net_name in cell.inputs:
                drv = self.nets[net_name].driver
                if drv is not None and not self.cells[drv].is_sequential:
                    deps += 1
                    dependents.setdefault(drv, []).append(cell.name)
            indegree[cell.name] = deps
        ready = [name for name, deg in indegree.items() if deg == 0]
        order: list[Cell] = []
        while ready:
            name = ready.pop()
            order.append(self.cells[name])
            for dep in dependents.get(name, ()):
                indegree[dep] -= 1
                if indegree[dep] == 0:
                    ready.append(dep)
        if len(order) != len(indegree):
            raise NetlistError("combinational cycle detected")
        self._topo_cache = order
        return order

    def validate(self) -> None:
        """Check structural invariants; raises :class:`NetlistError` if broken."""
        for name, net in self.nets.items():
            if net.driver is not None and net.driver not in self.cells:
                raise NetlistError(f"net {name!r} driven by missing cell {net.driver!r}")
            for sink in net.sinks:
                if sink not in self.cells:
                    raise NetlistError(f"net {name!r} sinks missing cell {sink!r}")
                cell = self.cells[sink]
                if name not in cell.inputs and cell.attrs.get("clock") != name:
                    raise NetlistError(
                        f"net {name!r} lists sink {sink!r} that does not read it"
                    )
        for name, cell in self.cells.items():
            if self.nets[cell.output].driver != name:
                raise NetlistError(f"cell {name!r} output net driver mismatch")
            for net_name in cell.inputs:
                if name not in self.nets[net_name].sinks:
                    raise NetlistError(
                        f"cell {name!r} input {net_name!r} missing sink backlink"
                    )
        self.topological_cells()  # raises on combinational cycles

    def fingerprint(self) -> str:
        """Stable content hash over cells, nets and ports.

        Two netlists with identical structure, bindings and attributes hash
        equal regardless of construction order; used as the netlist half of
        synthesis-cache keys.
        """
        h = hashlib.sha256()
        h.update(self.name.encode())
        for name in sorted(self.cells):
            cell = self.cells[name]
            attrs = ",".join(f"{k}={cell.attrs[k]!r}" for k in sorted(cell.attrs))
            h.update(
                f"C|{name}|{cell.gate}|{cell.lib_cell}|"
                f"{','.join(cell.inputs)}|{cell.output}|{attrs}\n".encode()
            )
        for name in sorted(self.nets):
            net = self.nets[name]
            h.update(
                f"N|{name}|{int(net.is_input)}{int(net.is_output)}"
                f"{int(net.is_clock)}\n".encode()
            )
        h.update(("P|" + ",".join(self.primary_inputs)).encode())
        h.update(("O|" + ",".join(self.primary_outputs)).encode())
        return h.hexdigest()

    def _max_uid(self) -> int:
        """Highest uid ever handed out, recovered from nets and names.

        Autogenerated cell/net names (``$g<uid>``/``$n<uid>``) consume the
        same counter as net uids, so both sources are scanned; clones and
        unpickled netlists resume the counter past this value so their next
        ``add_net``/``add_cell`` cannot collide with an existing name.

        Memoized until the next structural edit: pristine frontend-cache
        entries are cloned once per compile, and the scan would otherwise
        dominate the hit path.
        """
        if self._max_uid_memo is not None:
            return self._max_uid_memo
        max_uid = max((net.uid for net in self.nets.values()), default=-1)
        for name in itertools.chain(self.nets, self.cells):
            if name.startswith(("$n", "$g")) and name[2:].isdigit():
                uid = int(name[2:])
                if uid > max_uid:
                    max_uid = uid
        self._max_uid_memo = max_uid
        return max_uid

    def __getstate__(self) -> dict:
        # itertools.count is not picklable; __setstate__ re-derives it.  The
        # topo cache is dropped, and the journal pickles empty (an unpickled
        # netlist is a fresh object no observer holds a cursor into).
        state = self.__dict__.copy()
        del state["_uid"]
        state["_topo_cache"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._uid = itertools.count(self._max_uid() + 1)

    def clone(self) -> "Netlist":
        """Deep-copy the netlist (cells, nets, port lists).

        Hot path: the elaborated-netlist cache hands out a clone per
        read_verilog, so objects are built by direct slot assignment
        instead of the (kwarg-processing) constructors.
        """
        other = Netlist(self.name)
        nets = other.nets
        for name, net in self.nets.items():
            copy = Net.__new__(Net)
            copy.name = net.name
            copy.uid = net.uid
            copy.driver = net.driver
            copy.sinks = net.sinks.copy()
            copy.is_input = net.is_input
            copy.is_output = net.is_output
            copy.is_clock = net.is_clock
            nets[name] = copy
        cells = other.cells
        journal = other._journal
        for name, cell in self.cells.items():
            copy = Cell.__new__(Cell)
            copy.name = cell.name
            copy.gate = cell.gate
            copy.inputs = cell.inputs  # immutable: shared
            copy.output = cell.output
            copy._lib_cell = cell._lib_cell
            copy.attrs = dict(cell.attrs)
            copy._journal = journal
            cells[name] = copy
        other.primary_inputs = list(self.primary_inputs)
        other.primary_outputs = list(self.primary_outputs)
        max_uid = self._max_uid()
        other._max_uid_memo = max_uid
        other._uid = itertools.count(max_uid + 1)
        return other

    def fork(self) -> "Netlist":
        """A :meth:`clone` that hands out the same next uid as this netlist.

        A clone resumes its counter past the highest uid still present,
        which is lower than this netlist's counter when the last uid
        handed out named a cell that was later removed.  A fork continues
        the counter exactly, so the same edits on both give the same
        autogenerated names.
        """
        other = self.clone()
        following = next(self._uid)
        self._uid = itertools.count(following)
        other._uid = itertools.count(following)
        return other

    def renew(self) -> None:
        """Make this netlist, in place, what its :meth:`clone` would be.

        For a netlist its owner hands on instead of copying.  The journal
        is trimmed empty, so an observer whose cursor is older sees a
        trimmed journal and rebuilds; the cached topological order is
        dropped; and the uid counter resumes past the highest uid present,
        as a clone's does, so the same edits give the same names.
        """
        journal = self._journal
        journal.base += len(journal.events)
        journal.events.clear()
        self._topo_cache = None
        self._uid = itertools.count(self._max_uid() + 1)


class EditUndo:
    """Exact undo record for an edit that removes cells and appends others.

    Remove cells through :meth:`remove_cell` (it saves each cell and the
    nets it touches before the netlist changes) and add cells and nets
    through the netlist as usual; new cells may only connect to new nets
    or to nets of removed cells.  :meth:`rollback` then restores exactly
    the state that adopting a :meth:`Netlist.clone` taken at construction
    would: the same ``cells``/``nets`` dict order, the same ``sinks``
    order on every net and the same next autogenerated uid.  Recording
    costs O(touched cells and nets); only the rare rollback walks the
    whole netlist.

    ``positions`` maps every current cell name to its position in
    ``netlist.cells`` (for example a current lowering's ``cell_index``);
    without it the order is captured up front.
    """

    def __init__(self, netlist: Netlist, positions: dict[str, int] | None = None) -> None:
        self.netlist = netlist
        self._num_cells = len(netlist.cells)
        self._num_nets = len(netlist.nets)
        if positions is None:
            positions = dict(zip(netlist.cells, itertools.count()))
        self._positions = positions
        self._removed: list[tuple[int, Cell]] = []
        self._nets: dict[str, tuple[str | None, dict[str, None], bool]] = {}

    def remove_cell(self, name: str) -> None:
        """Save ``name`` and the nets it touches, then remove it."""
        nets = self.netlist.nets
        cell = self.netlist.cells[name]
        touched = [cell.output, *cell.inputs]
        if "clock" in cell.attrs:
            touched.append(cell.attrs["clock"])
        for net_name in touched:
            if net_name not in self._nets:
                net = nets[net_name]
                self._nets[net_name] = (net.driver, net.sinks.copy(), net.is_clock)
        self._removed.append((self._positions[name], cell))
        self.netlist.remove_cell(name)

    def rollback(self) -> None:
        """Restore the netlist to its state when the record was created."""
        netlist = self.netlist
        cells, nets = netlist.cells, netlist.nets
        # Added cells and nets were appended, so they sit at the dict ends.
        added_cells = len(cells) - self._num_cells + len(self._removed)
        for name in list(itertools.islice(reversed(cells), added_cells)):
            cells.pop(name)._journal = None
        for name in list(itertools.islice(reversed(nets), len(nets) - self._num_nets)):
            del nets[name]
        # Only the saved nets changed; every other net's sinks kept its order.
        for name, (driver, sinks, is_clock) in self._nets.items():
            net = nets[name]
            net.driver, net.sinks, net.is_clock = driver, sinks, is_clock
        order = list(cells.items())
        for position, cell in sorted(self._removed, key=lambda item: item[0]):
            order.insert(position, (cell.name, cell))
            cell._journal = netlist._journal
        cells.clear()
        cells.update(order)
        netlist.touch()
        netlist._uid = itertools.count(netlist._max_uid() + 1)
