"""Structure-of-arrays compute kernels for the synthesis backend.

A dict-of-objects timing walk costs one Python iteration per cell pin;
that would dominate every compile of a design.  This module lowers the
timing graph once into levelized numpy arrays and runs the hot analyses
of :class:`~repro.synth.timing.TimingEngine` and
:class:`~repro.synth.power.PowerAnalyzer` as per-level vectorized
kernels:

* **Lowering** (:class:`SoAStructure`) — cells and nets are assigned
  dense indices; net loads become a ``bincount`` over (net, sink-pin)
  contribution pairs; combinational cells are levelized so that every
  cell's inputs come from strictly lower levels.  The structure depends
  only on netlist *topology*: it is cached per netlist and revalidated
  against the change journal, so resize-only edit streams (the sizing
  loop) and fresh engines over an unchanged netlist reuse it, and
  structural events patch it from the cells and nets they name
  (:meth:`SoAStructure.patched`) instead of lowering the netlist again.
* **Binding** (:class:`SoAKernel`) — per-cell library parameters
  (input cap, drive resistance, intrinsic delay / clk-to-q, setup,
  leakage, drive index) live in a row matrix indexed by a per-cell row
  vector; a resize rewrites one row index.
* **Kernels** — full STA arrival propagation is one
  ``np.maximum.reduceat`` + add per level; endpoint slack, WNS/CPS/TNS
  reduction and activity/power estimation are single vector
  expressions.  Journal resizes re-run only the levels at or above the
  first dirtied level.

Parity contract
---------------

Every kernel evaluates *the same arithmetic expressions on the same
operands in the same accumulation order* as a plain per-cell scalar
walk: net pin caps accumulate in ``net.sinks`` order, which is attach
order whatever the string hash seed (bincount adds sequentially in pair
order), delays are ``base + res * load /
1000.0`` elementwise, and max-reduction is exact regardless of order.
WNS/CPS/TNS, endpoint slacks and switching activities are therefore
bit-identical to the scalar reference kept as the test oracle
(``tests/synth/scalar_reference.py``).  The QoR totals (area, leakage,
summed net load) fold sequentially in netlist order and are
bit-identical too; only :func:`vector_power`'s whole-design *sums* may
differ at float rounding level (numpy pairwise summation), which
vanishes under the reports' 3-decimal rounding.  Property tests in
``tests/synth/test_soa_parity.py`` and ``tests/synth/test_qor_kernel.py``
enforce this.
"""

from __future__ import annotations

import itertools
import threading
import weakref

import numpy as np

from .. import obs, perf
from ..hdl.netlist import GENERIC_GATES, NetlistError

__all__ = [
    "SoAStructure",
    "SoAKernel",
    "get_structure",
    "peek_structure",
    "structure_cache_stats",
    "vector_power",
]

_CONSTS = ("CONST0", "CONST1")

#: Generic gate kinds; ``SoAStructure.cell_kind`` holds indices into this.
_KINDS = tuple(GENERIC_GATES)
_KIND_CODE = {kind: code for code, kind in enumerate(_KINDS)}
_DFF, _BUF, _CONST0, _CONST1 = (
    _KIND_CODE[kind] for kind in ("DFF", "BUF", *_CONSTS)
)

_NET_FLAGS = ("net_is_output", "net_is_clock", "net_is_input", "net_has_driver")


def _fold(values: np.ndarray) -> float:
    """Sum ``values`` in order, bit-identical to a Python ``+=`` loop from 0.0.

    ``cumsum`` is a strict left-to-right float64 accumulation
    (``np.sum`` is pairwise), so its last element is the sequential fold.
    """
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def _segments(ptr: np.ndarray, rows) -> np.ndarray:
    """Flat positions of CSR rows ``rows`` (in that order) under ``ptr``."""
    rows = np.asarray(rows, dtype=np.intp)
    starts = ptr[rows]
    counts = ptr[rows + 1] - starts
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(int(counts.sum()))


class _Level:
    """One propagation level: cells whose inputs are all resolved."""

    __slots__ = ("cells", "out", "in_ptr", "in_net")

    def __init__(self, cells, out, in_ptr, in_net) -> None:
        self.cells = cells  # cell indices at this level, ascending
        self.out = out  # their output net indices
        self.in_ptr = in_ptr  # CSR starts into in_net (len = cells + 1)
        self.in_net = in_net  # flat input net indices (cell.inputs order)


class SoAStructure:
    """Topology-only lowering of one netlist into dense arrays.

    Valid until the next *structural* journal event; resizes never
    invalidate it (pin counts, fanouts and levels are binding-free).

    The lowering has two halves.  The *rows* are read from the netlist:
    per cell its gate kind, output net, clock net and input nets (a CSR,
    ``cell_in_ptr``/``cell_in_net``), per net its flags and its sinks in
    ``net.sinks`` order.  Everything else — each (net, sink) pair's pin
    count, fanouts, register/constant tables, levels and the per-level
    CSR — is derived from the rows in numpy.  A full lowering reads
    every row; :meth:`patched` reads only the rows a journal names and
    carries the rest over, so both produce identical arrays.
    """

    __slots__ = (
        "net_names", "net_index", "cell_names", "cell_index",
        "num_nets", "num_cells",
        "pair_net", "pair_cell", "pair_pins", "pair_ptr", "fanout", "ext_cap",
        "net_is_output", "net_is_clock", "net_is_input", "net_has_driver",
        "cell_out", "cell_kind", "cell_clock", "cell_in_ptr", "cell_in_net",
        "cell_is_seq", "cell_is_const", "cell_level",
        "levels",
        "pi_nets", "pi_is_clock",
        "seq_cells", "seq_out", "seq_d", "seq_names",
        "const_out", "const0_out", "const1_out",
        "po_nets", "po_names",
        "_power_schedule",
    )

    def __init__(self, netlist) -> None:
        self.net_names = list(netlist.nets)
        self.num_nets = len(self.net_names)
        self.net_index = dict(zip(self.net_names, range(self.num_nets)))
        self.cell_names = list(netlist.cells)
        self.num_cells = len(self.cell_names)
        self.cell_index = dict(zip(self.cell_names, range(self.num_cells)))
        kinds, outs, clocks, counts, inputs = self._cell_rows(
            netlist, self.cell_names
        )
        self.cell_kind, self.cell_out, self.cell_clock = kinds, outs, clocks
        self.cell_in_ptr = np.zeros(self.num_cells + 1, dtype=np.intp)
        np.cumsum(counts, out=self.cell_in_ptr[1:])
        self.cell_in_net = inputs
        flags, pairs = self._net_rows(
            netlist, np.arange(self.num_nets), self.net_names
        )
        (self.net_is_output, self.net_is_clock, self.net_is_input,
         self.net_has_driver) = flags
        self.pair_net, self.pair_cell, self.pair_pins = pairs
        self.pi_nets = np.asarray(
            [self.net_index[n] for n in netlist.primary_inputs], dtype=np.intp
        )
        self.po_names = list(netlist.primary_outputs)
        self.po_nets = np.asarray(
            [self.net_index[n] for n in self.po_names], dtype=np.intp
        )
        self._derive()

    # -- rows read from the netlist ---------------------------------------------

    def _cell_rows(self, netlist, names):
        """Kind, output net, clock net (-1: none), pin count, inputs of ``names``."""
        objs = list(map(netlist.cells.__getitem__, names))
        index = self.net_index.__getitem__
        k = len(objs)
        kinds = np.fromiter(
            map(_KIND_CODE.__getitem__, [c.gate for c in objs]), np.int8, k
        )
        outs = np.fromiter(map(index, [c.output for c in objs]), np.intp, k)
        clocks = np.fromiter(
            (-1 if name is None else index(name)
             for name in [c.attrs.get("clock") for c in objs]),
            np.intp, k,
        )
        pin_lists = [c.inputs for c in objs]
        counts = np.fromiter(map(len, pin_lists), np.intp, k)
        flat = list(itertools.chain.from_iterable(pin_lists))
        inputs = np.fromiter(map(index, flat), np.intp, len(flat))
        return kinds, outs, clocks, counts, inputs

    def _net_rows(self, netlist, rows, names):
        """Flags and (net, sink-pin) pairs of nets ``rows`` (ascending).

        Pairs follow ``net.sinks`` order, so bincount accumulates each
        net's load like a per-net scalar loop.  A pair's pin count — the
        times the sink reads the net, clock pin included — comes from the
        cell rows, which must already be current; sinks that no longer
        read the net get no pair.
        """
        objs = list(map(netlist.nets.__getitem__, names))
        k = len(objs)
        flags = tuple(
            np.fromiter(values, bool, k) for values in (
                [net.is_output for net in objs],
                [net.is_clock for net in objs],
                [net.is_input for net in objs],
                [net.driver is not None for net in objs],
            )
        )
        sink_sets = [net.sinks for net in objs]
        sinks = list(itertools.chain.from_iterable(sink_sets))
        pair_cell = np.fromiter(
            map(self.cell_index.__getitem__, sinks), np.intp, len(sinks)
        )
        pair_net = np.repeat(
            np.asarray(rows, dtype=np.intp),
            np.fromiter(map(len, sink_sets), np.intp, k),
        )
        # (net, cell) pin keys of every data and clock pin on these nets.
        m = self.num_cells
        pin_net = np.concatenate([self.cell_in_net, self.cell_clock])
        pin_cell = np.concatenate([
            np.repeat(np.arange(m), np.diff(self.cell_in_ptr)), np.arange(m),
        ])
        wanted = np.zeros(self.num_nets, dtype=bool)
        wanted[rows] = True
        on_rows = pin_net >= 0
        on_rows[on_rows] = wanted[pin_net[on_rows]]
        keys, pins = np.unique(
            pin_net[on_rows] * m + pin_cell[on_rows], return_counts=True
        )
        pair_key = pair_net * m + pair_cell
        at = np.searchsorted(keys, pair_key)
        read = at < len(keys)
        read[read] = keys[at[read]] == pair_key[read]
        return flags, (
            pair_net[read], pair_cell[read], pins[at[read]].astype(np.float64)
        )

    # -- journal patch ------------------------------------------------------------

    def patched(self, netlist, cells: set[str], nets: set[str]):
        """The lowering of ``netlist`` after edits that touched ``cells``/``nets``.

        ``cells`` and ``nets`` are the names journalled by the structural
        events since this structure was lowered.  Untouched nets keep
        their index, flags and pairs (``net.sinks`` of an untouched net
        iterates as before); untouched cells keep their rows under a
        remapped index (removals shift later cells down, additions
        append).  Only touched rows are read from the netlist.  Returns
        None when the netlist does not match what the journal implies,
        so the caller lowers in full.
        """
        new = SoAStructure.__new__(SoAStructure)
        # Nets are never removed: old indices hold, new nets append.
        new.net_names = list(netlist.nets)
        new.num_nets = n = len(new.net_names)
        if n < self.num_nets:
            return None
        new.net_index = dict(self.net_index)
        new.net_index.update(
            zip(new.net_names[self.num_nets:], range(self.num_nets, n))
        )
        new.cell_names = list(netlist.cells)
        new.num_cells = m = len(new.cell_names)
        new.cell_index = dict(zip(new.cell_names, range(m)))
        try:
            net_rows = sorted(new.net_index[name] for name in nets)
            touched_new = sorted(
                new.cell_index[name] for name in cells if name in new.cell_index
            )
        except KeyError:
            return None

        # -- cells: untouched rows keep their relative order -----------------
        keep_old = np.ones(self.num_cells, dtype=bool)
        old_to_new = np.full(self.num_cells, -1, dtype=np.intp)
        for name in cells:
            ci = self.cell_index.get(name)
            if ci is not None:
                keep_old[ci] = False
                old_to_new[ci] = new.cell_index.get(name, -1)
        keep_new = np.ones(m, dtype=bool)
        keep_new[touched_new] = False
        survivors_old = np.flatnonzero(keep_old)
        survivors_new = np.flatnonzero(keep_new)
        if len(survivors_old) != len(survivors_new):
            return None
        old_to_new[survivors_old] = survivors_new
        kinds, outs, clocks, counts, inputs = new._cell_rows(
            netlist, [new.cell_names[ci] for ci in touched_new]
        )
        for field, touched in (
            ("cell_kind", kinds), ("cell_out", outs), ("cell_clock", clocks)
        ):
            values = np.empty(m, dtype=touched.dtype)
            values[survivors_new] = getattr(self, field)[survivors_old]
            values[touched_new] = touched
            setattr(new, field, values)
        pin_counts = np.empty(m, dtype=np.intp)
        pin_counts[survivors_new] = np.diff(self.cell_in_ptr)[survivors_old]
        pin_counts[touched_new] = counts
        new.cell_in_ptr = np.zeros(m + 1, dtype=np.intp)
        np.cumsum(pin_counts, out=new.cell_in_ptr[1:])
        new.cell_in_net = np.empty(int(new.cell_in_ptr[-1]), dtype=np.intp)
        new.cell_in_net[_segments(new.cell_in_ptr, survivors_new)] = (
            self.cell_in_net[_segments(self.cell_in_ptr, survivors_old)]
        )
        new.cell_in_net[_segments(new.cell_in_ptr, touched_new)] = inputs

        # -- nets: touched rows re-read, the rest carried over ---------------
        flags, (pair_net, pair_cell, pair_pins) = new._net_rows(
            netlist, net_rows, [new.net_names[ni] for ni in net_rows]
        )
        grow = np.zeros(n - self.num_nets, dtype=bool)
        for field, touched in zip(_NET_FLAGS, flags):
            values = np.concatenate([getattr(self, field), grow])
            values[net_rows] = touched
            setattr(new, field, values)
        touched_nets = np.zeros(n, dtype=bool)
        touched_nets[net_rows] = True
        if not touched_nets[self.num_nets:].all():
            return None  # a new net the journal never named
        keep = ~touched_nets[self.pair_net]
        kept_cells = old_to_new[self.pair_cell[keep]]
        if len(kept_cells) and kept_cells.min() < 0:
            return None  # an untouched net still lists a removed cell
        pair_net = np.concatenate([self.pair_net[keep], pair_net])
        # Stable: untouched nets keep their pair order, touched nets'
        # pairs (read in net order) slot in between them.
        order = np.argsort(pair_net, kind="stable")
        new.pair_net = pair_net[order]
        new.pair_cell = np.concatenate([kept_cells, pair_cell])[order]
        new.pair_pins = np.concatenate([self.pair_pins[keep], pair_pins])[order]

        # -- ports only ever grow --------------------------------------------
        pis, pos = netlist.primary_inputs, netlist.primary_outputs
        new.pi_nets = np.concatenate([
            self.pi_nets,
            np.asarray(
                [new.net_index[p] for p in pis[len(self.pi_nets):]], dtype=np.intp
            ),
        ])
        new.po_names = (
            self.po_names if len(pos) == len(self.po_names) else list(pos)
        )
        new.po_nets = np.concatenate([
            self.po_nets,
            np.asarray(
                [new.net_index[p] for p in pos[len(self.po_nets):]], dtype=np.intp
            ),
        ])
        new._derive()
        return new

    # -- derived arrays -------------------------------------------------------------

    def _derive(self) -> None:
        """Fanouts, endpoint/launch tables and levels, from the rows."""
        self.pair_ptr = np.searchsorted(
            self.pair_net, np.arange(self.num_nets + 1)
        )
        # CSR over the (sorted-by-net) pair arrays: pairs of net ``ni`` live
        # in ``pair_ptr[ni]:pair_ptr[ni + 1]`` — the per-net segment view the
        # batched trial evaluator uses to re-accumulate single net loads.
        pins = np.bincount(
            self.pair_net, weights=self.pair_pins, minlength=self.num_nets
        )
        self.fanout = pins.astype(np.int64) + self.net_is_output
        self.ext_cap = np.where(self.net_is_output, 2.0, 0.0)
        kind = self.cell_kind
        self.cell_is_seq = kind == _DFF
        is_const0, is_const1 = kind == _CONST0, kind == _CONST1
        self.cell_is_const = is_const0 | is_const1
        self.seq_cells = np.flatnonzero(self.cell_is_seq)
        self.seq_out = self.cell_out[self.seq_cells]
        self.seq_d = self.cell_in_net[self.cell_in_ptr[self.seq_cells]]
        self.seq_names = list(
            map(self.cell_names.__getitem__, self.seq_cells.tolist())
        )
        self.const_out = self.cell_out[self.cell_is_const]
        self.const0_out = self.cell_out[is_const0]
        self.const1_out = self.cell_out[is_const1]
        self.pi_is_clock = self.net_is_clock[self.pi_nets]
        self._levelize()
        self._power_schedule = None

    def sink_fanout(self) -> np.ndarray:
        """Per net, ``Netlist.fanout``: distinct sink cells, plus one for a port.

        A pair is one sink cell that reads the net, on however many pins
        (``fanout`` counts pins, clock pins included, for the wireload).
        """
        return np.diff(self.pair_ptr) + self.net_is_output

    def _levelize(self) -> None:
        """Level every combinational cell; pack per-level input CSRs.

        ``level(cell) = max(level(driver) + 1)`` over its combinational
        drivers, 0 when every input is a PI, register or constant output —
        level-synchronous Kahn over the pin arrays.  Cells within a level
        are in cell-index order.

        Raises:
            NetlistError: if the combinational logic contains a cycle.
        """
        m = self.num_cells
        comb = ~(self.cell_is_seq | self.cell_is_const)
        counts = np.diff(self.cell_in_ptr)
        pin_cell = np.repeat(np.arange(m), counts)
        driver = np.full(self.num_nets, -1, dtype=np.intp)
        driver[self.cell_out] = np.arange(m)
        src = driver[self.cell_in_net]
        dep = comb[pin_cell] & (src >= 0)
        dep[dep] = comb[src[dep]]
        src, dst = src[dep], pin_cell[dep]
        waiting = np.bincount(dst, minlength=m)
        order = np.argsort(src, kind="stable")
        readers = dst[order]
        reader_ptr = np.searchsorted(src[order], np.arange(m + 1))
        level = np.full(m, -1, dtype=np.int64)
        frontier = np.flatnonzero(comb & (waiting == 0))
        depth = 0
        placed = 0
        while frontier.size:
            level[frontier] = depth
            placed += frontier.size
            hits = np.bincount(
                readers[_segments(reader_ptr, frontier)], minlength=m
            )
            waiting -= hits
            frontier = np.flatnonzero((waiting == 0) & (hits > 0))
            depth += 1
        if placed != np.count_nonzero(comb):
            raise NetlistError("combinational cycle detected")
        self.cell_level = level
        comb_cells = np.flatnonzero(comb)
        by_level = comb_cells[np.argsort(level[comb_cells], kind="stable")]
        bounds = np.searchsorted(level[by_level], np.arange(depth + 1))
        pin_ptr = np.zeros(len(by_level) + 1, dtype=np.intp)
        np.cumsum(counts[by_level], out=pin_ptr[1:])
        in_net = self.cell_in_net[_segments(self.cell_in_ptr, by_level)]
        out = self.cell_out[by_level]
        self.levels = []
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            first = pin_ptr[lo]
            self.levels.append(_Level(
                by_level[lo:hi],
                out[lo:hi],
                pin_ptr[lo:hi + 1] - first,
                in_net[first:pin_ptr[hi]],
            ))

    # -- power schedule (lazy: pure-STA users never pay for it) ---------------

    def power_schedule(self):
        """Per-level, per-gate-kind groups for activity propagation.

        Returns a list of ``(kind, cell_idx, out_net, in_cols)`` tuples in
        dependency order; ``in_cols`` is an ``(arity, k)`` array of input
        net indices in pin order.  Constant generators come first.
        """
        if self._power_schedule is not None:
            return self._power_schedule
        schedule = []
        if len(self.const0_out):
            schedule.append(("CONST0", None, self.const0_out, None))
        if len(self.const1_out):
            schedule.append(("CONST1", None, self.const1_out, None))
        for lvl in self.levels:
            kinds = self.cell_kind[lvl.cells]
            for code in np.unique(kinds).tolist():
                pos_arr = np.flatnonzero(kinds == code)
                cells_arr = lvl.cells[pos_arr]
                out_arr = lvl.out[pos_arr]
                starts = lvl.in_ptr[pos_arr]
                arity = int(lvl.in_ptr[pos_arr[0] + 1] - starts[0])
                in_cols = np.stack(
                    [lvl.in_net[starts + pin] for pin in range(arity)]
                ) if arity else np.zeros((0, len(pos_arr)), dtype=np.intp)
                schedule.append((_KINDS[code], cells_arr, out_arr, in_cols))
        self._power_schedule = schedule
        return schedule


# -- structure cache -----------------------------------------------------------

_STRUCT_LOCK = threading.Lock()
_STRUCTURES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_STRUCT_HITS = 0
_STRUCT_MISSES = 0
_STRUCT_PATCHES = 0


def _touched(events) -> tuple[set[str], set[str]] | None:
    """Cells and nets the structural events name; None if one names nothing."""
    cells: set[str] = set()
    nets: set[str] = set()
    for event in events:
        if event[0] != "structure":
            continue
        if len(event) == 2:  # ("structure", None) from touch()
            return None
        if event[1] is not None:
            cells.add(event[1])
        nets.update(event[2:])
    return cells, nets


def get_structure(netlist) -> SoAStructure:
    """The lowered structure for ``netlist``, from the cache when possible.

    Resize-only journal events reuse the cached lowering (a hit); named
    structural events patch it (:meth:`SoAStructure.patched`); ``touch()``,
    a trimmed journal, no cached entry, or a patch that finds the netlist
    inconsistent with the journal lower in full (a miss).
    """
    global _STRUCT_HITS, _STRUCT_MISSES, _STRUCT_PATCHES
    touched = None
    with _STRUCT_LOCK:
        entry = _STRUCTURES.get(netlist)
        if entry is not None:
            cursor, structure = entry
            events = netlist.journal_since(cursor)
            if events is not None:
                touched = _touched(events)
            if touched is not None and not touched[0] and not touched[1]:
                _STRUCTURES[netlist] = (netlist.version, structure)
                _STRUCT_HITS += 1
                perf.incr("soa.structure_hit")
                return structure
    version = netlist.version
    if touched is not None:
        with obs.span("sta.lower"):
            patched = structure.patched(netlist, *touched)
        if patched is not None:
            with _STRUCT_LOCK:
                _STRUCT_PATCHES += 1
                _STRUCTURES[netlist] = (version, patched)
            perf.incr("soa.structure_patch")
            return patched
    with obs.span("sta.lower"):
        structure = SoAStructure(netlist)
    with _STRUCT_LOCK:
        _STRUCT_MISSES += 1
        _STRUCTURES[netlist] = (version, structure)
    perf.incr("soa.structure_miss")
    return structure


def peek_structure(netlist) -> SoAStructure | None:
    """The cached lowering for ``netlist`` if still journal-valid, else None.

    Unlike :func:`get_structure` this never lowers or patches: callers
    that merely *benefit* from the arrays (the fanout scan in
    ``buffer_high_fanout``, the cell positions of a retiming undo record)
    use it to avoid paying for a lowering of a netlist that is about to
    be structurally edited anyway.
    """
    with _STRUCT_LOCK:
        entry = _STRUCTURES.get(netlist)
        if entry is None:
            return None
        cursor, structure = entry
        events = netlist.journal_since(cursor)
        if events is not None and all(event[0] == "resize" for event in events):
            return structure
    return None


def drop_structure(netlist) -> None:
    """Forget ``netlist``'s cached lowering, which otherwise lives as long
    as the netlist does (the frontend cache's hand-over entries)."""
    with _STRUCT_LOCK:
        _STRUCTURES.pop(netlist, None)


def structure_cache_stats() -> dict:
    """Lowering cache activity, shaped for ``perf.snapshot()["caches"]``."""
    with _STRUCT_LOCK:
        entries, hits, misses, patches = (
            len(_STRUCTURES), _STRUCT_HITS, _STRUCT_MISSES, _STRUCT_PATCHES
        )
    return {
        "entries": entries,
        "hits": hits,
        "misses": misses,
        "patches": patches,
    }


perf.register_stats_provider("vector_sta", structure_cache_stats)


# -- kernel --------------------------------------------------------------------

# Library-parameter matrix columns.
_CAP, _RES, _BASE, _SETUP, _LEAK, _DRIVE, _AREA = range(7)


class SoAKernel:
    """Vectorized STA state for one (netlist, library, wireload, constraints).

    The environment is assumed frozen for the kernel's lifetime — the
    owning engine rebuilds the kernel when its signature changes.
    """

    def __init__(self, netlist, library, wireload, constraints) -> None:
        self.netlist = netlist
        self.library = library
        self.wireload = wireload
        self.constraints = constraints
        self.s = get_structure(netlist)
        s = self.s
        # library binding: per-cell row index into a parameter matrix
        self._rows: list[tuple] = []
        self._row_of: dict = {}
        self._params: np.ndarray | None = None
        bindings = [
            (cell.gate, cell.lib_cell)
            for cell in map(netlist.cells.__getitem__, s.cell_names)
        ]
        rows = {key: self._row_for_binding(*key) for key in dict.fromkeys(bindings)}
        self.cell_row = np.fromiter(
            map(rows.__getitem__, bindings), dtype=np.intp, count=len(bindings)
        )
        # constraint vectors (constraints object frozen per kernel)
        launch = ~self._pi_clock_mask()
        self.pi_launch = s.pi_nets[launch]
        self._pi_offsets = np.asarray(
            [
                constraints.arrival_offset(s.net_names[ni])
                for ni in self.pi_launch
            ],
            dtype=np.float64,
        )
        self._po_margin = np.asarray(
            [constraints.required_margin(name) for name in s.po_names],
            dtype=np.float64,
        )
        self._wire_cap = self._wire_caps()
        self.loads: np.ndarray | None = None
        self.delay: np.ndarray | None = None
        self.arrivals: np.ndarray | None = None
        self._seq_pos: dict[int, int] | None = None
        self._pi_pos: dict[int, int] | None = None
        self._lvl_pos: dict[int, tuple[int, int]] | None = None
        self._reader_min: np.ndarray | None = None

    # -- binding -------------------------------------------------------------

    def _resolve_row(self, cell) -> int:
        """Row index holding ``cell``'s bound library parameters."""
        return self._row_for_binding(cell.gate, cell.lib_cell)

    def _row_for_binding(self, gate: str, lib_cell: str | None) -> int:
        """Row index for a (gate, lib_cell) binding — hypothetical or real."""
        if gate in _CONSTS:
            key = ("__const__",)
        elif lib_cell is not None and lib_cell in self.library:
            key = lib_cell
        else:
            key = ("__weakest__", gate)
        row = self._row_of.get(key)
        if row is not None:
            return row
        if key == ("__const__",):
            params = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        else:
            lib = (
                self.library.cell(key)
                if isinstance(key, str)
                else self.library.weakest(gate)
            )
            base = lib.clk_to_q if lib.is_sequential else lib.intrinsic
            params = (
                lib.input_cap, lib.drive_res, base,
                lib.setup, lib.leakage, float(lib.drive), lib.area,
            )
        row = len(self._rows)
        self._rows.append(params)
        self._row_of[key] = row
        self._params = None
        return row

    @property
    def params(self) -> np.ndarray:
        if self._params is None:
            self._params = np.asarray(self._rows, dtype=np.float64).reshape(
                len(self._rows), 7
            )
        return self._params

    def _pi_clock_mask(self) -> np.ndarray:
        s = self.s
        if self.constraints.clock_port is not None:
            names = [s.net_names[ni] for ni in s.pi_nets]
            return np.asarray(
                [name == self.constraints.clock_port for name in names], dtype=bool
            )
        return s.pi_is_clock

    # -- electricals ---------------------------------------------------------

    def _wire_caps(self) -> np.ndarray:
        model = self.wireload
        table = np.asarray(model.table, dtype=np.float64)
        fanout = self.s.fanout
        clipped = table[np.clip(fanout, 1, len(table)) - 1]
        beyond = table[-1] + model.slope * (fanout - len(table))
        return np.where(
            fanout <= 0, 0.0, np.where(fanout <= len(table), clipped, beyond)
        )

    def compute_loads(self) -> np.ndarray:
        """Per-net load in fF: sink pin caps + external load + wireload."""
        s = self.s
        caps = self.params[:, _CAP][self.cell_row]
        pin_cap = np.bincount(
            s.pair_net, weights=s.pair_pins * caps[s.pair_cell], minlength=s.num_nets
        )
        self.loads = (pin_cap + s.ext_cap) + self._wire_cap
        return self.loads

    def compute_delays(self) -> np.ndarray:
        """Per-cell propagation delay (intrinsic/clk-to-q + RC term)."""
        params = self.params
        rows = self.cell_row
        self.delay = (
            params[:, _BASE][rows]
            + params[:, _RES][rows] * self.loads[self.s.cell_out] / 1000.0
        )
        return self.delay

    # -- arrival propagation -------------------------------------------------

    def _source_arrivals(self, arrivals: np.ndarray) -> None:
        s = self.s
        c = self.constraints
        arrivals[self.pi_launch] = (
            self._pi_offsets + c.input_drive_res * self.loads[self.pi_launch] / 1000.0
        )
        arrivals[s.seq_out] = self.delay[s.seq_cells]
        arrivals[s.const_out] = 0.0

    def propagate(self, from_level: int = 0) -> np.ndarray:
        """Run the per-level arrival kernels from ``from_level`` up."""
        s = self.s
        with obs.span("sta.kernel"):
            if self.arrivals is None:
                self.arrivals = np.zeros(s.num_nets, dtype=np.float64)
            arrivals = self.arrivals
            self._source_arrivals(arrivals)
            delay = self.delay
            for lvl in s.levels[from_level:]:
                worst = np.maximum.reduceat(arrivals[lvl.in_net], lvl.in_ptr[:-1])
                arrivals[lvl.out] = worst + delay[lvl.cells]
        perf.incr("sta.vector_levels", len(s.levels) - from_level)
        return arrivals

    def run_full(self) -> None:
        """Bind, compute electricals and propagate every level."""
        self.compute_loads()
        self.compute_delays()
        self.arrivals = None
        self.propagate(0)

    def update_resizes(self, resized) -> None:
        """Fold journal resizes in: rebind rows, re-run dirty levels only."""
        s = self.s
        cells = self.netlist.cells
        nets = self.netlist.nets
        min_level = len(s.levels)
        sources_dirty = False
        for name in resized:
            cell = cells[name]
            ci = s.cell_index[name]
            self.cell_row[ci] = self._resolve_row(cell)
            affected = list(cell.inputs)
            clock = cell.attrs.get("clock")
            if clock is not None:
                affected.append(clock)
            for net_in in affected:
                driver = nets[net_in].driver
                if driver is None:
                    sources_dirty = True
                    continue
                di = s.cell_index[driver]
                if s.cell_is_seq[di] or s.cell_is_const[di]:
                    sources_dirty = True
                else:
                    min_level = min(min_level, int(s.cell_level[di]))
            if s.cell_is_seq[ci]:
                sources_dirty = True  # clk-to-q and setup changed
            elif not s.cell_is_const[ci]:
                min_level = min(min_level, int(s.cell_level[ci]))
        self.compute_loads()
        self.compute_delays()
        self.propagate(0 if sources_dirty else min_level)

    # -- batched trial evaluation ---------------------------------------------

    def _seq_position(self, ci: int) -> int | None:
        """Position of cell ``ci`` within the seq endpoint arrays, if any."""
        if self._seq_pos is None:
            self._seq_pos = {
                int(c): i for i, c in enumerate(self.s.seq_cells.tolist())
            }
        return self._seq_pos.get(ci)

    def _pi_position(self, ni: int) -> int | None:
        """Position of net ``ni`` within the launch-point arrays, if any."""
        if self._pi_pos is None:
            self._pi_pos = {
                int(n): i for i, n in enumerate(self.pi_launch.tolist())
            }
        return self._pi_pos.get(ni)

    def _level_position(self, ci: int) -> tuple[int, int]:
        """``(level, position within that level)`` for comb cell ``ci``."""
        if self._lvl_pos is None:
            self._lvl_pos = {}
            for li, lvl in enumerate(self.s.levels):
                for pos, c in enumerate(lvl.cells.tolist()):
                    self._lvl_pos[int(c)] = (li, pos)
        return self._lvl_pos[ci]

    def _reader_min_level(self) -> np.ndarray:
        """Per net, the lowest level with a cell reading it (else #levels)."""
        if self._reader_min is None:
            s = self.s
            rm = np.full(s.num_nets, len(s.levels), dtype=np.intp)
            for li in range(len(s.levels) - 1, -1, -1):
                rm[s.levels[li].in_net] = li
            self._reader_min = rm
        return self._reader_min

    @staticmethod
    def _normalize_trials(trials) -> list[list[tuple[str, str]]]:
        """Each lane as a list of ``(cell, lib_cell)`` rebinds."""
        lanes = []
        for lane in trials:
            if isinstance(lane[0], str):
                lanes.append([lane])
            else:
                lanes.append(list(lane))
        return lanes

    def trial_cps_batch(self, trials) -> list[float]:
        """CPS verdicts for hypothetical cell rebinds, no mutation.

        ``trials`` is a sequence of lanes; each lane is one
        ``(cell_name, lib_cell_name)`` pair or a list of such pairs
        (a grouped rebind, evaluated as if all of them were committed
        together).  Every lane is evaluated against the *committed*
        arrays: loads of the rebound cells' input/clock nets are
        re-accumulated over their pair segments in bincount order,
        dirtied delays and launch arrivals are patched with the scalar
        forms of the committed expressions, and arrivals re-propagate as
        2-D per-level kernels restricted to the union dirty cone of the
        batch (a 1-D boolean sweep finds it; the workspace starts as a
        copy of the committed arrivals, so anything outside the cone
        already holds its exact committed value, and a cone cell that is
        clean in some lane recomputes to the identical value there).
        The returned values are bit-identical to committing each lane
        alone and reading ``analyze().cps`` — same expressions, same
        operands, same accumulation order — but neither the netlist nor
        the committed kernel state is touched, so rejected candidates
        cost no revert.
        """
        if self.arrivals is None:
            self.run_full()
        s = self.s
        lanes = self._normalize_trials(trials)
        k = len(lanes)
        perf.incr("sta.trial", k)
        perf.incr("sta.trial_batch")
        cells = self.netlist.cells
        nets = self.netlist.nets
        resolved: list[dict[int, int]] = []  # per lane: cell index -> new row
        for lane in lanes:
            rows_map = {}
            for name, lib_name in lane:
                ci = s.cell_index[name]
                rows_map[ci] = self._row_for_binding(cells[name].gate, lib_name)
            resolved.append(rows_map)
        params = self.params  # after row resolution: may have appended rows
        caps = params[:, _CAP]
        with obs.span("sta.kernel"):
            arrivals2 = np.repeat(self.arrivals[None, :], k, axis=0)
            net_dirty = np.zeros(s.num_nets, dtype=bool)
            forced = np.zeros(s.num_cells, dtype=bool)
            # comb-delay patches grouped by level: {li: [(t, pos, delay)]}
            patches: dict[int, list[tuple[int, int, float]]] = {}
            setup_patches: list[tuple[int, int, int]] = []  # (t, seq pos, row)
            pair_cell, pair_pins, pair_ptr = s.pair_cell, s.pair_pins, s.pair_ptr
            c = self.constraints
            reader_min = self._reader_min_level()
            start_level = len(s.levels)
            for t, rows_map in enumerate(resolved):
                lane_loads: dict[int, float] = {}
                dirty_cells = set(rows_map)
                for ci in rows_map:
                    cell = cells[s.cell_names[ci]]
                    affected = list(cell.inputs)
                    clock = cell.attrs.get("clock")
                    if clock is not None:
                        affected.append(clock)
                    for net_in in affected:
                        ni = s.net_index[net_in]
                        if ni in lane_loads:
                            continue
                        # Exact per-net load: accumulate the pair segment in
                        # the order bincount adds it, swapping in trial caps.
                        # cumsum is a strict left-to-right float64 fold, so
                        # its final element is bit-identical to bincount's
                        # per-bin accumulation over the same segment.
                        a, b = int(pair_ptr[ni]), int(pair_ptr[ni + 1])
                        seg_cells = pair_cell[a:b]
                        seg_rows = self.cell_row[seg_cells]
                        for pc, row in rows_map.items():
                            hits = np.flatnonzero(seg_cells == pc)
                            if hits.size:
                                seg_rows = seg_rows.copy()
                                seg_rows[hits] = row
                        pin_cap = _fold(pair_pins[a:b] * caps[seg_rows])
                        lane_loads[ni] = (
                            (pin_cap + s.ext_cap[ni]) + self._wire_cap[ni]
                        )
                        driver = nets[net_in].driver
                        if driver is None:
                            # PI arrival depends on the net load.
                            pos = self._pi_position(ni)
                            if pos is not None:
                                arrivals2[t, ni] = (
                                    self._pi_offsets[pos]
                                    + c.input_drive_res
                                    * lane_loads[ni] / 1000.0
                                )
                                net_dirty[ni] = True
                                start_level = min(
                                    start_level, int(reader_min[ni])
                                )
                            continue
                        di = s.cell_index[driver]
                        if not s.cell_is_const[di]:
                            # Const outputs launch at 0.0 regardless of load.
                            dirty_cells.add(int(di))
                for dc in dirty_cells:
                    if s.cell_is_const[dc]:
                        continue
                    row = rows_map.get(dc)
                    if row is None:
                        row = int(self.cell_row[dc])
                    out = int(s.cell_out[dc])
                    load = lane_loads.get(out)
                    if load is None:
                        load = float(self.loads[out])
                    d = params[row, _BASE] + params[row, _RES] * load / 1000.0
                    if s.cell_is_seq[dc]:
                        # Launch arrival of the register output is clk-to-q.
                        arrivals2[t, out] = d
                        net_dirty[out] = True
                        start_level = min(start_level, int(reader_min[out]))
                    else:
                        li, pos = self._level_position(dc)
                        patches.setdefault(li, []).append((t, pos, d))
                        forced[dc] = True
                        start_level = min(start_level, li)
                for ci, row in rows_map.items():
                    pos = self._seq_position(ci)
                    if pos is not None:
                        setup_patches.append((t, pos, row))
            # 1-D boolean sweep finds each level's dirty cells, then a 2-D
            # kernel recomputes just those columns; everything else keeps
            # its committed value from the workspace copy.  Levels before
            # the first possible reader of a dirtied launch point (or the
            # first forced cell) cannot change and are skipped outright.
            for li in range(start_level, len(s.levels)):
                lvl = s.levels[li]
                # Cheap pre-check: most levels outside the cone see no
                # dirty inputs (and forced cells only exist at patch
                # levels), so skip before paying the per-cell reduceat.
                flags = net_dirty[lvl.in_net]
                lvl_patches = patches.get(li)
                if lvl_patches is None and not flags.any():
                    continue
                dirty = np.logical_or.reduceat(flags, lvl.in_ptr[:-1])
                if lvl_patches is not None:
                    dirty |= forced[lvl.cells]
                if not dirty.any():
                    continue
                idx = None
                nd = int(np.count_nonzero(dirty))
                if nd * 4 >= dirty.size or dirty.size <= 48:
                    # Dense or small level: recompute every column with one
                    # reduceat.  Clean columns see only committed inputs and
                    # committed delays, so they reproduce the committed
                    # arrival bit-for-bit — over-computing is free parity-
                    # wise and skips the gather construction below.  Only
                    # truly dirty outputs propagate dirtiness.
                    sub_in_net = lvl.in_net
                    sub_ptr = lvl.in_ptr[:-1]
                    sub_out = lvl.out
                    sub_cells = lvl.cells
                    dirty_out = lvl.out if nd == dirty.size else lvl.out[dirty]
                else:
                    idx = np.flatnonzero(dirty)
                    starts = lvl.in_ptr[idx]
                    counts = lvl.in_ptr[idx + 1] - starts
                    sub_ptr = np.cumsum(counts) - counts
                    gather = (
                        np.repeat(starts - sub_ptr, counts)
                        + np.arange(int(counts.sum()))
                    )
                    sub_in_net = lvl.in_net[gather]
                    sub_out = lvl.out[idx]
                    sub_cells = lvl.cells[idx]
                    dirty_out = sub_out
                worst = np.maximum.reduceat(
                    arrivals2[:, sub_in_net], sub_ptr, axis=1
                )
                out2 = worst + self.delay[sub_cells][None, :]
                if lvl_patches:
                    for t, pos, d in lvl_patches:
                        j = (
                            pos if idx is None
                            else int(np.searchsorted(idx, pos))
                        )
                        out2[t, j] = worst[t, j] + d
                arrivals2[:, sub_out] = out2
                net_dirty[dirty_out] = True
            # endpoint reduction: exact min over PO + register slacks
            period = c.effective_period
            worst2 = np.full(k, np.inf)
            if len(s.po_nets):
                po_slack2 = (
                    (period - self._po_margin)[None, :]
                    - arrivals2[:, s.po_nets]
                )
                worst2 = po_slack2.min(axis=1)
            if len(s.seq_cells):
                reg_req = period - params[:, _SETUP][self.cell_row[s.seq_cells]]
                reg_slack2 = reg_req[None, :] - arrivals2[:, s.seq_d]
                for t, pos, row in setup_patches:
                    reg_slack2[t, pos] = (
                        (period - params[row, _SETUP])
                        - arrivals2[t, s.seq_d[pos]]
                    )
                worst2 = np.minimum(worst2, reg_slack2.min(axis=1))
        if not len(s.po_nets) and not len(s.seq_cells):
            return [0.0] * k
        return [round(float(w), 4) for w in worst2]

    def trial_metrics_batch(self, trials) -> list[tuple[float, float]]:
        """``(CPS, total area)`` verdicts for hypothetical rebinds.

        Same lane format and parity contract as :meth:`trial_cps_batch`
        (the CPS half *is* that sweep), extended with the area the design
        would have after committing each lane: the committed binding rows
        are patched per lane and folded through the same strict
        left-to-right ``cumsum`` as :meth:`committed_area`, so entry
        ``i`` is bit-identical to committing ``trials[i]`` and reading
        ``(analyze().cps, total_area())`` — with no mutation and no
        revert.  This is the scoring kernel of the design-space explorer
        (:mod:`repro.synth.explore`): one sweep evaluates a whole batch
        of multi-gate move sets.
        """
        cps = self.trial_cps_batch(trials)
        lanes = self._normalize_trials(trials)
        cells = self.netlist.cells
        s = self.s
        patched_rows = []
        for lane in lanes:
            rows = self.cell_row.copy()
            for name, lib_name in lane:
                ci = s.cell_index[name]
                rows[ci] = self._row_for_binding(cells[name].gate, lib_name)
            patched_rows.append(rows)
        # Gather areas only after every row is resolved: resolution may
        # append parameter rows, rebuilding the params matrix.
        areas = self.params[:, _AREA]
        return [
            (lane_cps, _fold(areas[rows]))
            for rows, lane_cps in zip(patched_rows, cps)
        ]

    # -- reductions ----------------------------------------------------------

    def committed_cps(self) -> float:
        """Worst endpoint slack over the committed arrays, report-rounded.

        Bit-identical to ``TimingReport.cps`` from :meth:`TimingEngine.
        analyze` — the same slack values feed the same exact ``min`` and
        the same ``round(..., 4)`` — without materializing the endpoint
        dictionaries.
        """
        s = self.s
        period = self.constraints.effective_period
        worst = None
        if len(s.po_nets):
            worst = ((period - self._po_margin) - self.arrivals[s.po_nets]).min()
        if len(s.seq_cells):
            reg_req = period - self.params[:, _SETUP][self.cell_row[s.seq_cells]]
            reg_worst = (reg_req - self.arrivals[s.seq_d]).min()
            worst = reg_worst if worst is None else min(worst, reg_worst)
        if worst is None:
            return 0.0
        return round(float(worst), 4)

    # QoR folds: each is a sequential sum (:func:`_fold`) in netlist
    # order, so it is bit-identical to a Python loop over the netlist
    # dicts; const rows hold 0.0 and add exact ``+0.0`` terms where such
    # a loop skips constants.

    def committed_area(self) -> float:
        """Total cell area under the committed bindings."""
        return _fold(self.params[:, _AREA][self.cell_row])

    def committed_leakage(self) -> float:
        """Total cell leakage (nW) under the committed bindings."""
        return _fold(self.params[:, _LEAK][self.cell_row])

    def committed_load(self) -> float:
        """Every net's load (fF) summed in ``netlist.nets`` order."""
        return _fold(self.loads)

    def area_by_class(self) -> tuple[float, float, float]:
        """``(combinational, sequential, BUF)`` cell area, each in cell order."""
        s = self.s
        areas = self.params[:, _AREA][self.cell_row]
        comb = ~(s.cell_is_seq | s.cell_is_const)
        return (
            _fold(areas[comb]),
            _fold(areas[s.cell_is_seq]),
            _fold(areas[s.cell_kind == _BUF]),
        )

    def endpoint_arrays(self):
        """Endpoint slacks/required, primary outputs then registers.

        Returns ``(po_names, po_required, po_slack, reg_names,
        reg_required, reg_slack)``; register endpoints follow the cells
        dict order.
        """
        s = self.s
        period = self.constraints.effective_period
        po_required = period - self._po_margin
        po_slack = po_required - self.arrivals[s.po_nets]
        reg_required = period - self.params[:, _SETUP][self.cell_row[s.seq_cells]]
        reg_slack = reg_required - self.arrivals[s.seq_d]
        return s.po_names, po_required, po_slack, s.seq_names, reg_required, reg_slack

    def arrival_of(self, net_name: str) -> float:
        """Arrival time at a net (0.0 for unknown/launch-less nets)."""
        idx = self.s.net_index.get(net_name)
        if idx is None or self.arrivals is None:
            return 0.0
        return float(self.arrivals[idx])


# -- vectorized power --------------------------------------------------------


def _group_prob(kind: str, p):
    """P(out=1) per gate group given input 1-probabilities (per-pin arrays)."""
    if kind == "BUF":
        return p[0]
    if kind == "NOT":
        return 1.0 - p[0]
    if kind == "AND2":
        return p[0] * p[1]
    if kind == "NAND2":
        return 1.0 - p[0] * p[1]
    if kind == "OR2":
        return 1.0 - (1 - p[0]) * (1 - p[1])
    if kind == "NOR2":
        return (1 - p[0]) * (1 - p[1])
    if kind in ("XOR2", "XNOR2"):
        x = p[0] * (1 - p[1]) + (1 - p[0]) * p[1]
        return x if kind == "XOR2" else 1.0 - x
    if kind == "MUX2":
        sel, a, b = p
        return (1 - sel) * a + sel * b
    if kind == "AOI21":
        return (1 - p[0] * p[1]) * (1 - p[2])
    if kind == "OAI21":
        return 1 - (1 - (1 - p[0]) * (1 - p[1])) * p[2]
    raise ValueError(f"unknown gate {kind!r}")


def _group_sens(kind: str, p):
    """Boolean-difference sensitivities: P(an input toggle reaches the output)."""
    if kind in ("BUF", "NOT"):
        return [np.ones_like(p[0])]
    if kind in ("AND2", "NAND2"):
        return [p[1], p[0]]
    if kind in ("OR2", "NOR2"):
        return [1 - p[1], 1 - p[0]]
    if kind in ("XOR2", "XNOR2"):
        one = np.ones_like(p[0])
        return [one, one]
    if kind == "MUX2":
        sel, a, b = p
        return [a * (1 - b) + (1 - a) * b, 1 - sel, sel]
    if kind == "AOI21":
        return [p[1] * (1 - p[2]), p[0] * (1 - p[2]), 1 - p[0] * p[1]]
    if kind == "OAI21":
        return [(1 - p[1]) * p[2], (1 - p[0]) * p[2], 1 - (1 - p[0]) * (1 - p[1])]
    raise ValueError(f"unknown gate {kind!r}")


def vector_power(
    kernel: SoAKernel,
    input_probability: float,
    input_activity: float,
    voltage: float,
    internal_energy_fj: float,
):
    """Activity propagation + power integration over SoA arrays.

    Two register/comb sweeps: the register sweep stays sequential
    (Gauss-Seidel, cells dict order — later registers see earlier
    updates) and the second comb sweep is skipped when the second
    register sweep changes nothing, so switching activities are
    bit-identical to the per-cell scalar sweep.

    Returns ``(dynamic, internal, leakage, clock_tree, activities)``
    with unrounded sums and the net-activity dict.
    """
    perf.incr("power.vector")
    s = kernel.s
    if kernel.loads is None:
        kernel.compute_loads()
    prob = np.full(s.num_nets, input_probability, dtype=np.float64)
    act = np.full(s.num_nets, input_activity, dtype=np.float64)
    clock_pis = s.pi_nets[s.pi_is_clock]
    prob[clock_pis] = 0.5
    act[clock_pis] = 2.0

    schedule = s.power_schedule()
    seq_pairs = list(zip(s.seq_out.tolist(), s.seq_d.tolist()))
    for iteration in range(2):
        changed = False
        for q, d in seq_pairs:
            p_new = prob[d]
            a_new = min(act[d], 1.0)
            if prob[q] != p_new or act[q] != a_new:
                changed = True
                prob[q] = p_new
                act[q] = a_new
        if iteration and not changed:
            perf.incr("power.fixpoint_early_exit")
            break
        for kind, _cells, out, in_cols in schedule:
            if kind == "CONST0":
                prob[out] = 0.0
                act[out] = 0.0
                continue
            if kind == "CONST1":
                prob[out] = 1.0
                act[out] = 0.0
                continue
            p = [prob[col] for col in in_cols]
            a = [act[col] for col in in_cols]
            prob[out] = _group_prob(kind, p)
            sens = _group_sens(kind, p)
            total = sens[0] * a[0]
            for pin in range(1, len(sens)):
                total = total + sens[pin] * a[pin]
            act[out] = np.minimum(total, 4.0)

    period = kernel.constraints.clock_period
    freq_ghz = 1.0 / max(period, 1e-9)
    v2 = voltage**2
    assigned = s.net_is_input | s.net_has_driver
    act_eff = np.where(assigned, act, 0.0)
    energy = 0.5 * kernel.loads * v2 * freq_ghz * act_eff
    clock_tree = float(energy[s.net_is_clock].sum())
    dynamic = float(energy[~s.net_is_clock].sum())
    cell_mask = ~s.cell_is_const
    rows = kernel.cell_row[cell_mask]
    params = kernel.params
    leakage = float((params[:, _LEAK][rows] / 1000.0).sum())
    internal = float(
        (
            internal_energy_fj
            * params[:, _DRIVE][rows]
            * act_eff[s.cell_out[cell_mask]]
            * freq_ghz
        ).sum()
    )
    activities = {
        s.net_names[ni]: float(act[ni]) for ni in np.flatnonzero(assigned)
    }
    return dynamic, internal, leakage, clock_tree, activities
