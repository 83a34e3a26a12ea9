"""Timing-driven optimization passes.

These are the QoR levers that synthesis-script commands pull (paper §I):

* :func:`size_gates` — upsize cells on critical paths (slack-driven).
* :func:`recover_area` — downsize cells with generous slack.
* :func:`buffer_high_fanout` — buffer trees for high-fanout nets
  ("buffer balancing" in the paper's retiming-vs-buffering discussion).
* :func:`retime` — greedy min-period register retiming [25].
* :func:`balance_chains` — rebuild linear AND/OR/XOR chains as balanced
  trees (part of ``compile_ultra``'s restructuring).

All passes mutate the netlist in place and report what they changed.

The timing-driven passes accept an optional :class:`~repro.synth.passes.
PassContext` so a compile flow shares one incremental
:class:`~repro.synth.timing.TimingEngine` across every pass (``DCShell``
always provides one; direct callers get a fresh private context).  The
candidate loops score trials in batched, side-effect-free kernel sweeps
over the SoA arrays; every verdict is bit-identical to committing the
candidate and re-analyzing, so the accepted changes are those of a
per-trial ``analyze()`` loop (``tests/synth/test_opt_parity.py`` replays
the passes on scalar reference verdicts).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .. import obs, perf
from ..hdl.netlist import EditUndo, Netlist
from . import soa
from .library import TechLibrary
from .passes import PassContext
from .sdc import Constraints
from .wireload import WireLoadModel

__all__ = [
    "PassResult",
    "size_gates",
    "recover_area",
    "buffer_high_fanout",
    "retime",
    "balance_chains",
    "resynthesize_adders",
]

# Trial lanes per batched kernel sweep in the sizing loop: large
# enough to amortize the per-level numpy overhead over many candidates on
# reject-heavy rounds, small enough that an early acceptance wastes little.
_TRIAL_BATCH = 16
_PROBE_DEPTH = 2


@dataclass
class PassResult:
    """Outcome of one optimization pass."""

    name: str
    changes: int
    wns_before: float
    wns_after: float
    area_before: float
    area_after: float


def _context(
    context: PassContext | None,
    netlist: Netlist,
    library: TechLibrary,
    wireload: WireLoadModel,
    constraints: Constraints,
) -> PassContext:
    if context is not None:
        return context
    return PassContext(netlist, library, wireload, constraints)


def _timed(fn):
    """Time every call of the pass as the ``pass.<name>`` stage."""
    stage = f"pass.{fn.__name__}"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs.span(stage):
            return fn(*args, **kwargs)

    return wrapper


# -- gate sizing --------------------------------------------------------------


def _upsize_candidates(netlist, upgrade, points):
    """``(cell, stronger variant name)`` per viable point, in point order."""
    candidates = []
    for point in points:
        cell = netlist.cells.get(point.cell)
        if cell is None or cell.lib_cell is None:
            continue
        bigger = upgrade[cell.lib_cell]
        if bigger is None:
            continue
        candidates.append((cell, bigger.name))
    return candidates


@_timed
def size_gates(
    netlist: Netlist,
    library: TechLibrary,
    wireload: WireLoadModel,
    constraints: Constraints,
    max_rounds: int = 30,
    scan: int = 12,
    context: PassContext | None = None,
) -> PassResult:
    """Greedy critical-path upsizing.

    Each round walks the current critical path and upsizes the cell with
    the largest delay contribution that still has a stronger variant,
    trying up to ``scan`` candidates per round.  Stops when timing is met,
    no upgrades remain, or a round fails to improve the worst slack.

    Candidates are scored through :meth:`TimingEngine.trial_cps_batch` —
    chunks of hypothetical rebinds evaluated in one kernel sweep, no
    netlist mutation for rejects — and the first improving one is kept.
    """
    ctx = _context(context, netlist, library, wireload, constraints)
    engine = ctx.engine
    report = engine.analyze()
    wns_before, area_before = report.cps, engine.total_area()
    upgrade = ctx.upgrade_table()
    changes = 0
    for _ in range(max_rounds):
        if report.critical_path is None or report.cps >= 0:
            break
        points = sorted(
            report.critical_path.points, key=lambda p: p.incr, reverse=True
        )
        # Try candidates in decreasing delay contribution; keep the first
        # upsize that actually improves the worst slack (upsizing raises
        # input capacitance, so not every candidate is a win).
        improved_report = None
        candidates = _upsize_candidates(netlist, upgrade, points[:scan])
        start = 0
        # Probe the strongest candidates with committed trials first:
        # accept-heavy rounds (the common case while slack is still
        # improving) take one for an incremental fold apiece instead
        # of a batch sweep.  The verdict is the same bit-exact cps the
        # batch would return.  The first round skips the probes — on
        # reject-heavy scans (timing already plateaued) they are pure
        # overhead, while every later round follows an accept.
        probe = _PROBE_DEPTH if changes else 0
        for cell, lib_name in candidates[:probe]:
            previous = cell.lib_cell
            cell.lib_cell = lib_name
            perf.incr("opt.trials")
            if engine.trial_cps() > report.cps + 1e-12:
                improved_report = engine.analyze()
                changes += 1
                break
            cell.lib_cell = previous
            start += 1
        # Batch sizes ramp 4 -> 8 -> 16: rounds that accept near the
        # front (common while slack is still improving) pay a small
        # sweep, while reject-heavy scans amortize into full batches.
        width = 4
        while improved_report is None and start < len(candidates):
            batch = candidates[start : start + width]
            verdicts = engine.trial_cps_batch(
                [(cell.name, lib_name) for cell, lib_name in batch]
            )
            perf.incr("opt.trials", len(batch))
            accepted = None
            for (cell, lib_name), cps in zip(batch, verdicts):
                if cps > report.cps + 1e-12:
                    accepted = (cell, lib_name)
                    break
            if accepted is not None:
                cell, lib_name = accepted
                cell.lib_cell = lib_name
                improved_report = engine.analyze()
                changes += 1
                break
            start += width
            width = min(width * 2, _TRIAL_BATCH)
        if improved_report is None:
            break
        report = improved_report
    # trial_cps is bit-identical to analyze().cps and skips the report
    # build + path trace the result would immediately discard.
    final_cps = engine.trial_cps()
    return PassResult(
        name="size_gates",
        changes=changes,
        wns_before=wns_before,
        wns_after=final_cps,
        area_before=area_before,
        area_after=engine.total_area(),
    )


@_timed
def recover_area(
    netlist: Netlist,
    library: TechLibrary,
    wireload: WireLoadModel,
    constraints: Constraints,
    slack_margin: float = 0.05,
    context: PassContext | None = None,
) -> PassResult:
    """Downsize cells whose endpoints keep >= ``slack_margin`` slack.

    Processes cells one at a time and reverts any downsize that creates a
    violation, so the pass is timing-safe.  Candidates come from the
    per-library downgrade table (one sweep over the cells); each chunk
    is judged by the ``trial_cps`` array reduction, with no report build.
    """
    ctx = _context(context, netlist, library, wireload, constraints)
    engine = ctx.engine
    before_cps = engine.trial_cps()
    area_before = engine.total_area()
    changes = 0
    if before_cps < slack_margin:
        return PassResult(
            "recover_area", 0, before_cps, before_cps, area_before, area_before
        )
    downgrade = ctx.downgrade_table()
    candidates = []
    for cell in netlist.cells.values():
        if cell.lib_cell is None:
            continue
        weaker_cell = downgrade[cell.lib_cell]
        if weaker_cell is not None:
            candidates.append((cell, cell.lib_cell, weaker_cell))
    # Batched downsizing keeps this O(n) timing runs instead of O(n^2):
    # apply a chunk, verify, and roll the chunk back if slack dips.
    chunk = max(1, len(candidates) // 20)
    for start in range(0, len(candidates), chunk):
        batch = candidates[start : start + chunk]
        for cell, _, weaker_cell in batch:
            cell.lib_cell = weaker_cell.name
        perf.incr("opt.trials")
        if engine.trial_cps() < slack_margin:
            for cell, current_name, _ in batch:
                cell.lib_cell = current_name
        else:
            changes += len(batch)
    final_cps = engine.trial_cps()
    return PassResult(
        name="recover_area",
        changes=changes,
        wns_before=before_cps,
        wns_after=final_cps,
        area_before=area_before,
        area_after=engine.total_area(),
    )


# -- fanout buffering -------------------------------------------------------------


def _overloaded_nets(netlist, limit: int) -> list[str]:
    """Nets with more than ``limit`` data pins, in definition order.

    One vectorized scan over the cached SoA pair arrays when the lowering
    is journal-valid (pair pins minus sequential clock pins), else one
    Python sweep over the cells.  Seeding the buffer worklist with only
    these nets is exact: the full worklist's visits to in-limit nets are
    no-ops, and buffering one net never adds data pins to another
    pre-existing net, so the mutation sequence (and with it every
    generated net/cell uid) is unchanged.
    """
    structure = soa.peek_structure(netlist)
    if structure is not None:
        pins = np.bincount(
            structure.pair_net,
            weights=structure.pair_pins,
            minlength=structure.num_nets,
        )
        for ci in structure.seq_cells.tolist():
            clock = netlist.cells[structure.cell_names[ci]].attrs.get("clock")
            if clock is not None:
                pins[structure.net_index[clock]] -= 1.0
        over = pins > limit
        return [
            name for ni, name in enumerate(structure.net_names) if over[ni]
        ]
    counts: dict[str, int] = {}
    for cell in netlist.cells.values():
        for net_in in cell.inputs:
            counts[net_in] = counts.get(net_in, 0) + 1
    return [name for name in netlist.nets if counts.get(name, 0) > limit]


@_timed
def buffer_high_fanout(
    netlist: Netlist,
    library: TechLibrary,
    wireload: WireLoadModel,
    constraints: Constraints,
    max_fanout: int | None = None,
    context: PassContext | None = None,
) -> PassResult:
    """Split nets whose fanout exceeds ``max_fanout`` with buffer trees.

    Sinks are grouped under new BUF cells (strongest drive variant),
    recursively, so no net drives more than ``max_fanout`` pins.  The
    worklist is seeded from one fanout scan instead of visiting every
    net; see :func:`_overloaded_nets` for why that is exact.
    """
    limit = max_fanout or constraints.max_fanout or 16
    ctx = _context(context, netlist, library, wireload, constraints)
    engine = ctx.engine
    before = engine.analyze(with_paths=False)
    area_before = engine.total_area()
    buf_cell = library.variants("BUF")[-1]
    changes = 0
    worklist = _overloaded_nets(netlist, limit)
    while worklist:
        net_name = worklist.pop()
        net = netlist.nets.get(net_name)
        if net is None or not net.sinks:
            continue
        driver = netlist.driver_cell(net_name)
        if driver is not None and driver.gate in ("CONST0", "CONST1"):
            continue
        sinks = sorted(net.sinks)
        # Never buffer the clock pin path.  Grouping is pin-weighted: a
        # sink reading the net on several pins moves as one unit.
        weighted = [
            (s, netlist.cells[s].inputs.count(net_name))
            for s in sinks
            if net_name in netlist.cells[s].inputs
        ]
        total_pins = sum(w for _, w in weighted)
        if total_pins <= limit:
            continue
        groups: list[list[str]] = []
        current: list[str] = []
        current_pins = 0
        for sink_name, pins in weighted:
            if current and current_pins + pins > limit:
                groups.append(current)
                current, current_pins = [], 0
            current.append(sink_name)
            current_pins += pins
        if current:
            groups.append(current)
        # Every group goes behind a buffer, so the original driver only
        # drives the buffers; re-queue the net in case #groups > limit.
        for group in groups:
            branch = netlist.add_net()
            cell = netlist.add_cell(
                "BUF", [net_name], branch.name, fanout_buffer=True
            )
            cell.lib_cell = buf_cell.name
            for sink_name in group:
                # rewire_input replaces every pin reading the net at once.
                netlist.rewire_input(sink_name, net_name, branch.name)
            changes += 1
        worklist.append(net_name)
    final = engine.analyze(with_paths=False)
    return PassResult(
        name="buffer_high_fanout",
        changes=changes,
        wns_before=before.cps,
        wns_after=final.cps,
        area_before=area_before,
        area_after=engine.total_area(),
    )


# -- retiming ------------------------------------------------------------------------


def _retime_backward(netlist: Netlist, dff_name: str, undo: EditUndo) -> bool:
    """Move one register backward across its driving gate.

    Legal when the gate's output feeds only this register; every gate
    input gets its own register, preserving path latencies (Leiserson &
    Saxe backward move).  Cells are removed through ``undo``.
    """
    dff = netlist.cells.get(dff_name)
    if dff is None or not dff.is_sequential:
        return False
    d_net = dff.inputs[0]
    gate = netlist.driver_cell(d_net)
    if gate is None or gate.is_sequential or gate.gate in ("CONST0", "CONST1"):
        return False
    if netlist.fanout(d_net) != 1 or netlist.nets[d_net].is_output:
        return False
    clock = dff.attrs.get("clock")
    q_net = dff.output
    gate_kind, gate_inputs, gate_lib = gate.gate, list(gate.inputs), gate.lib_cell
    undo.remove_cell(dff_name)
    undo.remove_cell(gate.name)
    registered: dict[str, str] = {}
    for net_in in gate_inputs:
        if net_in not in registered:
            reg_net = netlist.add_net()
            reg = netlist.add_cell("DFF", [net_in], reg_net.name, clock=clock)
            reg.lib_cell = dff.lib_cell
            registered[net_in] = reg_net.name
    new_gate = netlist.add_cell(
        gate_kind, [registered[n] for n in gate_inputs], q_net
    )
    new_gate.lib_cell = gate_lib
    return True


def _retime_forward(netlist: Netlist, gate_name: str, undo: EditUndo) -> bool:
    """Move registers forward across ``gate_name``.

    Legal when every gate input is the output of a register that feeds
    only this gate; the input registers merge into one output register,
    which takes the library cell of the register on the first pin.
    Cells are removed through ``undo``.
    """
    gate = netlist.cells.get(gate_name)
    if gate is None or gate.is_sequential or gate.gate in ("CONST0", "CONST1"):
        return False
    sources: list[tuple[str, str]] = []  # (dff name, its D net)
    clock = None
    for net_in in dict.fromkeys(gate.inputs):
        dff = netlist.driver_cell(net_in)
        if dff is None or not dff.is_sequential:
            return False
        if netlist.fanout(net_in) != gate.inputs.count(net_in):
            return False
        if netlist.nets[net_in].is_output:
            return False
        if clock is None:
            clock = dff.attrs.get("clock")
        elif dff.attrs.get("clock") != clock:
            return False
        sources.append((dff.name, dff.inputs[0]))
    out_net = gate.output
    gate_kind, gate_inputs, gate_lib = gate.gate, list(gate.inputs), gate.lib_cell
    dff_lib = netlist.cells[sources[0][0]].lib_cell
    replacement = {
        netlist.cells[dff_name].output: d_net for dff_name, d_net in sources
    }
    undo.remove_cell(gate_name)
    for dff_name, _ in sources:
        undo.remove_cell(dff_name)
    mid = netlist.add_net()
    new_gate = netlist.add_cell(
        gate_kind, [replacement[n] for n in gate_inputs], mid.name
    )
    new_gate.lib_cell = gate_lib
    new_dff = netlist.add_cell("DFF", [mid.name], out_net, clock=clock)
    new_dff.lib_cell = dff_lib
    return True


@_timed
def retime(
    netlist: Netlist,
    library: TechLibrary,
    wireload: WireLoadModel,
    constraints: Constraints,
    max_moves: int = 200,
    context: PassContext | None = None,
) -> PassResult:
    """Greedy min-period retiming: move registers off the critical path.

    Repeatedly analyzes timing; if the critical endpoint is a register,
    tries a backward move there; if the critical path launches from a
    register, tries a forward move through the first gate.  A move is kept
    only when the worst slack does not degrade; a degrading move is undone
    from an :class:`~repro.hdl.netlist.EditUndo` record of the cells and
    nets it touched (``retime.rollback`` counts them).  A move journals
    only what it touched, so the next analysis patches the cached SoA
    lowering instead of re-lowering the netlist.
    """
    ctx = _context(context, netlist, library, wireload, constraints)
    engine = ctx.engine
    report = engine.analyze()
    wns_before, area_before = report.cps, engine.total_area()
    moves = 0
    stuck_endpoints: set[str] = set()
    for _ in range(max_moves):
        report = engine.analyze()
        if report.cps >= 0 or report.critical_path is None:
            break
        endpoint = report.critical_path.endpoint
        if endpoint in stuck_endpoints:
            break
        # analyze() just lowered the netlist: its cell index gives the
        # dict positions the undo record needs, without a scan.
        structure = soa.peek_structure(netlist)
        undo = EditUndo(
            netlist, structure.cell_index if structure is not None else None
        )
        moved = False
        if endpoint.startswith("reg:"):
            moved = _retime_backward(netlist, endpoint[4:], undo)
        if not moved:
            # Try a forward move through the first combinational gate on
            # the path (its inputs may all be registered).
            for point in report.critical_path.points:
                if point.cell in netlist.cells and not netlist.cells[point.cell].is_sequential:
                    moved = _retime_forward(netlist, point.cell, undo)
                    if moved:
                        break
        if not moved:
            stuck_endpoints.add(endpoint)
            continue
        new_report = engine.analyze(with_paths=False)
        if new_report.cps < report.cps - 1e-9:
            undo.rollback()  # degraded: restore the pre-move netlist
            perf.incr("retime.rollback")
            stuck_endpoints.add(endpoint)
            continue
        if new_report.cps - report.cps < 1e-9:
            stuck_endpoints.add(endpoint)
        moves += 1
    final = engine.analyze(with_paths=False)
    return PassResult(
        name="retime",
        changes=moves,
        wns_before=wns_before,
        wns_after=final.cps,
        area_before=area_before,
        area_after=engine.total_area(),
    )


# -- arithmetic resynthesis ----------------------------------------------------------


def _adder_tag_valid(netlist: Netlist, meta: dict) -> bool:
    """An adder tag is honoured only if its structure is still intact.

    Earlier passes (constant folding, sweeping) may have rewritten parts
    of a tagged ripple adder; in that case internal nets leak outside the
    member set and the rebuild would be unsound.
    """
    members = set(meta["members"])
    interface = set(meta["outs"]) | {meta["cout"]}
    for name in members:
        cell = netlist.cells.get(name)
        if cell is None:
            return False
        out_net = netlist.nets[cell.output]
        if out_net.name in interface:
            continue
        if out_net.is_output:
            return False
        if any(sink not in members for sink in out_net.sinks):
            return False
    for net in meta["a"] + meta["b"] + [meta["cin"]]:
        if net not in netlist.nets:
            return False
    return True


@_timed
def resynthesize_adders(
    netlist: Netlist,
    library: TechLibrary,
    block: int = 4,
) -> PassResult:
    """Rebuild tagged ripple-carry adders as carry-select adders.

    This is the DesignWare "implementation selection" analogue: the
    elaborator tags every wide ``+``/``-`` it lowers; this pass replaces
    the linear carry chain (depth ~2N) with carry-select blocks (depth
    ~2*block + N/block muxes), trading area for delay — exactly the trade
    ``compile_ultra`` makes on arithmetic-dominated designs.
    """
    rebuilt = 0
    tagged = [
        (name, dict(cell.attrs["adder"]))
        for name, cell in netlist.cells.items()
        if "adder" in cell.attrs
    ]
    weakest = {
        kind: library.weakest(kind).name
        for kind in ("XOR2", "AND2", "OR2", "MUX2", "BUF")
    }

    def gate(kind: str, inputs: list[str], output: str | None = None) -> str:
        out = output or netlist.add_net().name
        cell = netlist.add_cell(kind, inputs, out)
        cell.lib_cell = weakest[kind]
        return out

    def const_net(value: int) -> str:
        target = "CONST1" if value else "CONST0"
        for cell in netlist.cells.values():
            if cell.gate == target:
                return cell.output
        out = netlist.add_net().name
        netlist.add_cell(target, [], out)
        return out

    def ripple(a, b, cin, outs=None):
        """Plain ripple block; drives ``outs`` if given, else fresh nets."""
        sums = []
        carry = cin
        for i in range(len(a)):
            axb = gate("XOR2", [a[i], b[i]])
            sums.append(gate("XOR2", [axb, carry], outs[i] if outs else None))
            gen = gate("AND2", [a[i], b[i]])
            prop = gate("AND2", [axb, carry])
            carry = gate("OR2", [gen, prop])
        return sums, carry

    for anchor, meta in tagged:
        if anchor not in netlist.cells:
            continue
        if not _adder_tag_valid(netlist, meta):
            netlist.cells[anchor].attrs.pop("adder", None)
            continue
        a, b, cin = meta["a"], meta["b"], meta["cin"]
        outs, cout = meta["outs"], meta["cout"]
        cout_used = bool(netlist.nets[cout].sinks) or netlist.nets[cout].is_output
        for member in meta["members"]:
            netlist.remove_cell(member)
        width = len(outs)
        zero, one = const_net(0), const_net(1)
        carry = cin
        for start in range(0, width, block):
            end = min(start + block, width)
            a_blk, b_blk = a[start:end], b[start:end]
            out_blk = outs[start:end]
            if start == 0:
                _, carry = ripple(a_blk, b_blk, carry, outs=out_blk)
                continue
            sums0, c0 = ripple(a_blk, b_blk, zero)
            sums1, c1 = ripple(a_blk, b_blk, one)
            for i in range(len(out_blk)):
                gate("MUX2", [carry, sums0[i], sums1[i]], out_blk[i])
            carry = gate("MUX2", [carry, c0, c1])
        if cout_used:
            gate("BUF", [carry], cout)
        rebuilt += 1
    return PassResult(
        name="resynthesize_adders",
        changes=rebuilt,
        wns_before=0.0,
        wns_after=0.0,
        area_before=0.0,
        area_after=0.0,
    )


# -- chain balancing --------------------------------------------------------------------


def _collect_chain(
    netlist: Netlist, cell, kind: str, chain: dict[str, None], leaves: list[str]
) -> None:
    """Depth first from ``cell``: single-fanout ``kind`` gates feeding the
    chain join ``chain`` in visit order, every other input net is a leaf.

    A module-level function, not a closure: a recursive closure is a
    reference cycle that would keep the netlist alive until the cyclic
    collector runs.
    """
    chain[cell.name] = None
    for net_in in cell.inputs:
        child = netlist.driver_cell(net_in)
        if (
            child is not None
            and child.gate == kind
            and child.name not in chain
            and netlist.fanout(child.output) == 1
            and cell.inputs.count(net_in) == 1
            and not netlist.nets[child.output].is_output
        ):
            _collect_chain(netlist, child, kind, chain, leaves)
        else:
            leaves.append(net_in)


@_timed
def balance_chains(
    netlist: Netlist,
    library: TechLibrary,
    min_chain: int = 3,
) -> PassResult:
    """Rebuild linear associative-gate chains as balanced trees.

    Finds maximal chains of identical AND2/OR2/XOR2 gates where each link
    is single-fanout, gathers the leaf operands and re-synthesizes a
    balanced tree, cutting logic depth from N-1 to ceil(log2 N).
    """
    changes = 0
    for kind in ("AND2", "OR2", "XOR2"):
        for name in list(netlist.cells):
            root = netlist.cells.get(name)
            if root is None or root.gate != kind:
                continue
            # Only rebuild from the top of a chain.
            out_net = netlist.nets[root.output]
            parent = None
            if len(out_net.sinks) == 1 and not out_net.is_output:
                parent = netlist.cells[next(iter(out_net.sinks))]
            if parent is not None and parent.gate == kind:
                continue
            chain: dict[str, None] = {}
            leaves: list[str] = []
            _collect_chain(netlist, root, kind, chain, leaves)
            if len(chain) < min_chain:
                continue
            depth_before = len(chain)
            out = root.output
            lib_name = root.lib_cell
            for cell_name in chain:
                netlist.remove_cell(cell_name)
            layer = list(leaves)
            while len(layer) > 2:
                nxt = []
                for i in range(0, len(layer) - 1, 2):
                    mid = netlist.add_net()
                    cell = netlist.add_cell(kind, [layer[i], layer[i + 1]], mid.name)
                    cell.lib_cell = lib_name
                    nxt.append(mid.name)
                if len(layer) % 2:
                    nxt.append(layer[-1])
                layer = nxt
            top = netlist.add_cell(kind, layer, out)
            top.lib_cell = lib_name
            changes += 1
    return PassResult(
        name="balance_chains",
        changes=changes,
        wns_before=0.0,
        wns_after=0.0,
        area_before=0.0,
        area_after=0.0,
    )
