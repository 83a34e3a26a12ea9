"""Scalar reference STA, QoR and activity-propagation power (test oracle).

A deliberately plain per-cell walk over the netlist dicts: full arrival
propagation in topological order, endpoint slacks, the critical-path
trace, the QoR snapshot's totals and counts (area, leakage, summed net
load, :func:`netlist_stats`), the ``report_area`` text, and the two-sweep
signal-probability / transition-density model with power integration.
It has no incremental, trial or vector paths.
The production engines (:class:`repro.synth.TimingEngine` and
:class:`repro.synth.PowerAnalyzer`, which run on the structure-of-arrays
kernels) must agree with it bit for bit: same expressions, same operand
order, same endpoint-dict order, same ``min`` tie-breaks.

:class:`ReferenceEngine` wraps the oracle in the ``TimingEngine``
surface the optimization passes and the explorer use, so a whole pass
flow can be replayed on scalar verdicts: every query re-runs the full
reference STA, and a trial commits its rebinds, measures and reverts.
"""

from __future__ import annotations

from repro.synth.power import PowerReport
from repro.synth.reports import QoRSnapshot
from repro.synth.timing import PathPoint, TimingPath, TimingReport

_CONSTS = ("CONST0", "CONST1")


# -- electrical model ----------------------------------------------------------


def bound_cell(cell, library):
    """The library cell a netlist cell is timed with."""
    if cell.lib_cell is not None and cell.lib_cell in library:
        return library.cell(cell.lib_cell)
    return library.weakest(cell.gate)


def net_load(netlist, library, wireload, net_name: str) -> float:
    """Sink pin caps (clock pins included) + external pin + wireload, fF.

    Pin caps sum in ``net.sinks`` attach order, the order the SoA
    lowering's pairs follow, so the float sum is the same under any hash
    seed.
    """
    net = netlist.nets[net_name]
    pin_cap = 0.0
    fanout = 0
    for sink_name in net.sinks:
        sink = netlist.cells[sink_name]
        pins = sink.inputs.count(net_name)
        if sink.attrs.get("clock") == net_name:
            pins += 1
        pin_cap += pins * bound_cell(sink, library).input_cap
        fanout += pins
    if net.is_output:
        fanout += 1
        pin_cap += 2.0  # assumed external pin load
    return pin_cap + wireload.capacitance(fanout)


def cell_delay(cell, netlist, library, wireload) -> float:
    if cell.gate in _CONSTS:
        return 0.0
    lib = bound_cell(cell, library)
    load = net_load(netlist, library, wireload, cell.output)
    if cell.is_sequential:
        return lib.clk_to_q + lib.drive_res * load / 1000.0
    return lib.delay(load)


def _fold(values) -> float:
    """A sequential float sum from 0.0 (``sum`` compensates on Python 3.12+)."""
    total = 0.0
    for value in values:
        total += value
    return total


def total_area(netlist, library) -> float:
    return _fold(
        bound_cell(c, library).area
        for c in netlist.cells.values()
        if c.gate not in _CONSTS
    )


# -- QoR snapshot ----------------------------------------------------------------


def total_leakage(netlist, library) -> float:
    """Leakage power in nW."""
    return _fold(
        bound_cell(c, library).leakage
        for c in netlist.cells.values()
        if c.gate not in _CONSTS
    )


def dynamic_power(
    netlist, library, wireload, constraints,
    activity: float = 0.1, voltage: float = 1.1,
) -> float:
    """Switching power estimate in uW: alpha * C * V^2 * f."""
    total_cap_ff = _fold(
        net_load(netlist, library, wireload, name) for name in netlist.nets
    )
    freq_ghz = 1.0 / max(constraints.clock_period, 1e-9)
    return activity * total_cap_ff * voltage**2 * freq_ghz


def netlist_stats(netlist) -> dict:
    """Cell, net and port counts, max fanout and per-gate cell counts."""
    gate_counts: dict[str, int] = {}
    for cell in netlist.cells.values():
        gate_counts[cell.gate] = gate_counts.get(cell.gate, 0) + 1
    sequential = gate_counts.get("DFF", 0)
    max_fanout = max((netlist.fanout(n) for n in netlist.nets), default=0)
    return {
        "cells": netlist.num_cells,
        "sequential": sequential,
        "combinational": netlist.num_cells - sequential,
        "nets": len(netlist.nets),
        "inputs": len(netlist.primary_inputs),
        "outputs": len(netlist.primary_outputs),
        "max_fanout": max_fanout,
        "gate_counts": gate_counts,
    }


def reference_qor(design, netlist, library, wireload, constraints, report) -> QoRSnapshot:
    """The :class:`QoRSnapshot` of an analyzed netlist, walked in Python."""
    stats = netlist_stats(netlist)
    return QoRSnapshot(
        design=design,
        wns=report.wns,
        cps=report.cps,
        tns=report.tns,
        area=round(total_area(netlist, library), 2),
        num_violations=report.num_violations,
        num_cells=stats["cells"],
        num_registers=stats["sequential"],
        max_fanout=stats["max_fanout"],
        leakage_nw=round(total_leakage(netlist, library), 1),
        dynamic_uw=round(
            dynamic_power(netlist, library, wireload, constraints), 1
        ),
    )


def area_by_class(netlist, library) -> tuple[float, float, float]:
    """``(combinational, sequential, BUF)`` cell area, each in cell order."""
    comb_area = 0.0
    seq_area = 0.0
    buf_area = 0.0
    for cell in netlist.cells.values():
        if cell.gate in _CONSTS:
            continue
        area = bound_cell(cell, library).area
        if cell.is_sequential:
            seq_area += area
        else:
            comb_area += area
            if cell.gate == "BUF":
                buf_area += area
    return comb_area, seq_area, buf_area


def reference_area_report(design: str, netlist, library) -> str:
    """DC ``report_area``-style text, walked in Python."""
    stats = netlist_stats(netlist)
    comb_area, seq_area, buf_area = area_by_class(netlist, library)
    lines = [
        "****************************************",
        "Report : area",
        f"Design : {design}",
        "****************************************",
        "",
        f"Number of cells:          {stats['cells']:>12}",
        f"Number of sequential:     {stats['sequential']:>12}",
        f"Number of nets:           {stats['nets']:>12}",
        f"Combinational area:       {comb_area:>12.2f}",
        f"Buf/Inv area:             {buf_area:>12.2f}",
        f"Noncombinational area:    {seq_area:>12.2f}",
        f"Total cell area:          {comb_area + seq_area:>12.2f}",
    ]
    return "\n".join(lines)


def high_fanout_nets(netlist, count: int = 5) -> list[tuple[str, int]]:
    """The ``count`` nets of highest ``Netlist.fanout``, ties in net order."""
    return sorted(
        ((name, netlist.fanout(name)) for name in netlist.nets),
        key=lambda kv: kv[1],
        reverse=True,
    )[:count]


# -- timing ------------------------------------------------------------------


def reference_sta(
    netlist, library, wireload, constraints, with_paths: bool = True
) -> TimingReport:
    """Full from-scratch setup STA over the netlist dicts."""
    arrivals: dict[str, float] = {}
    pred: dict[str, tuple[str, str] | None] = {}
    for name in netlist.primary_inputs:
        if constraints.clock_port is not None:
            is_clock = name == constraints.clock_port
        else:
            is_clock = netlist.nets[name].is_clock
        if is_clock:
            continue
        load = net_load(netlist, library, wireload, name)
        drive = constraints.input_drive_res * load / 1000.0
        arrivals[name] = constraints.arrival_offset(name) + drive
        pred[name] = None
    for cell in netlist.cells.values():
        if cell.is_sequential:
            arrivals[cell.output] = cell_delay(cell, netlist, library, wireload)
            pred[cell.output] = None
        elif cell.gate in _CONSTS:
            arrivals[cell.output] = 0.0
            pred[cell.output] = None
    for cell in netlist.topological_cells():
        if cell.gate in _CONSTS:
            continue
        worst_in = None
        worst_arrival = 0.0
        for net_in in cell.inputs:
            arr = arrivals.get(net_in, 0.0)
            if worst_in is None or arr > worst_arrival:
                worst_in, worst_arrival = net_in, arr
        delay = cell_delay(cell, netlist, library, wireload)
        arrivals[cell.output] = worst_arrival + delay
        pred[cell.output] = (cell.name, worst_in) if worst_in else None

    period = constraints.effective_period
    slacks: dict[str, float] = {}
    required: dict[str, float] = {}
    endpoint_net: dict[str, str] = {}
    for name in netlist.primary_outputs:
        key = f"out:{name}"
        required[key] = period - constraints.required_margin(name)
        slacks[key] = required[key] - arrivals.get(name, 0.0)
        endpoint_net[key] = name
    for cell in netlist.cells.values():
        if not cell.is_sequential:
            continue
        key = f"reg:{cell.name}"
        required[key] = period - bound_cell(cell, library).setup
        slacks[key] = required[key] - arrivals.get(cell.inputs[0], 0.0)
        endpoint_net[key] = cell.inputs[0]

    if not slacks:
        return TimingReport(
            wns=0.0, cps=0.0, tns=0.0, num_endpoints=0,
            num_violations=0, critical_path=None,
        )
    worst_key = min(slacks, key=slacks.get)
    cps = slacks[worst_key]
    critical = None
    if with_paths:
        critical = _trace_path(
            endpoint_net[worst_key], worst_key, arrivals, pred, required[worst_key]
        )
    return TimingReport(
        wns=round(min(cps, 0.0), 4),
        cps=round(cps, 4),
        tns=round(sum(min(s, 0.0) for s in slacks.values()), 4),
        num_endpoints=len(slacks),
        num_violations=sum(1 for s in slacks.values() if s < 0),
        critical_path=critical,
        endpoint_slacks=slacks,
    )


def _trace_path(end_net, endpoint, arrivals, pred, required) -> TimingPath:
    points: list[PathPoint] = []
    net = end_net
    while True:
        step = pred.get(net)
        arrival = arrivals.get(net, 0.0)
        if step is None:
            points.append(PathPoint(cell="<launch>", net=net, incr=arrival, arrival=arrival))
            break
        cell_name, prev_net = step
        incr = arrival - arrivals.get(prev_net, 0.0)
        points.append(PathPoint(cell=cell_name, net=net, incr=incr, arrival=arrival))
        net = prev_net
    points.reverse()
    return TimingPath(
        startpoint=points[0].net,
        endpoint=endpoint,
        points=points,
        arrival=arrivals.get(end_net, 0.0),
        required=required,
    )


# -- power -------------------------------------------------------------------


def prob_out(gate: str, p: list[float]) -> float:
    """P(out=1) for one gate given its input 1-probabilities."""
    if gate == "CONST0":
        return 0.0
    if gate == "CONST1":
        return 1.0
    if gate in ("BUF", "DFF"):
        return p[0]
    if gate == "NOT":
        return 1.0 - p[0]
    if gate == "AND2":
        return p[0] * p[1]
    if gate == "NAND2":
        return 1.0 - p[0] * p[1]
    if gate == "OR2":
        return 1.0 - (1 - p[0]) * (1 - p[1])
    if gate == "NOR2":
        return (1 - p[0]) * (1 - p[1])
    if gate in ("XOR2", "XNOR2"):
        x = p[0] * (1 - p[1]) + (1 - p[0]) * p[1]
        return x if gate == "XOR2" else 1.0 - x
    if gate == "MUX2":
        sel, a, b = p
        return (1 - sel) * a + sel * b
    if gate == "AOI21":
        return (1 - p[0] * p[1]) * (1 - p[2])
    if gate == "OAI21":
        return 1 - (1 - (1 - p[0]) * (1 - p[1])) * p[2]
    raise ValueError(f"unknown gate {gate!r}")


def sensitivities(gate: str, p: list[float]) -> list[float]:
    """Boolean-difference probability that an input toggle reaches the output."""
    if gate in _CONSTS:
        return []
    if gate in ("BUF", "NOT", "DFF"):
        return [1.0]
    if gate in ("AND2", "NAND2"):
        return [p[1], p[0]]
    if gate in ("OR2", "NOR2"):
        return [1 - p[1], 1 - p[0]]
    if gate in ("XOR2", "XNOR2"):
        return [1.0, 1.0]
    if gate == "MUX2":
        sel, a, b = p
        return [a * (1 - b) + (1 - a) * b, 1 - sel, sel]
    if gate == "AOI21":
        return [p[1] * (1 - p[2]), p[0] * (1 - p[2]), 1 - p[0] * p[1]]
    if gate == "OAI21":
        return [(1 - p[1]) * p[2], (1 - p[0]) * p[2], 1 - (1 - p[0]) * (1 - p[1])]
    raise ValueError(f"unknown gate {gate!r}")


def reference_power(
    netlist,
    library,
    wireload,
    constraints,
    input_probability: float = 0.5,
    input_activity: float = 0.2,
    voltage: float = 1.1,
    internal_energy_fj: float = 0.8,
) -> PowerReport:
    """Two register/comb sweeps of probability + activity, then integrate.

    Registers are swept in cells order (Gauss-Seidel: later registers see
    earlier updates); when the second register sweep changes nothing the
    second combinational sweep would reproduce every value and is skipped.
    """
    prob: dict[str, float] = {}
    act: dict[str, float] = {}
    for name in netlist.primary_inputs:
        if netlist.nets[name].is_clock:
            prob[name], act[name] = 0.5, 2.0  # two edges per cycle
        else:
            prob[name], act[name] = input_probability, input_activity
    for iteration in range(2):
        changed = False
        for cell in netlist.cells.values():
            if cell.is_sequential:
                d = cell.inputs[0]
                p_new = prob.get(d, input_probability)
                a_new = min(act.get(d, input_activity), 1.0)
                if prob.get(cell.output) != p_new or act.get(cell.output) != a_new:
                    changed = True
                    prob[cell.output], act[cell.output] = p_new, a_new
        if iteration and not changed:
            break
        for cell in netlist.topological_cells():
            p_in = [prob.get(n, input_probability) for n in cell.inputs]
            a_in = [act.get(n, input_activity) for n in cell.inputs]
            prob[cell.output] = prob_out(cell.gate, p_in)
            sens = sensitivities(cell.gate, p_in)
            act[cell.output] = min(sum(s * a for s, a in zip(sens, a_in)), 4.0)

    freq_ghz = 1.0 / max(constraints.clock_period, 1e-9)
    v2 = voltage**2
    dynamic = internal = leakage = clock_tree = 0.0
    for name, net in netlist.nets.items():
        cap_ff = net_load(netlist, library, wireload, name)
        energy = 0.5 * cap_ff * v2 * freq_ghz * act.get(name, 0.0)
        if net.is_clock:
            clock_tree += energy
        else:
            dynamic += energy
    for cell in netlist.cells.values():
        if cell.gate in _CONSTS:
            continue
        lib = bound_cell(cell, library)
        leakage += lib.leakage / 1000.0  # nW -> uW
        internal += internal_energy_fj * lib.drive * act.get(cell.output, 0.0) * freq_ghz
    return PowerReport(
        dynamic_uw=round(dynamic, 3),
        internal_uw=round(internal, 3),
        leakage_uw=round(leakage, 3),
        clock_tree_uw=round(clock_tree, 3),
        net_activities=act,
    )


# -- engine stand-in ------------------------------------------------------------


class ReferenceEngine:
    """``TimingEngine`` stand-in answering every query with the oracle."""

    def __init__(self, netlist, library, wireload, constraints) -> None:
        self.netlist = netlist
        self.library = library
        self.wireload = wireload
        self.constraints = constraints

    def analyze(self, with_paths: bool = True) -> TimingReport:
        return reference_sta(
            self.netlist, self.library, self.wireload, self.constraints, with_paths
        )

    def trial_cps(self) -> float:
        return self.analyze(with_paths=False).cps

    def total_area(self) -> float:
        return total_area(self.netlist, self.library)

    def trial_metrics_batch(self, trials) -> list[tuple[float, float]]:
        """Commit each lane's rebinds, measure, revert."""
        cells = self.netlist.cells
        out = []
        for lane in trials:
            rebinds = [lane] if isinstance(lane[0], str) else list(lane)
            previous = [(cells[name], cells[name].lib_cell) for name, _ in rebinds]
            for name, lib_name in rebinds:
                cells[name].lib_cell = lib_name
            out.append((self.trial_cps(), self.total_area()))
            for cell, prev in previous:
                cell.lib_cell = prev
        return out

    def trial_cps_batch(self, trials) -> list[float]:
        return [cps for cps, _ in self.trial_metrics_batch(trials)]


# -- design analysis -----------------------------------------------------------

_CHAIN_GATES = ("AND2", "OR2", "XOR2")


def longest_chain(netlist) -> int:
    """Longest single-fanout chain of identical AND2/OR2/XOR2 gates.

    One pass in topological order: a chain gate extends the longest
    chain of a same-gate driver whose output it alone reads.
    """
    chain: dict[str, int] = {}
    for cell in netlist.topological_cells():
        if cell.gate not in _CHAIN_GATES:
            continue
        length = 1
        for net_in in cell.inputs:
            driver = netlist.nets[net_in].driver
            child = netlist.cells[driver] if driver is not None else None
            if (
                child is not None
                and child.gate == cell.gate
                and netlist.fanout(child.output) == 1
            ):
                length = max(length, 1 + chain[child.name])
        chain[cell.name] = length
    return max(chain.values(), default=0)


def register_imbalance(report: TimingReport, constraints) -> float:
    """Std/mean of the register endpoints' arrivals, in endpoint order."""
    import numpy as np

    period = constraints.effective_period
    arrivals = [
        period - slack
        for key, slack in report.endpoint_slacks.items()
        if key.startswith("reg:")
    ]
    if len(arrivals) < 2:
        return 0.0
    arrivals = np.asarray(arrivals)
    mean = arrivals.mean()
    return float(arrivals.std() / mean) if mean > 0 else 0.0


def modules_on_path(report: TimingReport) -> list[str]:
    """Instance prefixes of the critical path's nets, in path order."""
    seen: list[str] = []
    if report.critical_path is not None:
        for point in report.critical_path.points:
            if "/" in point.net:
                prefix = point.net.rsplit("/", 1)[0]
                if prefix not in seen:
                    seen.append(prefix)
    return seen


def reference_analysis(design, netlist, library, wireload, constraints) -> dict:
    """Every netlist-derived ``DesignAnalysis`` field of a mapped netlist.

    That is every field but the circuit graph and the category mix,
    which come from the RTL's module graph.
    """
    stats = netlist_stats(netlist)
    report = reference_sta(netlist, library, wireload, constraints)
    imbalance = register_imbalance(report, constraints)
    chain = longest_chain(netlist)
    hierarchy = sum(1 for c in netlist.cells.values() if c.attrs.get("hierarchy"))
    adders = sum(1 for c in netlist.cells.values() if "adder" in c.attrs)
    registers = stats["sequential"]
    path = report.critical_path
    rules = (
        ("high_fanout", stats["max_fanout"] >= 24),
        ("register_imbalance", imbalance >= 0.5 and registers > 0),
        ("unbalanced_chains", chain >= 6),
        ("hierarchy_boundaries", hierarchy >= 16),
        ("wide_arithmetic", adders >= 2),
        ("long_combinational", path is not None and path.depth >= 40),
        ("timing_violated", report.wns < 0),
    )
    return {
        "design_name": design,
        "timing": report,
        "area": total_area(netlist, library),
        "num_cells": stats["cells"],
        "num_registers": registers,
        "max_fanout": stats["max_fanout"],
        "high_fanout_nets": high_fanout_nets(netlist),
        "critical_modules": modules_on_path(report),
        "pathologies": [name for name, found in rules if found],
        "register_stage_imbalance": imbalance,
        "longest_chain": chain,
        "hierarchy_buffers": hierarchy,
        "tagged_adders": adders,
    }
