"""Design analysis: global and local characteristics for script customization.

This is the analysis half of CircuitMentor (paper §IV-A): it elaborates
the design, runs STA at the target period, and distils the *pathologies*
that determine which synthesis commands are appropriate — high-fanout
nets (buffer balancing), register imbalance (retiming), long unbalanced
gate chains (restructuring), hierarchy boundaries (ungroup/flatten),
standalone wide adders (arithmetic resynthesis).

Analysis times the generic elaborated netlist in place: the SoA kernel
binds an unmapped gate to ``library.weakest(gate)``, the cell
``map_to_library`` would bind, so no mapping pass or private copy is
needed and every field is what the mapped netlist gives.  A
:class:`DesignAnalysis` holds facts, not the design: every field is
computed before the netlist is let go.  The untouched netlist then
becomes the frontend cache's hand-over entry
(:func:`~repro.synth.cache.elaborate_to_hand_over`), which the
session's synthesis takes at ``read_verilog`` without a copy, so a
finished customization (its result, a serve session's checkpoint, a
pass@k context shipped to a worker) retains no netlist, and memory
follows the sessions in flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..hdl.netlist import Netlist, collector_paused
from ..hdl.parser import parse_source
from ..synth.library import TechLibrary, nangate45
from ..synth.sdc import Constraints
from ..synth.soa import SoAStructure
from ..synth.timing import TimingEngine, TimingReport
from ..synth.wireload import WireLoadModel, get_wireload
from .circuit_graph import CircuitGraph, build_circuit_graph

__all__ = ["DesignAnalysis", "analyze_design"]


@dataclass
class DesignAnalysis:
    """Everything the Generator/SynthExpert need to know about a design."""

    design_name: str
    circuit: CircuitGraph
    timing: TimingReport
    area: float
    num_cells: int
    num_registers: int
    max_fanout: int
    high_fanout_nets: list[tuple[str, int]] = field(default_factory=list)
    critical_modules: list[str] = field(default_factory=list)
    pathologies: list[str] = field(default_factory=list)
    category_mix: dict[str, int] = field(default_factory=dict)
    register_stage_imbalance: float = 0.0
    longest_chain: int = 0
    hierarchy_buffers: int = 0
    tagged_adders: int = 0

    @property
    def dominant_category(self) -> str:
        if not self.category_mix:
            return "mixed"
        return max(self.category_mix, key=self.category_mix.get)

    def summary(self) -> str:
        """Human/LLM-readable analysis report."""
        lines = [
            f"Design analysis for {self.design_name}:",
            f"  cells={self.num_cells} registers={self.num_registers} area={self.area:.1f}",
            f"  WNS={self.timing.wns:.3f} CPS={self.timing.cps:.3f} TNS={self.timing.tns:.3f}",
            f"  dominant category: {self.dominant_category} (mix: {self.category_mix})",
            f"  max fanout: {self.max_fanout}",
            f"  register stage imbalance: {self.register_stage_imbalance:.2f}",
            f"  longest same-gate chain: {self.longest_chain}",
            f"  hierarchy boundary buffers: {self.hierarchy_buffers}",
            f"  standalone wide adders: {self.tagged_adders}",
            f"  detected pathologies: {', '.join(self.pathologies) or 'none'}",
            f"  critical modules: {', '.join(self.critical_modules) or 'top'}",
        ]
        return "\n".join(lines)


def _modules_on_path(report: TimingReport) -> list[str]:
    """Instance paths traversed by the critical path (from net prefixes)."""
    if report.critical_path is None:
        return []
    seen: list[str] = []
    for point in report.critical_path.points:
        if "/" in point.net:
            prefix = point.net.rsplit("/", 1)[0]
            if prefix not in seen:
                seen.append(prefix)
    return seen


def _chain_len(netlist: Netlist, cell_name: str, memo: dict[str, int]) -> int:
    """Longest single-fanout chain of ``cell_name``'s gate ending at it.

    Module level, not a closure: a recursive closure is a reference cycle
    that would keep the netlist alive until the cyclic collector runs.
    """
    if cell_name in memo:
        return memo[cell_name]
    cell = netlist.cells[cell_name]
    memo[cell_name] = 1  # break accidental cycles defensively
    length = 1
    for net_in in cell.inputs:
        child = netlist.driver_cell(net_in)
        if (
            child is not None
            and child.gate == cell.gate
            and netlist.fanout(child.output) == 1
        ):
            length = max(length, 1 + _chain_len(netlist, child.name, memo))
    memo[cell_name] = length
    return length


def _longest_chain(netlist: Netlist) -> int:
    """Length of the longest single-fanout chain of identical gates."""
    best = 0
    memo: dict[str, int] = {}
    for name, cell in netlist.cells.items():
        if cell.gate in ("AND2", "OR2", "XOR2"):
            best = max(best, _chain_len(netlist, name, memo))
    return best


def _high_fanout_nets(s: SoAStructure, count: int = 5) -> list[tuple[str, int]]:
    """The ``count`` nets of highest ``Netlist.fanout``, ties in net order.

    A stable sort of the negated fanouts orders ties as
    ``sorted(..., reverse=True)`` does.
    """
    fanout = s.sink_fanout()
    top = np.argsort(-fanout, kind="stable")[:count].tolist()
    return [(s.net_names[ni], int(fanout[ni])) for ni in top]


def _register_imbalance(
    netlist: Netlist, engine: TimingEngine, report: TimingReport
) -> float:
    """Std/mean of register-endpoint arrivals: >0.6 suggests retiming."""
    arrivals = []
    period = engine.constraints.effective_period
    for key, slack in report.endpoint_slacks.items():
        if key.startswith("reg:"):
            arrivals.append(period - slack)
    if len(arrivals) < 2:
        return 0.0
    arrivals = np.asarray(arrivals)
    mean = arrivals.mean()
    return float(arrivals.std() / mean) if mean > 0 else 0.0


@collector_paused()
def analyze_design(
    verilog: str,
    design_name: str,
    top: str | None = None,
    clock_period: float = 1.0,
    library: TechLibrary | None = None,
    wireload: WireLoadModel | None = None,
) -> DesignAnalysis:
    """Full CircuitMentor analysis of a design at a target clock period.

    The RTL is parsed once; the circuit graph and the elaborated netlist
    (on a frontend-cache miss) are both built from that parse.  The
    generic netlist is timed in place, unmapped; the netlist counts and
    high-fanout nets come from the timing engine's SoA kernel.  The
    result keeps no netlist: once every field is computed, the netlist
    is handed over for the next ``read_verilog`` of this RTL to take (on
    a frontend hit the analysis reads a clone and takes nothing).  The
    analysis builds no reference cycle, so it runs with the cyclic
    collector paused.
    """
    library = library or nangate45()
    wireload = wireload or get_wireload("5K_heavy_1k")
    with obs.span("hdl.parse"):
        source = parse_source(verilog)
    circuit = build_circuit_graph(source, design_name, top=top)
    from ..synth.cache import elaborate_to_hand_over

    with elaborate_to_hand_over(source, top or design_name) as netlist:
        return _analyze_netlist(
            netlist, circuit, design_name, clock_period, library, wireload
        )


def _analyze_netlist(
    netlist: Netlist,
    circuit: CircuitGraph,
    design_name: str,
    clock_period: float,
    library: TechLibrary,
    wireload: WireLoadModel,
) -> DesignAnalysis:
    """Every :class:`DesignAnalysis` field, read from the generic netlist.

    The netlist is only read.  The timing engine dies when this returns,
    so nothing reads the netlist once the caller hands it over.
    """
    constraints = Constraints(clock_period=clock_period)
    engine = TimingEngine(netlist, library, wireload, constraints)
    report = engine.analyze()

    s = engine.kernel().s
    num_registers = len(s.seq_cells)
    high_fanout = _high_fanout_nets(s)
    max_fanout = high_fanout[0][1] if high_fanout else 0
    category_mix: dict[str, int] = {}
    for profile in circuit.profiles.values():
        category_mix[profile.category] = category_mix.get(profile.category, 0) + 1
    imbalance = _register_imbalance(netlist, engine, report)
    chain = _longest_chain(netlist)
    hier_bufs = sum(
        1 for c in netlist.cells.values() if c.attrs.get("hierarchy")
    )
    adders = sum(1 for c in netlist.cells.values() if "adder" in c.attrs)

    pathologies = []
    if max_fanout >= 24:
        pathologies.append("high_fanout")
    if imbalance >= 0.5 and num_registers > 0:
        pathologies.append("register_imbalance")
    if chain >= 6:
        pathologies.append("unbalanced_chains")
    if hier_bufs >= 16:
        pathologies.append("hierarchy_boundaries")
    if adders >= 2:
        pathologies.append("wide_arithmetic")
    if report.critical_path is not None and report.critical_path.depth >= 40:
        pathologies.append("long_combinational")
    if report.wns < 0:
        pathologies.append("timing_violated")

    return DesignAnalysis(
        design_name=design_name,
        circuit=circuit,
        timing=report,
        area=engine.total_area(),
        num_cells=s.num_cells,
        num_registers=num_registers,
        max_fanout=max_fanout,
        high_fanout_nets=high_fanout,
        critical_modules=_modules_on_path(report),
        pathologies=pathologies,
        category_mix=category_mix,
        register_stage_imbalance=imbalance,
        longest_chain=chain,
        hierarchy_buffers=hier_bufs,
        tagged_adders=adders,
    )
