"""Static timing analysis over mapped (or generic) netlists.

Single-corner setup analysis with ideal clocks:

* launch points: primary inputs (arrival = input delay) and DFF outputs
  (arrival = clk-to-q);
* propagation: ``arrival(out) = max(arrival(in)) + delay(cell, load)`` in
  topological order, with net loads from sink pin capacitance plus the
  wireload model;
* endpoints: DFF data pins (required = period - setup) and primary outputs
  (required = period - output delay).

Metrics follow the paper's Table III/IV columns: **CPS** is the slack of
the most critical path (may be positive), **WNS** is the worst *negative*
slack (0.0 when timing is met), **TNS** sums negative endpoint slacks.

Engine
------

Arrival propagation and slack reduction run on the structure-of-arrays
kernels in :mod:`repro.synth.soa`: the netlist is lowered once (cached
per netlist across engines) and propagated level by level.  The engine
subscribes to the netlist's change journal (:mod:`repro.hdl.netlist`):
when the only changes since the last ``analyze()`` are cell *resizes*
(``lib_cell`` rebinds — the gate-sizing hot loop), it rebinds those
cells' library rows and re-runs only the dirtied levels; structural
edits, constraint changes or a trimmed journal rebuild the kernel from
scratch (over a lowering that structural edits merely patch).
The contract is exact parity: ``analyze()`` returns bit-for-bit the
same WNS/CPS/TNS, endpoint slacks and critical path as
:meth:`TimingEngine.full_analyze` and as the plain per-cell scalar walk
kept as the test oracle (``tests/synth/scalar_reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import obs, perf
from ..hdl.netlist import Netlist
from . import soa
from .library import TechLibrary
from .sdc import Constraints
from .wireload import WireLoadModel

__all__ = ["PathPoint", "TimingPath", "TimingReport", "TimingEngine"]

_CONSTS = ("CONST0", "CONST1")

#: Buckets for the trial-batch width histogram (lanes per kernel sweep).
_TRIAL_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


def _observe_trial_batch(lanes: int) -> None:
    """Record one trial-batch width on the live metrics endpoint."""
    from ..obs import metrics

    metrics.histogram(
        "repro_trial_batch_size",
        "Lanes per TimingEngine trial batch (hypothetical rebinds per sweep)",
        buckets=_TRIAL_BATCH_BUCKETS,
    ).observe(float(lanes))


@dataclass(frozen=True, slots=True)
class PathPoint:
    """One hop on a timing path."""

    cell: str  # cell name, or "<port>" for launch/capture ports
    net: str
    incr: float
    arrival: float


@dataclass
class TimingPath:
    """A startpoint->endpoint data path with its timing verdict."""

    startpoint: str
    endpoint: str
    points: list[PathPoint] = field(default_factory=list)
    arrival: float = 0.0
    required: float = 0.0

    @property
    def slack(self) -> float:
        return self.required - self.arrival

    @property
    def depth(self) -> int:
        return len(self.points)


@dataclass
class TimingReport:
    """Design-level timing summary."""

    wns: float
    cps: float
    tns: float
    num_endpoints: int
    num_violations: int
    critical_path: TimingPath | None
    endpoint_slacks: dict[str, float] = field(default_factory=dict)

    @property
    def met(self) -> bool:
        return self.num_violations == 0


class TimingEngine:
    """Setup-time STA for one netlist under one set of constraints.

    The engine may be kept alive across netlist mutations: ``analyze()``
    consults the netlist journal and updates incrementally when it can.
    """

    def __init__(
        self,
        netlist: Netlist,
        library: TechLibrary,
        wireload: WireLoadModel,
        constraints: Constraints,
    ) -> None:
        self.netlist = netlist
        self.library = library
        self.wireload = wireload
        self.constraints = constraints
        # analysis state: the SoA kernel (None until the first full pass)
        # and the endpoint dicts materialized from it for reports
        self._kernel: soa.SoAKernel | None = None
        self._ep_slack: dict[str, float] = {}
        self._ep_required: dict[str, float] = {}
        self._ep_net: dict[str, str] = {}
        self._cursor: int | None = None
        self._pending_resizes: set[str] = set()
        self._env_sig: tuple | None = None
        # trial evaluations fold resizes into the kernel without
        # materializing the endpoint dicts; analyze() refreshes them lazily
        self._endpoints_stale = False

    # -- journal synchronisation -----------------------------------------------------

    def _env_signature(self) -> tuple:
        c = self.constraints
        return (
            id(self.netlist),
            id(self.library),
            id(self.wireload),
            c.clock_period,
            c.clock_name,
            c.clock_port,
            c.input_delay,
            c.output_delay,
            c.clock_uncertainty,
            c.input_drive_res,
            tuple(sorted(c.per_input_delay.items())),
            tuple(sorted(c.per_output_delay.items())),
        )

    def _invalidate(self) -> None:
        self._kernel = None
        self._ep_slack = {}
        self._ep_required = {}
        self._ep_net = {}
        self._pending_resizes.clear()
        self._endpoints_stale = False

    def _sync(self) -> None:
        """Fold journal events (and environment changes) into the caches."""
        sig = self._env_signature()
        if sig != self._env_sig:
            self._env_sig = sig
            self._invalidate()
            self._cursor = self.netlist.version
            return
        if self._cursor is None:
            self._invalidate()
            self._cursor = self.netlist.version
            return
        if self._cursor == self.netlist.version:
            return
        events = self.netlist.journal_since(self._cursor)
        self._cursor = self.netlist.version
        if events is None:
            self._invalidate()
            return
        resized: list[str] = []
        for event in events:
            if event[0] == "structure":
                self._invalidate()
                return
            resized.append(event[1])
        cells = self.netlist.cells
        if not all(name in cells for name in resized):
            # a resize of a since-removed cell implies a structural edit
            self._invalidate()
            return
        self._pending_resizes.update(resized)

    # -- analysis --------------------------------------------------------------------

    def analyze(self, with_paths: bool = True) -> TimingReport:
        """Run STA; returns the design-level :class:`TimingReport`.

        Uses the incremental path when only resize events occurred since
        the previous call; otherwise rebuilds from scratch.
        """
        self._sync()
        if self._kernel is None:
            perf.incr("sta.full")
            with obs.span("synth.sta", mode="full", cells=len(self.netlist.cells)):
                self._rebuild()
        elif self._pending_resizes:
            resized = self._pending_resizes
            self._pending_resizes = set()
            perf.incr("sta.incremental")
            with obs.span("synth.sta", mode="incremental", resized=len(resized)):
                self._kernel.update_resizes(resized)
                self._materialize_endpoints()
        else:
            perf.incr("sta.cached")
            if self._endpoints_stale:
                # a trial evaluation folded resizes into the kernel
                # arrays; only the report dicts need refreshing
                self._materialize_endpoints()
        return self._build_report(with_paths)

    def full_analyze(self, with_paths: bool = True) -> TimingReport:
        """Run STA from scratch, ignoring all memoized analysis state.

        The exact-parity reference for :meth:`analyze`; also the explicit
        fallback when callers mutate state behind the journal's back.
        """
        self._sync()
        self._invalidate()
        perf.incr("sta.full")
        self._rebuild()
        return self._build_report(with_paths)

    def _rebuild(self) -> None:
        """Lower to SoA arrays (cached per netlist) and run the full kernel."""
        kernel = soa.SoAKernel(
            self.netlist, self.library, self.wireload, self.constraints
        )
        kernel.run_full()
        self._kernel = kernel
        self._materialize_endpoints()
        self._pending_resizes = set()

    def _fold_pending(self) -> bool:
        """Bring the kernel up to date without materializing endpoint dicts.

        Returns False when nothing was pending (the kernel was current).
        """
        self._sync()
        if self._kernel is None:
            perf.incr("sta.full")
            self._rebuild()
            return True
        if self._pending_resizes:
            resized = self._pending_resizes
            self._pending_resizes = set()
            perf.incr("sta.incremental")
            self._kernel.update_resizes(resized)
            self._endpoints_stale = True
            return True
        return False

    def _materialize_endpoints(self) -> None:
        """Convert kernel endpoint arrays into the report dicts.

        Keys are inserted primary outputs first, then sequential cells in
        definition order, so the report reductions — ``min`` tie-breaks,
        the sequential ``tns`` sum — are fixed by netlist order.
        """
        kernel = self._kernel
        s = kernel.s
        (po_names, po_req, po_slack,
         reg_names, reg_req, reg_slack) = kernel.endpoint_arrays()
        ep_slack: dict[str, float] = {}
        ep_required: dict[str, float] = {}
        ep_net: dict[str, str] = {}
        for name, req, slack in zip(po_names, po_req.tolist(), po_slack.tolist()):
            key = f"out:{name}"
            ep_slack[key] = slack
            ep_required[key] = req
            ep_net[key] = name
        reg_d = [s.net_names[ni] for ni in s.seq_d.tolist()]
        for name, req, slack, data_net in zip(
            reg_names, reg_req.tolist(), reg_slack.tolist(), reg_d
        ):
            key = f"reg:{name}"
            ep_slack[key] = slack
            ep_required[key] = req
            ep_net[key] = data_net
        self._ep_slack = ep_slack
        self._ep_required = ep_required
        self._ep_net = ep_net
        self._endpoints_stale = False

    def _predecessor(self, net_name: str) -> tuple[str, str] | None:
        """Lazy ``(driver cell, worst input net)`` lookup for path tracing.

        The worst input is the first strictly-greatest arrival in pin
        order, so traced paths are fixed by the netlist alone.
        """
        net = self.netlist.nets.get(net_name)
        if net is None or net.driver is None:
            return None
        cell = self.netlist.cells[net.driver]
        if cell.is_sequential or cell.gate in _CONSTS:
            return None
        kernel = self._kernel
        worst_in = None
        worst_arrival = 0.0
        for net_in in cell.inputs:
            arr = kernel.arrival_of(net_in)
            if worst_in is None or arr > worst_arrival:
                worst_in, worst_arrival = net_in, arr
        return (cell.name, worst_in) if worst_in else None

    def _trace_path(self, end_net: str, endpoint: str, required: float) -> TimingPath:
        kernel = self._kernel
        points: list[PathPoint] = []
        net = end_net
        while True:
            pred = self._predecessor(net)
            arrival = kernel.arrival_of(net)
            if pred is None:
                points.append(
                    PathPoint(cell="<launch>", net=net, incr=arrival, arrival=arrival)
                )
                break
            cell_name, prev_net = pred
            incr = arrival - kernel.arrival_of(prev_net)
            points.append(PathPoint(cell=cell_name, net=net, incr=incr, arrival=arrival))
            net = prev_net
        points.reverse()
        return TimingPath(
            startpoint=points[0].net,
            endpoint=endpoint,
            points=points,
            arrival=kernel.arrival_of(end_net),
            required=required,
        )

    # -- trial evaluation ----------------------------------------------------------

    def trial_cps(self) -> float:
        """Worst endpoint slack after folding pending resizes — no report.

        Bit-identical to ``analyze(with_paths=False).cps``, but skips
        endpoint-dict materialization, report assembly and path tracing:
        the per-trial hot path of the optimization passes.  The verdict
        is a single array reduction; the next ``analyze()`` refreshes the
        endpoint dicts from the (already current) kernel.
        """
        if not self._fold_pending():
            perf.incr("sta.cached")
        return self._kernel.committed_cps()

    def trial_cps_batch(self, trials) -> list[float]:
        """CPS verdicts for hypothetical cell rebinds.

        ``trials`` is a sequence of lanes, each one
        ``(cell_name, lib_cell_name)`` pair or a list of such pairs (a
        grouped rebind evaluated as if committed together), evaluated
        independently against the current committed state.  The whole
        batch runs as one 2-D kernel sweep with no side effects on the
        netlist or the committed arrays; entry ``i`` is bit-identical to
        rebinding ``trials[i]`` alone and reading
        ``analyze(with_paths=False).cps``.
        """
        if not trials:
            return []
        _observe_trial_batch(len(trials))
        self._fold_pending()
        return self._kernel.trial_cps_batch(trials)

    def trial_metrics_batch(self, trials) -> list[tuple[float, float]]:
        """``(CPS, total area)`` verdicts for hypothetical cell rebinds.

        Same lane format as :meth:`trial_cps_batch` — each lane one
        ``(cell_name, lib_cell_name)`` pair or a list of such pairs
        evaluated as if committed together.  Entry ``i`` is bit-identical
        to rebinding ``trials[i]`` alone and reading
        ``(analyze(with_paths=False).cps, total_area())``: one
        side-effect-free kernel sweep (CPS) plus a patched-row area fold.
        This is the scoring path of the design-space explorer
        (:mod:`repro.synth.explore`).
        """
        if not trials:
            return []
        _observe_trial_batch(len(trials))
        self._fold_pending()
        return self._kernel.trial_metrics_batch(trials)

    # -- report assembly -----------------------------------------------------------

    def _build_report(self, with_paths: bool) -> TimingReport:
        perf.incr("sta.report")
        endpoint_slacks = self._ep_slack
        if not endpoint_slacks:
            return TimingReport(
                wns=0.0, cps=0.0, tns=0.0, num_endpoints=0,
                num_violations=0, critical_path=None,
            )
        worst_key = min(endpoint_slacks, key=endpoint_slacks.get)
        cps = endpoint_slacks[worst_key]
        wns = min(cps, 0.0)
        tns = sum(min(s, 0.0) for s in endpoint_slacks.values())
        violations = sum(1 for s in endpoint_slacks.values() if s < 0)

        critical = None
        if with_paths:
            critical = self._trace_path(
                self._ep_net[worst_key], worst_key, self._ep_required[worst_key]
            )
        return TimingReport(
            wns=round(wns, 4),
            cps=round(cps, 4),
            tns=round(tns, 4),
            num_endpoints=len(endpoint_slacks),
            num_violations=violations,
            critical_path=critical,
            endpoint_slacks=dict(endpoint_slacks),
        )

    # -- QoR totals, read from the kernel ---------------------------------------

    def kernel(self) -> soa.SoAKernel:
        """The SoA kernel with every journalled edit folded in.

        The source of the QoR totals below and of the reports' netlist
        counts (:mod:`repro.synth.reports`): the kernel's sums fold in
        netlist order, bit-identical to Python loops over the netlist.
        """
        self._fold_pending()
        return self._kernel

    def total_area(self) -> float:
        """Cell area of the non-constant cells."""
        return self.kernel().committed_area()

    def total_leakage(self) -> float:
        """Leakage power in nW."""
        return self.kernel().committed_leakage()

    def dynamic_power(self, activity: float = 0.1, voltage: float = 1.1) -> float:
        """Switching power estimate in uW: alpha * C * V^2 * f."""
        total_cap_ff = self.kernel().committed_load()
        freq_ghz = 1.0 / max(self.constraints.clock_period, 1e-9)
        # fF * V^2 * GHz = uW
        return activity * total_cap_ff * voltage**2 * freq_ghz
