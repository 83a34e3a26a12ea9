"""``dc_shell``: a Design-Compiler-style synthesis shell.

Executes Tcl synthesis scripts against the engine: reads RTL, applies
constraints, runs compile/optimization commands as real netlist
transformations, and renders DC-style reports.  This is the "commercial
logic synthesis tool" substitute the whole evaluation runs through.

Typical script::

    read_verilog aes
    current_design aes
    link
    set_wire_load_model -name 5K_heavy_1k
    create_clock -period 2.0 clk
    set_max_fanout 24
    compile_ultra -retime
    report_qor

:meth:`DCShell.run_scripts` runs several scripts of one design as a
prefix tree over their logical Tcl lines: each distinct prefix runs
once, and the shell forks an exact copy of itself (:meth:`DCShell.fork`)
wherever the scripts diverge.  A single script is the one-leaf tree.
"""

from __future__ import annotations

import copy
from collections.abc import Sequence
from dataclasses import dataclass, field

from .. import obs, perf
from ..hdl.ast_nodes import SourceFile
from ..hdl.elaborator import ElaborationError
from ..hdl.netlist import Netlist, collector_paused
from ..hdl.parser import ParseError
from .explore import explore_sizing
from .library import TechLibrary, nangate45
from .optimizer import (
    balance_chains,
    buffer_high_fanout,
    recover_area,
    resynthesize_adders,
    retime,
    size_gates,
)
from .passes import PassContext
from .reports import (
    QoRSnapshot,
    render_area_report,
    render_qor_report,
    render_timing_report,
    snapshot,
)
from .sdc import Constraints
from .tcl import TclError, TclInterpreter
from .techmap import cleanup, map_complex_gates, map_to_library, merge_inverters
from .timing import TimingEngine
from .wireload import WireLoadModel, get_wireload

__all__ = ["DCShell", "ScriptResult", "DCShellError"]

#: What a failing command raises; a script that hits one fails, the batch goes on.
_SCRIPT_ERRORS = (TclError, ElaborationError, ParseError, KeyError, ValueError)


class DCShellError(TclError):
    """Raised for semantically invalid shell commands."""


@dataclass
class ScriptResult:
    """Outcome of running one synthesis script."""

    success: bool
    error: str | None
    transcript: list[tuple[str, str]] = field(default_factory=list)
    qor: QoRSnapshot | None = None

    @property
    def executable(self) -> bool:
        return self.success


class DCShell(TclInterpreter):
    """One synthesis session: design + library + constraints + commands.

    The shell is the Tcl interpreter its scripts run in.  Its commands
    are plain functions of ``(shell, args)`` in the class-level table
    :attr:`SHELL_COMMANDS`, which the interpreter dispatches with the
    shell itself, so no per-shell closure refers back to the shell and
    reference counting frees a dropped shell with everything it holds.
    """

    def __init__(self, library: TechLibrary | None = None) -> None:
        super().__init__()
        self.commands.update(self.SHELL_COMMANDS)
        self.library = library or nangate45()
        self.wireload: WireLoadModel = get_wireload("5K_hvratio_1_1")
        self.constraints = Constraints()
        self.design_sources: dict[str, SourceFile | str] = {}
        self.design_tops: dict[str, str] = {}
        self.netlist: Netlist | None = None
        self.design_name: str | None = None
        self.flatten = False
        self.compiled = False
        self.pass_log: list[str] = []
        self.last_written: str | None = None
        self._context_cache: PassContext | None = None

    # -- design registry ------------------------------------------------------------

    def add_design(self, name: str, verilog: SourceFile | str, top: str | None = None) -> None:
        """Register RTL so scripts can ``read_verilog <name>``.

        ``verilog`` is the RTL text or its parsed :class:`SourceFile`,
        which ``read_verilog`` elaborates without parsing again.
        """
        self.design_sources[name] = verilog
        self.design_tops[name] = top or name

    # -- script execution --------------------------------------------------------------

    def run_script(self, script: str) -> ScriptResult:
        """Execute a full Tcl script; never raises (errors are captured)."""
        results, _ = self.run_scripts([script])
        return results[0]

    @collector_paused()
    def run_scripts(self, scripts: Sequence[str]) -> tuple[list[ScriptResult], int]:
        """Run every script from this shell's state, sharing common prefixes.

        The scripts' logical lines form a prefix tree.  This shell runs
        each distinct prefix once; where scripts diverge, every branch
        but the last runs on a :meth:`fork` and the last on the shell
        itself, so each result equals running its script alone on a copy
        of this shell.  A command that fails fails every script through
        it.  Returns the results in input order and the number of forks.
        A run builds no reference cycle, so it runs with the cyclic
        collector paused.
        """
        if not scripts:
            return [], 0
        root = _Node()
        for index, script in enumerate(scripts):
            node = root
            for line in self._logical_lines(script):
                child = node.children.get(line)
                if child is None:
                    child = node.children[line] = _Node()
                node = child
            node.ends.append(index)
        results: list[ScriptResult] = [None] * len(scripts)  # type: ignore[list-item]
        forks = self._finish(None, root, [], results)
        return results, forks

    def _finish(
        self,
        line: str | None,
        node: "_Node",
        transcript: list[tuple[str, str]],
        results: list[ScriptResult],
    ) -> int:
        """Run ``line`` and every script below ``node``; returns the forks made.

        Each call runs one segment, down to the next branch point or
        leaf, in its own ``synth.script`` span; the commands it ran
        (the one that failed included) add to ``synth.commands``.
        """
        with obs.span("synth.script") as sp:
            commands = 0
            failure = None
            try:
                while True:
                    if line is not None:
                        commands += 1
                        transcript.append((line, self.eval_line(line)))
                    if node.ends or len(node.children) != 1:
                        break
                    ((line, node),) = node.children.items()
            except _SCRIPT_ERRORS as exc:
                failure = str(exc)
            sp.set_attribute("commands", commands)
            perf.incr("synth.commands", commands)
            if failure is not None:
                sp.set_attribute("failed", True)
                for index in node.scripts():
                    results[index] = ScriptResult(success=False, error=failure)
                return 0
            if not node.children:
                result = self._result(transcript)
                first, *duplicates = node.ends
                results[first] = result
                for index in duplicates:
                    results[index] = copy.deepcopy(result)
                return 0
        # A branch point.  Scripts that end here are one branch, a leaf.
        branches: list[tuple[str | None, _Node]] = list(node.children.items())
        if node.ends:
            branches.insert(0, (None, _Node(ends=node.ends)))
        forks = len(branches) - 1
        for line, child in branches[:-1]:
            # The fork is the only reference to the branch's shell, so
            # the branch is freed before the next one starts.
            forks += self.fork()._finish(line, child, list(transcript), results)
        line, child = branches[-1]
        return forks + self._finish(line, child, transcript, results)

    def _result(self, transcript: list[tuple[str, str]]) -> ScriptResult:
        """The result of a script that this shell ran to its end."""
        qor = self.qor() if self.netlist is not None else None
        return ScriptResult(success=True, error=None, transcript=transcript, qor=qor)

    def fork(self) -> "DCShell":
        """An exact, independent copy of this session.

        The copy has its own Tcl variables, output and commands,
        constraints, design registry, pass log and netlist
        (:meth:`Netlist.fork`, which hands out the same next name).  It
        shares the immutable library and wireload, and rebuilds its pass
        context, timing engine and lowering on first use: incremental
        analysis equals a full one, so the copy's results equal the
        original's.
        """
        other = copy.copy(self)
        other.variables = dict(self.variables)
        other.output = list(self.output)
        other.commands = dict(self.commands)
        other.constraints = copy.deepcopy(self.constraints)
        other.design_sources = dict(self.design_sources)
        other.design_tops = dict(self.design_tops)
        other.netlist = None if self.netlist is None else self.netlist.fork()
        other.pass_log = list(self.pass_log)
        other._context_cache = None
        perf.incr("synth.fork")
        return other

    def qor(self) -> QoRSnapshot:
        """Structured QoR for the current design."""
        engine = self._engine()
        return snapshot(self.design_name or "unknown", engine, engine.analyze())

    def timing_report(self) -> str:
        engine = self._engine()
        return render_timing_report(self.design_name or "?", engine.analyze())

    def _pass_context(self) -> PassContext:
        """The session's shared pass context (one engine for everything).

        Every optimization pass and report command runs against this
        context's :class:`TimingEngine`: it tracks the netlist's change
        journal and its own constraint/wireload signature, so pass-to-pass
        handoff and repeated report commands reuse (or incrementally
        update) the previous analysis instead of rebuilding from cold.
        """
        if self.netlist is None:
            raise DCShellError("no design loaded (run read_verilog first)")
        cached = self._context_cache
        if (
            cached is None
            or cached.netlist is not self.netlist
            or cached.library is not self.library
            or cached.wireload is not self.wireload
            or cached.constraints is not self.constraints
        ):
            cached = PassContext(
                self.netlist, self.library, self.wireload, self.constraints
            )
            self._context_cache = cached
        return cached

    def _engine(self) -> TimingEngine:
        return self._pass_context().engine

    # -- option parsing helper -----------------------------------------------------------

    @staticmethod
    def _parse_options(
        args: list[str], value_options: set[str]
    ) -> tuple[dict[str, str], list[str], set[str]]:
        """Split args into ``-opt value`` pairs, flags and positionals."""
        options: dict[str, str] = {}
        flags: set[str] = set()
        positional: list[str] = []
        i = 0
        while i < len(args):
            arg = args[i]
            if arg.startswith("-"):
                name = arg[1:]
                if name in value_options and i + 1 < len(args):
                    options[name] = args[i + 1]
                    i += 2
                else:
                    flags.add(name)
                    i += 1
            else:
                positional.append(arg)
                i += 1
        return options, positional, flags

    # Passes that take the shared engine context (timing-driven ones).
    _CONTEXT_PASSES = frozenset(
        {
            "size_gates", "retime", "buffer_high_fanout", "recover_area",
            "explore_sizing",
        }
    )

    def _optimize(self, name: str, fn, *args, **kwargs):
        """Run one optimizer pass (each times itself as ``pass.<name>``).

        Timing-driven passes receive the session's shared
        :class:`PassContext`, so the whole compile flow drives one
        incremental timing engine instead of a cold STA per pass.
        """
        if name in self._CONTEXT_PASSES:
            kwargs.setdefault("context", self._pass_context())
        return fn(*args, **kwargs)

    # -- commands ------------------------------------------------------------------------

    def _cmd_read_verilog(self, args: list[str]) -> str:
        if not args:
            raise DCShellError("read_verilog: missing design name")
        name = args[0].strip("{}")
        if name not in self.design_sources:
            raise DCShellError(f"read_verilog: unknown design {name!r}")
        top = self.design_tops[name]
        # Late import: cache.py imports DCShell, so the module level would cycle.
        from .cache import elaborate_cached

        self.netlist = elaborate_cached(self.design_sources[name], top)
        self.design_name = name
        self.compiled = False
        self.pass_log = [f"read_verilog {name}"]
        return f"Loaded design {name} ({self.netlist.num_cells} cells)"

    def _cmd_current_design(self, args: list[str]) -> str:
        if not args:
            return self.design_name or ""
        requested = args[0].strip("{}")
        if self.design_name is not None and requested not in (
            self.design_name,
            self.design_tops.get(self.design_name, ""),
        ):
            raise DCShellError(f"current_design: {requested!r} is not loaded")
        return requested

    def _cmd_link(self, args: list[str]) -> str:
        if self.netlist is None:
            raise DCShellError("link: no design loaded")
        self.netlist.validate()
        return "Linked successfully"

    def _cmd_set_wire_load_model(self, args: list[str]) -> str:
        options, positional, _ = self._parse_options(args, {"name"})
        name = options.get("name") or (positional[0] if positional else None)
        if name is None:
            raise DCShellError("set_wire_load_model: -name required")
        self.wireload = get_wireload(name)
        return name

    def _cmd_create_clock(self, args: list[str]) -> str:
        options, positional, _ = self._parse_options(args, {"period", "name"})
        if "period" not in options:
            raise DCShellError("create_clock: -period required")
        self.constraints.clock_period = float(options["period"])
        self.constraints.clock_name = options.get("name", "clk")
        if positional:
            port = positional[0].strip("{}")
            self.constraints.clock_port = port
        return self.constraints.clock_name

    def _cmd_set_clock_uncertainty(self, args: list[str]) -> str:
        if not args:
            raise DCShellError("set_clock_uncertainty: missing value")
        self.constraints.clock_uncertainty = float(args[0])
        return args[0]

    def _cmd_set_input_delay(self, args: list[str]) -> str:
        options, positional, _ = self._parse_options(args, {"clock"})
        if not positional:
            raise DCShellError("set_input_delay: missing delay value")
        value = float(positional[0])
        ports = [p.strip("{}") for p in positional[1:]]
        if not ports or ports == ["[all_inputs]"]:
            self.constraints.input_delay = value
        else:
            for port in ports:
                self.constraints.per_input_delay[port] = value
        return positional[0]

    def _cmd_set_output_delay(self, args: list[str]) -> str:
        options, positional, _ = self._parse_options(args, {"clock"})
        if not positional:
            raise DCShellError("set_output_delay: missing delay value")
        value = float(positional[0])
        ports = [p.strip("{}") for p in positional[1:]]
        if not ports or ports == ["[all_outputs]"]:
            self.constraints.output_delay = value
        else:
            for port in ports:
                self.constraints.per_output_delay[port] = value
        return positional[0]

    def _cmd_set_max_area(self, args: list[str]) -> str:
        if not args:
            raise DCShellError("set_max_area: missing value")
        self.constraints.max_area = float(args[0])
        return args[0]

    def _cmd_set_max_fanout(self, args: list[str]) -> str:
        positional = [a for a in args if not a.startswith("-")]
        if not positional:
            raise DCShellError("set_max_fanout: missing value")
        self.constraints.max_fanout = int(float(positional[0]))
        return positional[0]

    def _cmd_set_flatten(self, args: list[str]) -> str:
        value = args[0].lower() if args else "true"
        self.flatten = value in ("true", "1", "yes")
        return str(self.flatten).lower()

    def _cmd_ungroup(self, args: list[str]) -> str:
        _, _, flags = self._parse_options(args, set())
        if "all" in flags or "flatten" in flags:
            self.flatten = True
        return "1"

    def _require_design(self, command: str) -> Netlist:
        if self.netlist is None:
            raise DCShellError(f"{command}: no design loaded")
        return self.netlist

    def _cmd_compile(self, args: list[str]) -> str:
        netlist = self._require_design("compile")
        options, _, flags = self._parse_options(
            args, {"map_effort", "area_effort", "power_effort"}
        )
        effort = options.get("map_effort", "medium")
        if "incremental" in flags and self.compiled:
            # Incremental compile: keep the mapped netlist and push the
            # timing-driven passes harder than the main flow — a wider
            # sizing candidate scan and a deeper retiming budget find the
            # moves the first invocation's greedy search abandoned.
            with obs.span("synth.compile", incremental=True):
                self._optimize(
                    "size_gates", size_gates,
                    netlist, self.library, self.wireload, self.constraints,
                    max_rounds=60, scan=40,
                )
                self._optimize(
                    "retime", retime,
                    netlist, self.library, self.wireload, self.constraints,
                    max_moves=500,
                )
                if self.constraints.max_fanout:
                    self._optimize(
                        "buffer_high_fanout", buffer_high_fanout,
                        netlist, self.library, self.wireload, self.constraints,
                    )
                self._optimize(
                    "size_gates", size_gates,
                    netlist, self.library, self.wireload, self.constraints,
                    max_rounds=30, scan=40,
                )
                if self.constraints.max_area is not None:
                    self._optimize(
                        "recover_area", recover_area,
                        netlist, self.library, self.wireload, self.constraints,
                    )
                self.pass_log.append("compile -incremental")
                return self._compile_summary()
        with obs.span("synth.compile", effort=effort):
            with obs.span("synth.techmap"):
                map_to_library(netlist, self.library)
                cleanup(netlist, self.library, flatten=self.flatten)
            self.pass_log.append(f"compile -map_effort {effort}")
            if effort == "high":
                self._optimize(
                    "resynthesize_adders", resynthesize_adders, netlist, self.library
                )
                self._optimize("balance_chains", balance_chains, netlist, self.library)
                with obs.span("synth.techmap"):
                    cleanup(netlist, self.library, flatten=self.flatten)
                    map_to_library(netlist, self.library)
                self._optimize(
                    "size_gates", size_gates,
                    netlist, self.library, self.wireload, self.constraints,
                    max_rounds=25,
                )
            if self.constraints.max_fanout:
                self._optimize(
                    "buffer_high_fanout", buffer_high_fanout,
                    netlist, self.library, self.wireload, self.constraints,
                )
            if self.constraints.max_area is not None:
                with obs.span("synth.techmap", complex_gates=True):
                    map_complex_gates(netlist, self.library)
                if effort != "high":
                    self._optimize(
                        "recover_area", recover_area,
                        netlist, self.library, self.wireload, self.constraints,
                    )
            self.compiled = True
            return self._compile_summary()

    def _cmd_compile_ultra(self, args: list[str]) -> str:
        netlist = self._require_design("compile_ultra")
        _, _, flags = self._parse_options(args, set())
        if "no_autoungroup" not in flags:
            self.flatten = True
        with obs.span("synth.compile", ultra=True, retime="retime" in flags):
            with obs.span("synth.techmap"):
                map_to_library(netlist, self.library)
            self._optimize(
                "resynthesize_adders", resynthesize_adders, netlist, self.library
            )
            with obs.span("synth.techmap"):
                cleanup(netlist, self.library, flatten=self.flatten)
            self._optimize("balance_chains", balance_chains, netlist, self.library)
            with obs.span("synth.techmap"):
                cleanup(netlist, self.library, flatten=self.flatten)
                map_to_library(netlist, self.library)
            self.pass_log.append(
                "compile_ultra" + (" -retime" if "retime" in flags else "")
            )
            if "retime" in flags:
                self._optimize(
                    "retime", retime,
                    netlist, self.library, self.wireload, self.constraints,
                )
            self._optimize(
                "size_gates", size_gates,
                netlist, self.library, self.wireload, self.constraints, max_rounds=60,
            )
            self._optimize(
                "buffer_high_fanout", buffer_high_fanout,
                netlist, self.library, self.wireload, self.constraints,
                max_fanout=self.constraints.max_fanout or 24,
            )
            self._optimize(
                "size_gates", size_gates,
                netlist, self.library, self.wireload, self.constraints, max_rounds=30,
            )
            if self.constraints.max_area is not None:
                self._optimize(
                    "recover_area", recover_area,
                    netlist, self.library, self.wireload, self.constraints,
                )
            self.compiled = True
            return self._compile_summary()

    def _cmd_optimize_registers(self, args: list[str]) -> str:
        netlist = self._require_design("optimize_registers")
        result = self._optimize(
            "retime", retime, netlist, self.library, self.wireload, self.constraints
        )
        self.pass_log.append("optimize_registers")
        return (
            f"retiming: {result.changes} moves, "
            f"slack {result.wns_before:.3f} -> {result.wns_after:.3f}"
        )

    def _cmd_balance_buffer(self, args: list[str]) -> str:
        netlist = self._require_design("balance_buffer")
        options, _, _ = self._parse_options(args, {"max_fanout"})
        limit = int(options.get("max_fanout", self.constraints.max_fanout or 12))
        result = self._optimize(
            "buffer_high_fanout", buffer_high_fanout,
            netlist, self.library, self.wireload, self.constraints, max_fanout=limit,
        )
        self.pass_log.append("balance_buffer")
        return f"buffering: {result.changes} buffers inserted"

    def _cmd_explore_sizing(self, args: list[str]) -> str:
        netlist = self._require_design("explore_sizing")
        options, _, _ = self._parse_options(
            args, {"budget", "seed", "chains", "max_gates", "derate"}
        )
        kwargs = {}
        if "budget" in options:
            kwargs["budget"] = int(options["budget"])
        if "seed" in options:
            kwargs["seed"] = int(options["seed"])
        if "chains" in options:
            kwargs["chains"] = int(options["chains"])
        if "max_gates" in options:
            kwargs["max_gates"] = int(options["max_gates"])
        if "derate" in options:
            kwargs["derate"] = float(options["derate"])
        result = self._optimize(
            "explore_sizing", explore_sizing,
            netlist, self.library, self.wireload, self.constraints, **kwargs,
        )
        self.pass_log.append("explore_sizing")
        return (
            f"exploration: {result.changes} cells resized, "
            f"slack {result.wns_before:.3f} -> {result.wns_after:.3f}, "
            f"area {result.area_before:.1f} -> {result.area_after:.1f}"
        )

    def _compile_summary(self) -> str:
        engine = self._engine()
        report = engine.analyze(with_paths=False)
        return (
            f"Optimization complete: area={round(engine.total_area(), 2):.1f} "
            f"wns={report.wns:.3f} tns={report.tns:.3f}"
        )

    def _cmd_report_timing(self, args: list[str]) -> str:
        self._require_design("report_timing")
        return self.timing_report()

    def _cmd_report_area(self, args: list[str]) -> str:
        self._require_design("report_area")
        return render_area_report(self.design_name or "?", self._engine())

    def _cmd_report_qor(self, args: list[str]) -> str:
        self._require_design("report_qor")
        return render_qor_report(self.qor())

    def _cmd_report_power(self, args: list[str]) -> str:
        self._require_design("report_power")
        from .power import PowerAnalyzer

        analyzer = PowerAnalyzer(
            self.netlist, self.library, self.wireload, self.constraints
        )
        return analyzer.analyze().render(self.design_name or "?")

    def _cmd_write(self, args: list[str]) -> str:
        """``write -format verilog``: emit the gate-level netlist."""
        self._require_design("write")
        options, _, _ = self._parse_options(args, {"format", "output"})
        fmt = options.get("format", "verilog")
        if fmt != "verilog":
            raise DCShellError(f"write: unsupported format {fmt!r}")
        from ..hdl.writer import write_verilog

        self.last_written = write_verilog(self.netlist, self.design_name)
        return f"wrote {len(self.last_written)} bytes of structural verilog"

    #: Tcl command name -> function of ``(shell, args)``, dispatched with the shell.
    SHELL_COMMANDS = {
        "read_verilog": _cmd_read_verilog,
        "current_design": _cmd_current_design,
        "link": _cmd_link,
        "set_wire_load_model": _cmd_set_wire_load_model,
        "create_clock": _cmd_create_clock,
        "set_clock_uncertainty": _cmd_set_clock_uncertainty,
        "set_input_delay": _cmd_set_input_delay,
        "set_output_delay": _cmd_set_output_delay,
        "set_max_area": _cmd_set_max_area,
        "set_max_fanout": _cmd_set_max_fanout,
        "set_flatten": _cmd_set_flatten,
        "ungroup": _cmd_ungroup,
        "compile": _cmd_compile,
        "compile_ultra": _cmd_compile_ultra,
        "optimize_registers": _cmd_optimize_registers,
        "balance_buffer": _cmd_balance_buffer,
        "explore_sizing": _cmd_explore_sizing,
        "report_timing": _cmd_report_timing,
        "report_area": _cmd_report_area,
        "report_qor": _cmd_report_qor,
        "report_power": _cmd_report_power,
        "write": _cmd_write,
        "all_inputs": lambda shell, args: "[all_inputs]",
        "all_outputs": lambda shell, args: "[all_outputs]",
        "get_ports": lambda shell, args: args[0] if args else "",
    }


class _Node:
    """A logical Tcl line in a batch's prefix tree (the root: no line yet)."""

    __slots__ = ("children", "ends")

    def __init__(self, ends: list[int] | None = None) -> None:
        #: Next line -> node, in the order the scripts first reach it.
        self.children: dict[str, _Node] = {}
        #: Input positions of the scripts whose last line this is.
        self.ends: list[int] = ends if ends is not None else []

    def scripts(self) -> list[int]:
        """Input positions of every script through this node."""
        found = list(self.ends)
        stack = list(self.children.values())
        while stack:
            node = stack.pop()
            found.extend(node.ends)
            stack.extend(node.children.values())
        return found
