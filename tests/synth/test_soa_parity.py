"""Parity: SoA STA/power engines == the scalar reference oracle.

The SoA kernels (``repro.synth.soa``) behind :class:`TimingEngine` and
:class:`PowerAnalyzer` promise *exact* agreement with the plain per-cell
walk in :mod:`tests.synth.scalar_reference` — identical WNS/CPS/TNS,
bit-for-bit identical endpoint-slack dictionaries, critical paths and
net activities — on any mapped netlist, including after journal-driven
gate resizes served through the incremental path.  These tests pit the
engines against the oracle on hypothesis-generated random netlists
(combinational DAGs plus register feedback loops) and on real OpenCores
benchmarks.

Structural edits patch the cached lowering instead of re-lowering
(:meth:`SoAStructure.patched`); :class:`TestPatchedLowering` holds every
patched structure to a fresh ``SoAStructure(netlist)``, array for array,
over random add/remove/rewire/resize edit streams and replays of the
``retime`` and ``buffer_high_fanout`` passes.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.designs import benchmark_names, get_benchmark
from repro.hdl import elaborate
from repro.hdl.netlist import _JOURNAL_LIMIT, Netlist, NetlistError
from repro.synth import (
    Constraints,
    PowerAnalyzer,
    TimingEngine,
    buffer_high_fanout,
    get_wireload,
    nangate45,
    retime,
    soa,
)
from repro.synth.passes import PassContext
from repro.synth.soa import SoAStructure
from repro.synth.techmap import map_to_library

from .scalar_reference import reference_power, reference_sta

LIBRARY = nangate45()
WIRELOAD = get_wireload("5K_heavy_1k")

_GATES = ["AND2", "OR2", "XOR2", "NAND2", "NOR2", "XNOR2", "NOT", "BUF", "MUX2"]


@st.composite
def random_mapped_netlist(draw, max_gates=30, num_inputs=5, max_regs=4):
    """A random mapped netlist: comb DAG + registers (with feedback)."""
    netlist = Netlist("rand")
    netlist.add_net("clk", is_input=True, is_clock=True)
    nets = []
    for i in range(num_inputs):
        netlist.add_net(f"in{i}", is_input=True)
        nets.append(f"in{i}")
    num_regs = draw(st.integers(0, max_regs))
    # Register outputs participate in the comb cone below; their D inputs
    # are rewired afterwards to late nets, closing reg->comb->reg loops.
    regs = []
    for r in range(num_regs):
        q = f"q{r}"
        netlist.add_cell("DFF", [draw(st.sampled_from(nets))], q, clock="clk")
        regs.append(netlist.driver_cell(q))
        nets.append(q)
    num_gates = draw(st.integers(3, max_gates))
    for g in range(num_gates):
        gate = draw(st.sampled_from(_GATES))
        arity = {"NOT": 1, "BUF": 1, "MUX2": 3}.get(gate, 2)
        inputs = [draw(st.sampled_from(nets)) for _ in range(arity)]
        out = f"g{g}"
        netlist.add_cell(gate, inputs, out)
        nets.append(out)
    for reg in regs:
        target = draw(st.sampled_from(nets))
        if target != reg.inputs[0]:
            netlist.rewire_input(reg.name, reg.inputs[0], target)
    out_count = draw(st.integers(1, 2))
    for i in range(out_count):
        src = nets[-(i + 1)]
        port = netlist.add_net(f"out{i}", is_output=True)
        netlist.add_cell("BUF", [src], port.name)
    map_to_library(netlist, LIBRARY)
    netlist.validate()
    period = draw(st.sampled_from([0.05, 0.2, 1.0]))
    return netlist, Constraints(clock_period=period)


def _engine(netlist, constraints):
    return TimingEngine(netlist, LIBRARY, WIRELOAD, constraints)


def _reference(netlist, constraints):
    return reference_sta(netlist, LIBRARY, WIRELOAD, constraints)


def _power(netlist, constraints, *args):
    return PowerAnalyzer(netlist, LIBRARY, WIRELOAD, constraints).analyze(*args)


def _reference_power(netlist, constraints, *args):
    return reference_power(netlist, LIBRARY, WIRELOAD, constraints, *args)


def _assert_reports_match(vec, ref):
    assert vec.endpoint_slacks == ref.endpoint_slacks
    assert (vec.wns, vec.cps, vec.tns) == (ref.wns, ref.cps, ref.tns)
    assert (vec.critical_path is None) == (ref.critical_path is None)
    if vec.critical_path is not None:
        assert vec.critical_path.points == ref.critical_path.points
        assert vec.critical_path.slack == ref.critical_path.slack


def _resize(netlist, cell_seed, variant_seed):
    sized = [c for c in netlist.cells.values() if c.lib_cell is not None]
    if not sized:
        return False
    cell = sized[cell_seed % len(sized)]
    variants = LIBRARY.variants(LIBRARY.cell(cell.lib_cell).function)
    others = [v for v in variants if v.name != cell.lib_cell]
    if not others:
        return False
    cell.lib_cell = others[variant_seed % len(others)].name
    return True


@functools.lru_cache(maxsize=None)
def _mapped_benchmark(name):
    bench = get_benchmark(name)
    netlist = elaborate(bench.verilog, bench.top)
    map_to_library(netlist, LIBRARY)
    return netlist, bench.clock_period


class TestRandomNetlistParity:
    @settings(max_examples=30, deadline=None)
    @given(random_mapped_netlist())
    def test_full_sta_matches_scalar(self, case):
        netlist, constraints = case
        vec = _engine(netlist, constraints).full_analyze()
        _assert_reports_match(vec, _reference(netlist, constraints))

    @settings(max_examples=20, deadline=None)
    @given(
        random_mapped_netlist(),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10_000),
                st.integers(min_value=0, max_value=10),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_journal_resizes_match_scalar(self, case, resizes):
        """Resizes flow through the incremental path; parity must hold
        against the from-scratch scalar reference after every batch."""
        netlist, constraints = case
        engine = _engine(netlist, constraints)
        engine.analyze(with_paths=False)
        for cell_seed, variant_seed in resizes:
            _resize(netlist, cell_seed, variant_seed)
            _assert_reports_match(engine.analyze(), _reference(netlist, constraints))

    @settings(max_examples=25, deadline=None)
    @given(
        random_mapped_netlist(),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=2.0),
    )
    def test_power_matches_scalar(self, case, p_in, a_in):
        netlist, constraints = case
        vec = _power(netlist, constraints, p_in, a_in)
        ref = _reference_power(netlist, constraints, p_in, a_in)
        assert vec.net_activities == ref.net_activities
        # Whole-design sums differ only by numpy pairwise- vs sequential-
        # summation ulps, but the report rounds to 3 decimals, so a sum
        # sitting on a rounding boundary may land one step apart.
        for field in ("dynamic_uw", "internal_uw", "leakage_uw", "clock_tree_uw"):
            assert getattr(vec, field) == pytest.approx(
                getattr(ref, field), abs=1.001e-3
            ), field


class TestBenchmarkParity:
    @pytest.mark.parametrize("design", ["dynamic_node", "riscv32i"])
    def test_full_sta_matches_scalar(self, design):
        netlist, period = _mapped_benchmark(design)
        netlist = netlist.clone()
        constraints = Constraints(clock_period=period)
        vec = _engine(netlist, constraints).analyze()
        _assert_reports_match(vec, _reference(netlist, constraints))

    @pytest.mark.parametrize("design", ["dynamic_node", "riscv32i"])
    def test_incremental_resizes_match_scalar(self, design):
        netlist, period = _mapped_benchmark(design)
        netlist = netlist.clone()
        constraints = Constraints(clock_period=period)
        engine = _engine(netlist, constraints)
        engine.analyze(with_paths=False)
        for seed in range(12):
            _resize(netlist, seed * 131, seed)
            _assert_reports_match(engine.analyze(), _reference(netlist, constraints))

    @pytest.mark.parametrize("design", ["dynamic_node", "riscv32i"])
    def test_power_matches_scalar(self, design):
        netlist, period = _mapped_benchmark(design)
        constraints = Constraints(clock_period=period)
        vec = _power(netlist, constraints)
        ref = _reference_power(netlist, constraints)
        assert vec.net_activities == ref.net_activities
        assert (vec.dynamic_uw, vec.internal_uw, vec.leakage_uw, vec.clock_tree_uw) == (
            ref.dynamic_uw,
            ref.internal_uw,
            ref.leakage_uw,
            ref.clock_tree_uw,
        )


class TestVectorMechanics:
    def test_vector_resize_takes_incremental_path(self):
        netlist, period = _mapped_benchmark("dynamic_node")
        netlist = netlist.clone()
        constraints = Constraints(clock_period=period)
        engine = _engine(netlist, constraints)
        engine.analyze(with_paths=False)
        assert _resize(netlist, 7, 1)
        perf.reset()
        engine.analyze(with_paths=False)
        assert perf.counter("sta.incremental") == 1
        assert perf.counter("sta.full") == 0

    def test_structure_cache_shared_across_engines(self):
        from repro.synth import soa

        netlist, period = _mapped_benchmark("dynamic_node")
        netlist = netlist.clone()
        constraints = Constraints(clock_period=period)
        perf.reset()
        _engine(netlist, constraints).analyze(with_paths=False)
        _engine(netlist, constraints).analyze(with_paths=False)
        assert perf.counter("soa.structure_miss") == 1
        assert perf.counter("soa.structure_hit") >= 1
        stats = soa.structure_cache_stats()
        assert stats["entries"] >= 1

    def test_power_fixpoint_early_exit_fires(self):
        """A feed-forward pipeline stabilises after one register sweep; the
        second comb sweep is skipped and the counter records it, without
        changing the result."""
        netlist = Netlist("pipe")
        netlist.add_net("clk", is_input=True, is_clock=True)
        netlist.add_net("in0", is_input=True)
        netlist.add_net("in1", is_input=True)
        netlist.add_cell("DFF", ["in0"], "q", clock="clk")
        out = netlist.add_net("out0", is_output=True)
        netlist.add_cell("AND2", ["q", "in1"], out.name)
        map_to_library(netlist, LIBRARY)
        constraints = Constraints(clock_period=1.0)
        perf.reset()
        report = _power(netlist, constraints)
        assert perf.counter("power.fixpoint_early_exit") == 1
        assert report.net_activities == _reference_power(netlist, constraints).net_activities

    def test_power_feedback_loop_runs_both_iterations(self):
        """reg -> AND -> reg feedback shifts P(q) from 0.5 to 0.25 on the
        second register sweep, so the early exit must not trigger."""
        netlist = Netlist("loop")
        netlist.add_net("clk", is_input=True, is_clock=True)
        netlist.add_net("in0", is_input=True)
        netlist.add_cell("DFF", ["a"], "q", clock="clk")
        netlist.add_cell("AND2", ["q", "in0"], "a")
        out = netlist.add_net("out0", is_output=True)
        netlist.add_cell("BUF", ["a"], out.name)
        map_to_library(netlist, LIBRARY)
        constraints = Constraints(clock_period=1.0)
        perf.reset()
        report = _power(netlist, constraints)
        assert perf.counter("power.fixpoint_early_exit") == 0
        assert report.net_activities == _reference_power(netlist, constraints).net_activities


# -- patched lowering ----------------------------------------------------------


_LEVEL_FIELDS = ("cells", "out", "in_ptr", "in_net")


def _assert_same_structure(got, fresh):
    """Array-for-array equality of two lowerings (power schedule excluded)."""
    for field in SoAStructure.__slots__:
        if field in ("levels", "_power_schedule"):
            continue
        a, b = getattr(got, field), getattr(fresh, field)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field
        else:
            assert a == b, field
    assert len(got.levels) == len(fresh.levels)
    for lvl_got, lvl_fresh in zip(got.levels, fresh.levels):
        for field in _LEVEL_FIELDS:
            a, b = getattr(lvl_got, field), getattr(lvl_fresh, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), field


class _CheckedEngine(TimingEngine):
    """A TimingEngine whose every analyze() is held to fresh oracles."""

    def analyze(self, with_paths=True):
        report = super().analyze(with_paths)
        _assert_same_structure(
            soa.peek_structure(self.netlist), SoAStructure(self.netlist)
        )
        ref = reference_sta(
            self.netlist, self.library, self.wireload, self.constraints,
            with_paths=with_paths,
        )
        _assert_reports_match(report, ref)
        return report


def _checked_context(netlist, constraints):
    engine = _CheckedEngine(netlist, LIBRARY, WIRELOAD, constraints)
    return PassContext(netlist, LIBRARY, WIRELOAD, constraints, engine=engine)


_EDITS = ("buffer", "register", "remove", "readd", "rewire", "clock", "resize")


def _reader_pin(netlist, a, b):
    """A (cell, input net) pair picked by seeds, or None."""
    readers = [c for c in netlist.cells.values() if c.inputs]
    if not readers:
        return None
    cell = readers[a % len(readers)]
    return cell, cell.inputs[b % len(cell.inputs)]


def _apply_edit(netlist, kind, a, b) -> bool:
    """One journaled edit that keeps the logic acyclic; False if none applies."""
    cells = list(netlist.cells.values())
    if kind == "resize":
        return _resize(netlist, a, b)
    if kind in ("buffer", "register"):
        picked = _reader_pin(netlist, a, b)
        if picked is None:
            return False
        cell, net = picked
        branch = netlist.add_net()
        if kind == "buffer":
            new = netlist.add_cell("BUF", [net], branch.name)
            new.lib_cell = LIBRARY.variants("BUF")[b % 2].name
        else:
            new = netlist.add_cell("DFF", [net], branch.name, clock="clk")
            new.lib_cell = LIBRARY.weakest("DFF").name
        netlist.rewire_input(cell.name, net, branch.name)
        return True
    if not cells:
        return False
    if kind == "remove":
        netlist.remove_cell(cells[a % len(cells)].name)
        return True
    if kind == "readd":
        # Re-adding under the same name moves the cell to the dict's end.
        cell = cells[a % len(cells)]
        netlist.remove_cell(cell.name)
        new = netlist.add_cell(
            cell.gate, list(cell.inputs), cell.output, name=cell.name,
            **cell.attrs,
        )
        new.lib_cell = cell.lib_cell
        return True
    if kind == "rewire":
        # Only nets that precede the cell in topological order: no loop.
        order = [c for c in netlist.topological_cells() if c.inputs]
        if not order:
            return False
        pos = a % len(order)
        target = order[pos]
        sources = [
            n for n in netlist.primary_inputs if not netlist.nets[n].is_clock
        ]
        sources += [c.output for c in cells if c.is_sequential]
        sources += [c.output for c in order[:pos]]
        old = target.inputs[b % len(target.inputs)]
        new_net = sources[(a + b) % len(sources)]
        if new_net == old:
            return False
        netlist.rewire_input(target.name, old, new_net)
        return True
    # kind == "clock": move a register to the other clock net and back
    regs = [c for c in cells if c.is_sequential]
    if not regs:
        return False
    if "clk2" not in netlist.nets:
        netlist.add_net("clk2", is_input=True, is_clock=True)
    reg = regs[a % len(regs)]
    target = "clk2" if reg.attrs["clock"] == "clk" else "clk"
    netlist.rewire_clock(reg.name, target)
    return True


class TestPatchedLowering:
    @settings(max_examples=40, deadline=None)
    @given(
        random_mapped_netlist(),
        st.lists(
            st.tuples(
                st.sampled_from(_EDITS),
                st.integers(min_value=0, max_value=10_000),
                st.integers(min_value=0, max_value=10),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_edit_stream_patches_equal_fresh_lowering(self, case, edits):
        """After every analyze(), the patched lowering is the fresh one
        and the report is the scalar oracle's."""
        netlist, constraints = case
        engine = _CheckedEngine(netlist, LIBRARY, WIRELOAD, constraints)
        engine.analyze()
        for kind, a, b in edits:
            _apply_edit(netlist, kind, a, b)
            netlist.validate()
            engine.analyze()
        vec = _power(netlist, constraints)
        assert vec.net_activities == _reference_power(netlist, constraints).net_activities

    @settings(max_examples=25, deadline=None)
    @given(random_mapped_netlist(), st.integers(min_value=2, max_value=4))
    def test_pass_replays_patch_equal_fresh_lowering(self, case, fanout):
        """Real retime and buffer_high_fanout moves, checked at every analyze()."""
        netlist, constraints = case
        ctx = _checked_context(netlist, constraints)
        retime(netlist, LIBRARY, WIRELOAD, constraints, context=ctx)
        buffer_high_fanout(
            netlist, LIBRARY, WIRELOAD, constraints, max_fanout=fanout, context=ctx
        )
        retime(netlist, LIBRARY, WIRELOAD, constraints, context=ctx)

    @pytest.mark.parametrize("design", benchmark_names())
    def test_opencores_edit_streams(self, design):
        netlist, period = _mapped_benchmark(design)
        netlist = netlist.clone()
        constraints = Constraints(clock_period=period)
        engine = _CheckedEngine(netlist, LIBRARY, WIRELOAD, constraints)
        engine.analyze(with_paths=False)
        perf.reset()
        for step in range(2 * len(_EDITS)):
            kind = _EDITS[step % len(_EDITS)]
            _apply_edit(netlist, kind, step * 7919 + 13, step)
            engine.analyze(with_paths=False)
        assert perf.counter("soa.structure_patch") >= len(_EDITS)
        assert perf.counter("soa.structure_miss") == 0

    @pytest.mark.parametrize("design", benchmark_names())
    def test_opencores_pass_replays(self, design):
        netlist, period = _mapped_benchmark(design)
        netlist = netlist.clone()
        constraints = Constraints(clock_period=period * 0.5)
        ctx = _checked_context(netlist, constraints)
        ctx.engine.analyze()
        perf.reset()
        retime(netlist, LIBRARY, WIRELOAD, constraints, max_moves=4, context=ctx)
        buffer_high_fanout(
            netlist, LIBRARY, WIRELOAD, constraints, max_fanout=8, context=ctx
        )
        assert perf.counter("soa.structure_patch") >= 1
        assert perf.counter("soa.structure_miss") == 0

    def test_edit_closing_a_loop_raises(self):
        netlist = Netlist("loop")
        netlist.add_net("a", is_input=True)
        netlist.add_cell("NOT", ["a"], "x", name="g0")
        netlist.add_cell("NOT", ["x"], "y", name="g1")
        out = netlist.add_net("out", is_output=True)
        netlist.add_cell("BUF", ["y"], out.name, name="g2")
        map_to_library(netlist, LIBRARY)
        engine = _engine(netlist, Constraints(clock_period=1.0))
        engine.analyze()
        netlist.rewire_input("g0", "a", "y")  # g0 -> g1 -> g0
        perf.reset()
        with pytest.raises(NetlistError, match="combinational cycle"):
            engine.analyze()
        with pytest.raises(NetlistError, match="combinational cycle"):
            SoAStructure(netlist)

    def test_touch_and_trimmed_journal_lower_in_full(self):
        netlist, period = _mapped_benchmark("dynamic_node")
        netlist = netlist.clone()
        engine = _engine(netlist, Constraints(clock_period=period))
        engine.analyze()
        perf.reset()
        _apply_edit(netlist, "buffer", 3, 1)
        engine.analyze()
        assert perf.counter("soa.structure_patch") == 1
        assert perf.counter("soa.structure_miss") == 0
        netlist.touch()
        engine.analyze()
        assert perf.counter("soa.structure_miss") == 1
        _apply_edit(netlist, "buffer", 5, 0)
        name = next(iter(netlist.cells))
        for _ in range(_JOURNAL_LIMIT + 1):
            netlist._note_resize(name)
        engine.analyze()
        assert perf.counter("soa.structure_miss") == 2
        assert perf.counter("soa.structure_patch") == 1
        _assert_same_structure(soa.peek_structure(netlist), SoAStructure(netlist))
        stats = soa.structure_cache_stats()
        assert stats["patches"] >= 1
