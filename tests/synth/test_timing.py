"""Tests for the wireload models and static timing analysis."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdl import elaborate
from repro.hdl.netlist import Netlist
from repro.synth import (
    Constraints,
    TimingEngine,
    get_wireload,
    nangate45,
)
from repro.synth.techmap import map_to_library


def engine_for(netlist, period=1.0, wireload="5K_heavy_1k", **kw):
    constraints = Constraints(clock_period=period, **kw)
    return TimingEngine(netlist, nangate45(), get_wireload(wireload), constraints)


def inverter_chain(n):
    nl = Netlist("chain")
    nl.add_net("in", is_input=True)
    prev = "in"
    for i in range(n):
        out = f"n{i}" if i < n - 1 else "out"
        if i == n - 1:
            nl.add_net(out, is_output=True)
        nl.add_cell("NOT", [prev], out)
        prev = out
    return nl


class TestWireload:
    def test_monotonic_in_fanout(self):
        model = get_wireload("5K_heavy_1k")
        caps = [model.capacitance(f) for f in range(1, 30)]
        assert all(b > a for a, b in zip(caps, caps[1:]))

    def test_zero_fanout(self):
        assert get_wireload("5K_heavy_1k").capacitance(0) == 0.0

    def test_extrapolation_beyond_table(self):
        model = get_wireload("5K_heavy_1k")
        base = model.capacitance(len(model.table))
        assert model.capacitance(len(model.table) + 2) == pytest.approx(
            base + 2 * model.slope
        )

    def test_heavier_model_more_cap(self):
        light = get_wireload("5K_hvratio_1_1")
        heavy = get_wireload("10K_heavy_2k")
        for fanout in (1, 4, 16):
            assert heavy.capacitance(fanout) > light.capacitance(fanout)

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            get_wireload("imaginary")


class TestCombinationalSTA:
    def test_longer_chain_longer_delay(self):
        short = engine_for(inverter_chain(4)).analyze()
        long = engine_for(inverter_chain(12)).analyze()
        assert long.cps < short.cps

    def test_slack_linear_in_period(self):
        nl = inverter_chain(6)
        r1 = engine_for(nl, period=1.0).analyze()
        r2 = engine_for(nl, period=2.0).analyze()
        assert r2.cps - r1.cps == pytest.approx(1.0, abs=1e-9)

    def test_violation_detection(self):
        nl = inverter_chain(40)
        report = engine_for(nl, period=0.1).analyze()
        assert report.wns < 0
        assert report.num_violations >= 1
        assert not report.met

    def test_wns_clamped_at_zero_when_met(self):
        report = engine_for(inverter_chain(2), period=10.0).analyze()
        assert report.wns == 0.0
        assert report.cps > 0

    def test_tns_sums_violations(self):
        nl = Netlist("two_paths")
        nl.add_net("a", is_input=True)
        nl.add_net("y1", is_output=True)
        nl.add_net("y2", is_output=True)
        nl.add_cell("NOT", ["a"], "m1")
        nl.add_cell("NOT", ["m1"], "y1")
        nl.add_cell("NOT", ["a"], "m2")
        nl.add_cell("NOT", ["m2"], "y2")
        report = engine_for(nl, period=0.0).analyze()
        assert report.tns <= report.wns
        assert report.num_violations == 2

    def test_input_delay_shifts_arrival(self):
        nl = inverter_chain(4)
        base = engine_for(nl).analyze()
        shifted = engine_for(nl, input_delay=0.3).analyze()
        assert base.cps - shifted.cps == pytest.approx(0.3, abs=1e-9)

    def test_critical_path_trace(self):
        nl = inverter_chain(5)
        report = engine_for(nl).analyze()
        path = report.critical_path
        assert path is not None
        assert path.startpoint == "in"
        assert path.points[-1].net == "out"
        assert path.arrival == pytest.approx(
            sum(p.incr for p in path.points), abs=1e-9
        )

    @given(st.integers(2, 12))
    @settings(max_examples=10, deadline=None)
    def test_monotone_load_property(self, fanout):
        """Every sink added to ``mid`` loads its driver, so the slack at
        the ``out`` endpoint behind it strictly drops."""
        nl = Netlist("fan")
        nl.add_net("a", is_input=True)
        nl.add_cell("NOT", ["a"], "mid")
        nl.add_net("out", is_output=True)
        nl.add_cell("BUF", ["mid"], "out")
        eng = engine_for(nl)
        slacks = [eng.analyze().endpoint_slacks["out:out"]]
        for i in range(fanout):
            nl.add_cell("BUF", ["mid"], f"x{i}")
            slacks.append(eng.analyze().endpoint_slacks["out:out"])
        assert all(after < before for before, after in zip(slacks, slacks[1:]))


class TestSequentialSTA:
    SRC = """
    module seq(input clk, input [7:0] a, output reg [7:0] q);
      reg [7:0] s;
      always @(posedge clk) begin
        s <= a + 8'd1;
        q <= s * 8'd5;
      end
    endmodule
    """

    def netlist(self):
        nl = elaborate(self.SRC, "seq")
        map_to_library(nl, nangate45())
        return nl

    def test_register_endpoints_counted(self):
        report = engine_for(self.netlist(), period=5.0).analyze()
        # 16 register endpoints + 8 output ports
        assert report.num_endpoints == 24

    def test_clock_net_not_a_data_path(self):
        nl = self.netlist()
        report = engine_for(nl, period=5.0).analyze()
        assert report.critical_path is not None
        assert "clk" not in [p.net for p in report.critical_path.points]

    def test_reg_to_reg_path_timed(self):
        report = engine_for(self.netlist(), period=0.2).analyze()
        assert report.wns < 0
        # the multiplier stage should dominate
        assert report.critical_path.endpoint.startswith(("reg:", "out:"))

    def test_area_and_power_positive(self):
        eng = engine_for(self.netlist())
        assert eng.total_area() > 0
        assert eng.total_leakage() > 0
        assert eng.dynamic_power() > 0

    def test_clock_uncertainty_tightens(self):
        nl = self.netlist()
        loose = engine_for(nl, period=2.0).analyze()
        tight = engine_for(nl, period=2.0, clock_uncertainty=0.2).analyze()
        assert tight.cps == pytest.approx(loose.cps - 0.2, abs=1e-9)

    def test_no_endpoints_design(self):
        nl = Netlist("empty")
        nl.add_net("a", is_input=True)
        report = engine_for(nl).analyze()
        assert report.num_endpoints == 0
        assert report.met
