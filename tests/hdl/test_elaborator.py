"""Elaborator tests: functional correctness proven by gate-level simulation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdl import ElaborationError, elaborate
from repro.hdl.sim import Simulator, evaluate_combinational

from ..synth.scalar_reference import netlist_stats


def eval_comb(src, top, inputs, outputs):
    """Elaborate, drive word-level inputs, return word-level outputs."""
    nl = elaborate(src, top)
    nl.validate()
    sim = Simulator(nl)
    for name, (value, width) in inputs.items():
        sim.set_word(name, value, width)
    sim.settle()
    return {name: sim.get_word(name, width) for name, width in outputs.items()}


COMB_TEMPLATE = """
module m(input [{w}:0] a, input [{w}:0] b, output [{ow}:0] y);
  assign y = {expr};
endmodule
"""


def comb_result(expr, a, b, w=7, ow=7):
    src = COMB_TEMPLATE.format(w=w, ow=ow, expr=expr)
    out = eval_comb(src, "m", {"a": (a, w + 1), "b": (b, w + 1)}, {"y": ow + 1})
    return out["y"]


class TestCombinationalOperators:
    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=25, deadline=None)
    def test_add(self, a, b):
        assert comb_result("a + b", a, b) == (a + b) & 0xFF

    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=25, deadline=None)
    def test_sub(self, a, b):
        assert comb_result("a - b", a, b) == (a - b) & 0xFF

    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=15, deadline=None)
    def test_mul(self, a, b):
        assert comb_result("a * b", a, b, ow=15) == (a * b) & 0xFFFF

    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=25, deadline=None)
    def test_bitwise(self, a, b):
        assert comb_result("a & b", a, b) == a & b
        assert comb_result("a | b", a, b) == a | b
        assert comb_result("a ^ b", a, b) == a ^ b

    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=25, deadline=None)
    def test_comparisons(self, a, b):
        assert comb_result("a < b", a, b, ow=0) == int(a < b)
        assert comb_result("a >= b", a, b, ow=0) == int(a >= b)
        assert comb_result("a == b", a, b, ow=0) == int(a == b)
        assert comb_result("a != b", a, b, ow=0) == int(a != b)

    @given(st.integers(0, 255))
    @settings(max_examples=25, deadline=None)
    def test_reductions(self, a):
        assert comb_result("&a", a, 0, ow=0) == int(a == 255)
        assert comb_result("|a", a, 0, ow=0) == int(a != 0)
        assert comb_result("^a", a, 0, ow=0) == bin(a).count("1") % 2

    @given(st.integers(0, 255), st.integers(0, 7))
    @settings(max_examples=25, deadline=None)
    def test_variable_shifts(self, a, s):
        assert comb_result("a << b", a, s) == (a << s) & 0xFF
        assert comb_result("a >> b", a, s) == a >> s

    def test_constant_shift_is_free_rewiring(self):
        nl = elaborate(
            "module m(input [7:0] a, output [7:0] y); assign y = a << 2; endmodule",
            "m",
        )
        # No MUX gates needed for a constant shift.
        assert netlist_stats(nl)["gate_counts"].get("MUX2", 0) == 0

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 1))
    @settings(max_examples=25, deadline=None)
    def test_ternary(self, a, b, s):
        src = """
        module m(input s, input [7:0] a, input [7:0] b, output [7:0] y);
          assign y = s ? a : b;
        endmodule
        """
        out = eval_comb(src, "m", {"s": (s, 1), "a": (a, 8), "b": (b, 8)}, {"y": 8})
        assert out["y"] == (a if s else b)

    def test_concat_and_replication(self):
        src = """
        module m(input [3:0] a, output [7:0] y, output [5:0] z);
          assign y = {a, 4'b1001};
          assign z = {3{2'b10}};
        endmodule
        """
        out = eval_comb(src, "m", {"a": (0xA, 4)}, {"y": 8, "z": 6})
        assert out["y"] == 0xA9
        assert out["z"] == 0b101010

    def test_division_by_power_of_two(self):
        assert comb_result("a / 4", 100, 0) == 25
        assert comb_result("a % 8", 100, 0) == 4

    def test_division_by_non_power_raises(self):
        with pytest.raises(ElaborationError):
            comb_result("a / 3", 9, 0)

    def test_logical_and_or(self):
        assert comb_result("a && b", 5, 0, ow=0) == 0
        assert comb_result("a && b", 5, 7, ow=0) == 1
        assert comb_result("a || b", 0, 0, ow=0) == 0


class TestSelects:
    def test_bit_select_read(self):
        src = "module m(input [7:0] a, output y); assign y = a[5]; endmodule"
        out = eval_comb(src, "m", {"a": (0b00100000, 8)}, {"y": 1})
        assert out["y"] == 1

    def test_range_select_read(self):
        src = "module m(input [7:0] a, output [3:0] y); assign y = a[6:3]; endmodule"
        out = eval_comb(src, "m", {"a": (0b01011000, 8)}, {"y": 4})
        assert out["y"] == 0b1011

    def test_dynamic_bit_select(self):
        src = "module m(input [7:0] a, input [2:0] i, output y); assign y = a[i]; endmodule"
        for i in range(8):
            out = eval_comb(src, "m", {"a": (1 << i, 8), "i": (i, 3)}, {"y": 1})
            assert out["y"] == 1

    def test_lvalue_range_select(self):
        src = """
        module m(input [3:0] a, output [7:0] y);
          assign y[3:0] = a;
          assign y[7:4] = ~a;
        endmodule
        """
        out = eval_comb(src, "m", {"a": (0x5, 4)}, {"y": 8})
        assert out["y"] == 0xA5


class TestAlwaysBlocks:
    def test_dff_register(self):
        src = """
        module m(input clk, input [3:0] d, output reg [3:0] q);
          always @(posedge clk) q <= d;
        endmodule
        """
        nl = elaborate(src, "m")
        nl.validate()
        sim = Simulator(nl)
        sim.set_word("d", 9, 4)
        sim.settle()
        assert sim.get_word("q", 4) == 0  # not clocked yet
        sim.step()
        assert sim.get_word("q", 4) == 9

    def test_enable_register_holds_value(self):
        src = """
        module m(input clk, input en, input [3:0] d, output reg [3:0] q);
          always @(posedge clk) if (en) q <= d;
        endmodule
        """
        nl = elaborate(src, "m")
        sim = Simulator(nl)
        sim.set_word("d", 7, 4)
        sim.set_word("en", 1, 1)
        sim.step()
        assert sim.get_word("q", 4) == 7
        sim.set_word("d", 3, 4)
        sim.set_word("en", 0, 1)
        sim.step()
        assert sim.get_word("q", 4) == 7  # held

    def test_sync_reset_pattern(self):
        src = """
        module m(input clk, input rst, input [3:0] d, output reg [3:0] q);
          always @(posedge clk) begin
            if (rst) q <= 4'd0;
            else q <= d;
          end
        endmodule
        """
        nl = elaborate(src, "m")
        sim = Simulator(nl)
        sim.set_word("d", 5, 4)
        sim.set_word("rst", 0, 1)
        sim.step()
        assert sim.get_word("q", 4) == 5
        sim.set_word("rst", 1, 1)
        sim.step()
        assert sim.get_word("q", 4) == 0

    def test_nonblocking_reads_old_value(self):
        """s2 <= s1 must capture s1's pre-edge value (pipeline semantics)."""
        src = """
        module m(input clk, input [3:0] a, output reg [3:0] s2);
          reg [3:0] s1;
          always @(posedge clk) begin
            s1 <= a;
            s2 <= s1;
          end
        endmodule
        """
        nl = elaborate(src, "m")
        assert netlist_stats(nl)["sequential"] == 8  # both stages kept
        sim = Simulator(nl)
        sim.set_word("a", 9, 4)
        sim.step()
        assert sim.get_word("s2", 4) == 0  # not yet through stage 2
        sim.step()
        assert sim.get_word("s2", 4) == 9

    def test_blocking_then_nonblocking_mix(self):
        src = """
        module m(input clk, input [3:0] a, output reg [3:0] q);
          reg [3:0] t;
          always @(posedge clk) begin
            t = a + 4'd1;
            q <= t;
          end
        endmodule
        """
        sim = Simulator(elaborate(src, "m"))
        sim.set_word("a", 4, 4)
        sim.step()
        assert sim.get_word("q", 4) == 5  # blocking value visible same edge

    def test_counter_accumulates(self):
        src = """
        module m(input clk, output reg [7:0] cnt);
          always @(posedge clk) cnt <= cnt + 8'd1;
        endmodule
        """
        sim = Simulator(elaborate(src, "m"))
        for _ in range(5):
            sim.step()
        assert sim.get_word("cnt", 8) == 5

    def test_combinational_always_with_case(self):
        src = """
        module m(input [1:0] s, input [3:0] a, b, c, output reg [3:0] y);
          always @(*) begin
            case (s)
              2'd0: y = a;
              2'd1: y = b;
              default: y = c;
            endcase
          end
        endmodule
        """
        for s, expect in [(0, 1), (1, 2), (2, 3), (3, 3)]:
            out = eval_comb(
                src, "m",
                {"s": (s, 2), "a": (1, 4), "b": (2, 4), "c": (3, 4)},
                {"y": 4},
            )
            assert out["y"] == expect

    def test_blocking_assignment_sequencing(self):
        src = """
        module m(input [3:0] a, output reg [3:0] y);
          reg [3:0] t;
          always @(*) begin
            t = a + 4'd1;
            y = t + 4'd1;
          end
        endmodule
        """
        out = eval_comb(src, "m", {"a": (3, 4)}, {"y": 4})
        assert out["y"] == 5

    def test_case_priority_earlier_item_wins(self):
        src = """
        module m(input [1:0] s, output reg y);
          always @(*) begin
            case (s)
              2'd1: y = 1'b1;
              default: y = 1'b0;
            endcase
          end
        endmodule
        """
        assert eval_comb(src, "m", {"s": (1, 2)}, {"y": 1})["y"] == 1
        assert eval_comb(src, "m", {"s": (2, 2)}, {"y": 1})["y"] == 0


class TestArrays:
    def test_register_file_write_read(self):
        src = """
        module rf(input clk, input we, input [1:0] wa, input [7:0] wd,
                  input [1:0] ra, output [7:0] rd);
          reg [7:0] mem [0:3];
          assign rd = mem[ra];
          always @(posedge clk) if (we) mem[wa] <= wd;
        endmodule
        """
        sim = Simulator(elaborate(src, "rf"))
        for addr, data in [(0, 11), (1, 22), (3, 44)]:
            sim.set_word("we", 1, 1)
            sim.set_word("wa", addr, 2)
            sim.set_word("wd", data, 8)
            sim.step()
        sim.set_word("we", 0, 1)
        for addr, data in [(0, 11), (1, 22), (3, 44)]:
            sim.set_word("ra", addr, 2)
            sim.settle()
            assert sim.get_word("rd", 8) == data

    def test_oversized_array_rejected(self):
        src = """
        module big(); reg [63:0] mem [0:65535]; endmodule
        """
        with pytest.raises(ElaborationError, match="too large"):
            elaborate(src, "big")


class TestHierarchy:
    def test_parameterised_instance(self):
        src = """
        module add #(parameter W = 4)(input [W-1:0] a, b, output [W-1:0] s);
          assign s = a + b;
        endmodule
        module top(input [7:0] x, y, output [7:0] z);
          add #(.W(8)) u (.a(x), .b(y), .s(z));
        endmodule
        """
        out = eval_comb(src, "top", {"x": (200, 8), "y": (100, 8)}, {"z": 8})
        assert out["z"] == (300) & 0xFF

    def test_positional_connections(self):
        src = """
        module inv(input a, output y); assign y = ~a; endmodule
        module top(input x, output z); inv u (x, z); endmodule
        """
        assert eval_comb(src, "top", {"x": (1, 1)}, {"z": 1})["z"] == 0

    def test_two_level_hierarchy(self):
        src = """
        module inv(input a, output y); assign y = ~a; endmodule
        module dbl(input a, output y);
          wire m;
          inv u1 (.a(a), .y(m));
          inv u2 (.a(m), .y(y));
        endmodule
        module top(input x, output z); dbl u (.a(x), .y(z)); endmodule
        """
        assert eval_comb(src, "top", {"x": (1, 1)}, {"z": 1})["z"] == 1

    def test_hierarchical_net_names(self):
        src = """
        module inv(input a, output y); assign y = ~a; endmodule
        module top(input x, output z); inv u1 (.a(x), .y(z)); endmodule
        """
        nl = elaborate(src, "top")
        assert any(name.startswith("u1/") for name in nl.nets)

    def test_unknown_module_raises(self):
        src = "module top(); ghost u1 (.a(x)); endmodule"
        with pytest.raises(ElaborationError, match="ghost"):
            elaborate(src, "top")

    def test_unknown_top_raises(self):
        with pytest.raises(ElaborationError):
            elaborate("module m(); endmodule", "nope")

    def test_clog2_parameter(self):
        src = """
        module m #(parameter D = 16, parameter AW = $clog2(D))
                 (input [AW-1:0] a, output [AW-1:0] y);
          assign y = a;
        endmodule
        """
        nl = elaborate(src, "m")
        assert len(nl.primary_inputs) == 4


class TestSimulatorHelpers:
    def test_evaluate_combinational_helper(self):
        src = "module m(input a, b, output y); assign y = a ^ b; endmodule"
        nl = elaborate(src, "m")
        out = evaluate_combinational(nl, {"a": 1, "b": 0})
        assert out["y"] == 1

    def test_set_input_rejects_internal_net(self):
        src = "module m(input a, output y); assign y = ~a; endmodule"
        sim = Simulator(elaborate(src, "m"))
        with pytest.raises(ValueError):
            sim.set_input("y", 1)
