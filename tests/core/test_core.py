"""Tests for the ChatLS core: requirements, SynthExpert, Generator, facade."""

import pytest

from repro import perf
from repro.core import (
    BaselineRun,
    ChatLS,
    Requirement,
    SynthExpert,
    parse_requirement,
)
from repro.core.chatls import _better_timing, pass_at_k_winner
from repro.designs.chipyard import generate_family_variant
from repro.designs.database import ExpertDatabase
from repro.llm import chatls_core
from repro.mentor import CircuitEncoder, build_circuit_graph
from repro.rag import SynthRAG
from repro.synth.cache import clear_caches
from repro.synth.reports import QoRSnapshot


@pytest.fixture(scope="module")
def tiny_database():
    db = ExpertDatabase(CircuitEncoder(seed=0))
    for family in ("rocket", "sha3"):
        db.add_design(
            generate_family_variant(family, 0),
            strategies=["baseline_compile", "ultra_retime"],
        )
    return db


@pytest.fixture(scope="module")
def rag(tiny_database):
    design = generate_family_variant("rocket", 2)
    circuit = build_circuit_graph(design.verilog, design.name, top=design.top)
    return SynthRAG.build(tiny_database, circuit=circuit, llm=chatls_core())


class TestRequirementParsing:
    def test_timing_requirement(self):
        req = parse_requirement("Fix the negative slack and improve timing")
        assert req.objective == "timing"
        assert req.rerank_characteristic == "cps"

    def test_area_requirement(self):
        req = parse_requirement("make the design smaller, reduce area")
        assert req.objective == "area"
        assert req.rerank_characteristic == "area"

    def test_power_requirement(self):
        req = parse_requirement("cut leakage power")
        assert req.objective == "power"

    def test_default_objective_is_timing(self):
        assert parse_requirement("make it better please").objective == "timing"

    def test_keep_timing_guard(self):
        assert parse_requirement("reduce area").keep_timing
        assert not parse_requirement("reduce area, ignore timing").keep_timing


class TestSynthExpert:
    def refine(self, rag, script):
        expert = SynthExpert(chatls_core(), rag)
        return expert.refine(script)

    def test_valid_script_unchanged_commands(self, rag):
        script = "create_clock -period 1.0 clk\ncompile_ultra -retime\nreport_qor"
        result = self.refine(rag, script)
        assert "compile_ultra -retime" in result.script
        assert "report_qor" in result.script

    def test_hallucinated_retime_repaired(self, rag):
        script = "create_clock -period 1.0 clk\nretime_design -effort high\ncompile"
        result = self.refine(rag, script)
        assert "retime_design" not in result.script
        assert "optimize_registers" in result.script
        assert result.trace.num_repaired >= 1

    def test_hallucinated_fanout_repaired(self, rag):
        script = "optimize_fanout -max 16\ncompile"
        result = self.refine(rag, script)
        assert "optimize_fanout" not in result.script
        assert "balance_buffer" in result.script

    def test_unknown_junk_dropped(self, rag):
        script = "insert_clock_tree -balanced\ncompile"
        result = self.refine(rag, script)
        assert "insert_clock_tree" not in result.script

    def test_invalid_option_sanitized(self, rag):
        script = "compile_ultra -auto_retime\nreport_qor"
        result = self.refine(rag, script)
        assert "-auto_retime" not in result.script
        assert "compile_ultra" in result.script

    def test_compile_restored_if_missing(self, rag):
        script = "create_clock -period 1.0 clk\nreport_qor"
        result = self.refine(rag, script)
        assert any(
            line.split()[0].startswith("compile")
            for line in result.script.splitlines()
        )

    def test_constraints_protected(self, rag):
        script = "create_clock -period 7.7 clk\nset_wire_load_model -name 5K_heavy_1k\ncompile"
        result = self.refine(rag, script)
        assert "create_clock -period 7.7 clk" in result.script
        assert "set_wire_load_model -name 5K_heavy_1k" in result.script

    def test_trace_records_queries(self, rag):
        result = self.refine(rag, "compile_ultra\nreport_qor")
        revised = [s for s in result.trace.steps if s.query]
        assert revised
        assert all(s.retrieved for s in revised)


class TestBetterTiming:
    def snap(self, wns, tns, cps, area):
        return QoRSnapshot(
            design="x", wns=wns, cps=cps, tns=tns, area=area,
            num_violations=0, num_cells=0, num_registers=0,
            max_fanout=0, leakage_nw=0.0, dynamic_uw=0.0,
        )

    def test_wns_dominates(self):
        assert _better_timing(self.snap(-0.1, -1, -0.1, 10), self.snap(-0.2, -0.5, -0.2, 5))

    def test_tns_second(self):
        assert _better_timing(self.snap(-0.1, -1, -0.1, 10), self.snap(-0.1, -2, -0.1, 5))

    def test_area_wins_when_met(self):
        assert _better_timing(self.snap(0, 0, 0.2, 5), self.snap(0, 0, 2.0, 10))

    def test_cps_breaks_equal_area(self):
        assert _better_timing(self.snap(0, 0, 2.0, 10), self.snap(0, 0, 0.2, 10))


class TestPassAtKWinner:
    """The seed-order winner rule of ChatLS's and the baselines' pass@k."""

    @staticmethod
    def run(seed: int, wns: float | None) -> BaselineRun:
        """An executable run at ``wns``, or a failed one (``wns=None``)."""
        qor = None if wns is None else TestBetterTiming().snap(wns, wns, wns, 10.0)
        return BaselineRun(
            script=f"seed {seed}", executable=qor is not None, error=None,
            qor=qor, seed=seed,
        )

    def test_best_executable_run_wins(self):
        runs = [self.run(0, None), self.run(1, -0.3), self.run(2, -0.1), self.run(3, -0.2)]
        assert pass_at_k_winner(runs).seed == 2

    def test_ties_keep_the_earlier_seed(self):
        runs = [self.run(0, -0.3), self.run(1, -0.1), self.run(2, -0.1)]
        assert pass_at_k_winner(runs).seed == 1

    def test_failed_run_wins_only_when_no_run_executes(self):
        failed = [self.run(0, None), self.run(1, None)]
        assert pass_at_k_winner(failed).seed == 0
        assert pass_at_k_winner(failed + [self.run(2, -0.5)]).seed == 2
        # A failed run's QoR, if it has one, never competes.
        failed_with_qor = self.run(0, 0.5)
        failed_with_qor.executable = False
        assert pass_at_k_winner([failed_with_qor, self.run(1, -0.5)]).seed == 1


class TestChatLSFacade:
    DESIGN = """
    module tiny(input clk, input [7:0] a, b, output reg [7:0] y);
      reg [7:0] s;
      always @(posedge clk) begin
        s <= a + b;
        y <= s ^ {s[3:0], s[7:4]};
      end
    endmodule
    """
    SCRIPT = (
        "read_verilog tiny\ncurrent_design tiny\nlink\n"
        "set_wire_load_model -name 5K_heavy_1k\n"
        "create_clock -period 1.2 clk\ncompile\nreport_qor"
    )

    def test_customize_returns_script_and_trace(self, tiny_database):
        chatls = ChatLS(tiny_database)
        result = chatls.customize(
            self.DESIGN, "tiny", self.SCRIPT, "optimize timing", clock_period=1.2
        )
        assert "read_verilog tiny" in result.script
        assert result.analysis.design_name == "tiny"

    def test_customize_and_evaluate_runs_tool(self, tiny_database):
        chatls = ChatLS(tiny_database)
        result = chatls.customize_and_evaluate(
            self.DESIGN, "tiny", self.SCRIPT, "optimize timing", clock_period=1.2
        )
        assert result.executable
        assert result.qor is not None
        assert result.qor.area > 0

    def test_pass_at_k_returns_best(self, tiny_database):
        chatls = ChatLS(tiny_database)
        best = chatls.customize_pass_at_k(
            self.DESIGN, "tiny", self.SCRIPT, "optimize timing",
            k=3, clock_period=1.2,
        )
        single = chatls.customize_and_evaluate(
            self.DESIGN, "tiny", self.SCRIPT, "optimize timing",
            clock_period=1.2, seed=0,
        )
        if best.qor and single.qor:
            assert best.qor.wns >= single.qor.wns - 1e-9

    def test_pass_at_k_analyzes_and_retrieves_once(self, tiny_database):
        """One GNN embedding and one strategy retrieval per design; one
        manual lookup for the requirement, then one per seed's revision."""
        chatls = ChatLS(tiny_database)
        clear_caches()
        names = ("gnn.embed", "rag.embedding", "rag.manual")

        def calls() -> dict[str, int]:
            timers = perf.snapshot()["timers"]
            return {name: timers.get(name, {}).get("calls", 0) for name in names}

        before = calls()
        chatls.customize_pass_at_k(
            self.DESIGN, "tiny", self.SCRIPT, "optimize timing",
            k=5, clock_period=1.2, jobs=1,
        )
        after = calls()
        assert {name: after[name] - before[name] for name in names} == {
            "gnn.embed": 1, "rag.embedding": 1, "rag.manual": 1 + 5,
        }

    def test_requirement_object_accepted(self, tiny_database):
        chatls = ChatLS(tiny_database)
        req = Requirement(text="area please", objective="area")
        result = chatls.customize(
            self.DESIGN, "tiny", self.SCRIPT, req, clock_period=1.2
        )
        assert result.script
