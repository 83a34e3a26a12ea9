"""Tests for the design analyzer (pathology detection)."""

import pytest

from repro import perf
from repro.core import ChatLS
from repro.designs.chipyard import FAMILIES, generate_family_variant
from repro.designs.database import ExpertDatabase
from repro.designs.generators import gen_imbalanced_pipeline
from repro.designs.opencores import benchmark_names, get_benchmark
from repro.hdl import elaborate, parser
from repro.hdl.parser import parse_source
from repro.mentor import CircuitEncoder, analyze_design
from repro.mentor.circuit_graph import build_circuit_graph
from repro.synth import clear_caches
from repro.synth.cache import frontend_cache
from tests.retention import live_netlists, netlists_since


def _design(name):
    """(verilog, top) of an OpenCores benchmark or a Chipyard family variant."""
    if name in FAMILIES:
        design = generate_family_variant(name, 0)
        return design.verilog, design.top
    bench = get_benchmark(name)
    return bench.verilog, bench.top


class TestPathologyDetection:
    def test_retiming_target_flagged(self):
        src = gen_imbalanced_pipeline("imb", width=8, heavy_ops=2)
        analysis = analyze_design(src, "imb", clock_period=1.0)
        assert "register_imbalance" in analysis.pathologies
        assert analysis.register_stage_imbalance > 0.5

    def test_high_fanout_flagged(self):
        src = """
        module hf(input sel, input [63:0] a, b, output [63:0] y);
          assign y = sel ? a : b;
        endmodule
        """
        analysis = analyze_design(src, "hf", clock_period=2.0)
        assert "high_fanout" in analysis.pathologies
        assert analysis.max_fanout >= 64

    def test_unbalanced_chain_flagged(self):
        src = """
        module chain(input [15:0] a, output y);
          assign y = a[0] ^ a[1] ^ a[2] ^ a[3] ^ a[4] ^ a[5] ^ a[6] ^ a[7]
                   ^ a[8] ^ a[9] ^ a[10] ^ a[11] ^ a[12] ^ a[13] ^ a[14] ^ a[15];
        endmodule
        """
        analysis = analyze_design(src, "chain", clock_period=2.0)
        assert "unbalanced_chains" in analysis.pathologies
        assert analysis.longest_chain >= 8

    def test_balanced_design_clean(self):
        src = "module ok(input a, b, output y); assign y = a & b; endmodule"
        analysis = analyze_design(src, "ok", clock_period=10.0)
        assert "timing_violated" not in analysis.pathologies
        assert "register_imbalance" not in analysis.pathologies
        assert "unbalanced_chains" not in analysis.pathologies

    def test_timing_violation_flag_depends_on_period(self):
        src = gen_imbalanced_pipeline("imb2", width=8, heavy_ops=2)
        tight = analyze_design(src, "imb2", clock_period=0.5)
        loose = analyze_design(src, "imb2", clock_period=50.0)
        assert "timing_violated" in tight.pathologies
        assert "timing_violated" not in loose.pathologies

    def test_wide_arithmetic_flag(self):
        src = """
        module arith(input [15:0] a, b, output [15:0] s, t);
          assign s = a + b;
          assign t = a - b;
        endmodule
        """
        analysis = analyze_design(src, "arith", clock_period=2.0)
        assert "wide_arithmetic" in analysis.pathologies
        assert analysis.tagged_adders >= 2


class TestAnalysisContent:
    def test_benchmark_pathologies_match_design_intent(self):
        bench = get_benchmark("tinyRocket")
        analysis = analyze_design(
            bench.verilog, bench.name, top=bench.top, clock_period=bench.clock_period
        )
        assert "register_imbalance" in analysis.pathologies

    def test_critical_modules_identified(self):
        bench = get_benchmark("aes")
        analysis = analyze_design(
            bench.verilog, bench.name, top=bench.top, clock_period=bench.clock_period
        )
        # aes's critical path runs through the sbox/mix instances.
        assert analysis.critical_modules

    def test_summary_renders_key_fields(self):
        bench = get_benchmark("jpeg")
        analysis = analyze_design(
            bench.verilog, bench.name, top=bench.top, clock_period=bench.clock_period
        )
        text = analysis.summary()
        assert "detected pathologies" in text
        assert "WNS=" in text
        assert analysis.dominant_category in text

    def test_category_mix_counts_modules(self):
        bench = get_benchmark("riscv32i")
        analysis = analyze_design(
            bench.verilog, bench.name, top=bench.top, clock_period=bench.clock_period
        )
        assert sum(analysis.category_mix.values()) == len(
            analysis.circuit.module_graphs
        )

    def test_hierarchy_buffers_counted(self):
        bench = get_benchmark("aes")
        analysis = analyze_design(
            bench.verilog, bench.name, top=bench.top, clock_period=bench.clock_period
        )
        assert analysis.hierarchy_buffers > 0


class TestSharedParse:
    """``analyze_design`` hands one parse to both of its consumers."""

    @pytest.mark.parametrize("name", [*benchmark_names(), *FAMILIES])
    def test_shared_parse_builds_what_separate_parses_build(self, name):
        verilog, top = _design(name)
        shared = parse_source(verilog)
        graph = build_circuit_graph(shared, name, top=top)
        netlist = elaborate(shared, top)
        separate = build_circuit_graph(parse_source(verilog), name, top=top)
        assert graph.profiles == separate.profiles
        assert netlist.fingerprint() == elaborate(parse_source(verilog), top).fingerprint()
        assert shared == parse_source(verilog)  # neither consumer mutated it

    def test_cold_analysis_parses_once(self, monkeypatch):
        parses = []
        parse = parser._Parser.parse

        def counted(self):
            parses.append(self)
            return parse(self)

        monkeypatch.setattr(parser._Parser, "parse", counted)
        clear_caches()
        perf.reset()
        bench = get_benchmark("aes")
        analyze_design(
            bench.verilog, bench.name, top=bench.top, clock_period=bench.clock_period
        )
        assert len(parses) == 1
        assert perf.snapshot()["timers"]["hdl.parse"]["calls"] == 1


@pytest.fixture(scope="module")
def small_chatls():
    """ChatLS over a two-design expert database."""
    db = ExpertDatabase(CircuitEncoder(seed=0))
    for family in ("rocket", "sha3"):
        db.add_design(
            generate_family_variant(family, 0),
            strategies=["baseline_compile", "ultra_retime"],
        )
    return ChatLS(db)


class TestRetention:
    """A finished analysis keeps facts, not the design's netlist; a finished
    customization keeps no netlist at all (its synthesis took the one the
    analysis handed over)."""

    def _analyze(self):
        bench = get_benchmark("dynamic_node")
        return analyze_design(
            bench.verilog, bench.name, top=bench.top, clock_period=bench.clock_period
        )

    def test_only_the_frontend_entry_stays_alive(self):
        """An analysis alone leaves its hand-over entry, unmapped."""
        clear_caches()
        before = live_netlists()
        analysis = self._analyze()
        (kept,) = netlists_since(before)
        stats = frontend_cache().stats()
        assert (stats["entries"], stats["cells"]) == (1, len(kept.cells))
        assert (stats["cells"], stats["misses"]) == (analysis.num_cells, 1)
        assert all(cell.lib_cell is None for cell in kept.cells.values())  # unmapped
        assert not hasattr(analysis, "netlist")

    @pytest.mark.parametrize("mode", ["customize_and_evaluate", "customize_pass_at_k"])
    def test_a_customization_keeps_no_netlist(self, small_chatls, mode):
        design = generate_family_variant("gemmini", 5)
        clear_caches()
        before = live_netlists()
        kwargs = {"k": 2} if mode == "customize_pass_at_k" else {}
        result = getattr(small_chatls, mode)(
            design.verilog, design.name, f"read_verilog {design.name}\ncompile",
            "fix the negative slack and improve timing", top=design.top,
            clock_period=1.2, **kwargs,
        )
        assert result.executable
        assert netlists_since(before) == []
        stats = frontend_cache().stats()
        assert (stats["entries"], stats["hits"], stats["misses"]) == (0, 1, 1)
