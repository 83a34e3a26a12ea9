"""Expert database construction."""

import numpy as np
import pytest

from repro import perf
from repro.designs.chipyard import generate_family_variant
from repro.designs.database import STRATEGIES, ExpertDatabase
from repro.hdl import parser
from repro.mentor import CircuitEncoder, analyze_design, build_circuit_graph
from repro.synth import clear_caches, frontend_cache
from tests.solo import run_solo

STRATEGY_NAMES = ["baseline_compile", "ultra_retime", "fanout_buffered"]


class TestParseOnce:
    """``add_design`` parses the RTL once for the graph and every strategy."""

    def test_add_design_parses_once(self, monkeypatch):
        parses = []
        parse = parser._Parser.parse

        def counted(self):
            parses.append(self)
            return parse(self)

        monkeypatch.setattr(parser._Parser, "parse", counted)
        clear_caches()
        perf.reset()
        database = ExpertDatabase(CircuitEncoder(seed=0))
        database.add_design(generate_family_variant("rocket", 0), strategies=STRATEGY_NAMES)
        assert len(parses) == 1
        assert perf.snapshot()["timers"]["hdl.parse"]["calls"] == 1

    @pytest.mark.parametrize("family", ["sha3", "gemmini"])
    def test_entry_equals_separately_parsed_runs(self, family):
        design = generate_family_variant(family, 0)
        clear_caches()
        entry = ExpertDatabase(CircuitEncoder(seed=0)).add_design(
            design, strategies=STRATEGY_NAMES
        )
        # The reference parses the text for the graph and runs every
        # script alone in a fresh shell, from cleared caches.
        clear_caches()
        encoder = CircuitEncoder(seed=0)
        circuit = build_circuit_graph(design.verilog, design.name, top=design.top)
        assert np.array_equal(entry.embedding, encoder.embed_design(circuit))
        modules = encoder.embed_modules(circuit)
        assert list(entry.module_embeddings) == list(modules)
        for name, embedding in modules.items():
            assert np.array_equal(entry.module_embeddings[name], embedding)

        def run(strategy: str, period: float):
            script = STRATEGIES[strategy].script(design.name, period)
            return run_solo(design.name, design.verilog, script, top=design.top)[0]

        probe = run("baseline_compile", 10.0)
        assert entry.clock_period == round((10.0 - probe.qor.cps) * 0.85, 3)
        for strategy in STRATEGY_NAMES:
            assert entry.qor[strategy] == run(strategy, entry.clock_period).qor


def _frontend() -> tuple[int, int]:
    stats = frontend_cache().stats()
    return stats["hits"], stats["misses"]


def _calls(stage: str) -> int:
    return perf.snapshot()["timers"].get(stage, {}).get("calls", 0)


class TestOneSynthesisPath:
    """The probe is one cached synthesis and the strategies one batch, so
    the design is parsed once, elaborated once, and the strategies share
    their ``read_verilog`` … ``create_clock`` prefix."""

    def test_six_strategies_elaborate_once_and_fork(self):
        clear_caches()
        perf.reset()
        forks = perf.counters().get("synth.fork", 0)
        database = ExpertDatabase(CircuitEncoder(seed=0))
        entry = database.add_design(generate_family_variant("rocket", 0))
        assert len(entry.qor) + len(entry.failed) == len(STRATEGIES) == 6
        assert (_calls("hdl.parse"), _calls("hdl.elaborate")) == (1, 1)
        # The probe's read_verilog misses; the batch's one read hits.
        assert _frontend() == (1, 1)
        # Six strategies diverge after their shared prefix: five forks.
        assert perf.counters().get("synth.fork", 0) - forks == 5

    def test_add_design_after_an_analysis_parses_twice(self):
        """The probe takes the analysis's hand-over and reads the parse
        ``add_design`` made; nothing parses the RTL a third time."""
        design = generate_family_variant("sha3", 7)
        clear_caches()
        perf.reset()
        analyze_design(design.verilog, design.name, top=design.top)
        ExpertDatabase(CircuitEncoder(seed=0)).add_design(design)
        assert (_calls("hdl.parse"), _calls("hdl.elaborate")) == (2, 2)
        # Analysis misses, the probe takes its hand-over, the batch misses.
        assert _frontend() == (1, 2)
