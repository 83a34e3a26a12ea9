"""Expert database construction."""

import numpy as np
import pytest

from repro import perf
from repro.designs.chipyard import generate_family_variant
from repro.designs.database import STRATEGIES, ExpertDatabase
from repro.hdl import parser
from repro.mentor import CircuitEncoder, build_circuit_graph
from repro.synth import DCShell, clear_caches

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
    def test_entry_equals_separately_parsed_runs(self, family, monkeypatch):
        design = generate_family_variant(family, 0)
        clear_caches()
        entry = ExpertDatabase(CircuitEncoder(seed=0)).add_design(
            design, strategies=STRATEGY_NAMES
        )
        # The reference parses the text for the graph and again, uncached,
        # in every shell.
        monkeypatch.setenv("REPRO_SYNTH_CACHE", "0")
        encoder = CircuitEncoder(seed=0)
        circuit = build_circuit_graph(design.verilog, design.name, top=design.top)
        assert np.array_equal(entry.embedding, encoder.embed_design(circuit))
        modules = encoder.embed_modules(circuit)
        assert list(entry.module_embeddings) == list(modules)
        for name, embedding in modules.items():
            assert np.array_equal(entry.module_embeddings[name], embedding)

        def run(strategy: str, period: float):
            shell = DCShell()
            shell.add_design(design.name, design.verilog, top=design.top)
            return shell.run_script(STRATEGIES[strategy].script(design.name, period))

        probe = run("baseline_compile", 10.0)
        assert entry.clock_period == round((10.0 - probe.qor.cps) * 0.85, 3)
        for strategy in STRATEGY_NAMES:
            assert entry.qor[strategy] == run(strategy, entry.clock_period).qor
