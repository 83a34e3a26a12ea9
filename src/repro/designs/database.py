"""The expert design database (paper Table II, §V intro).

Open-source designs are synthesized under several compile/optimization
strategies; the scripts, QoR results and CircuitMentor embeddings are
stored so SynthRAG can retrieve "designs like this one, and what worked
for them".  Design and module embeddings live in exact
:class:`~repro.vectorstore.FlatIndex` indexes.  The best-timing script
per design is the *expert draft* the paper describes converting to
Design Compiler format.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..hdl.parser import parse_source
from ..mentor.circuit_graph import build_circuit_graph
from ..mentor.embeddings import CircuitEncoder
from ..synth.cache import synthesize_batch, synthesize_cached
from ..synth.reports import QoRSnapshot
from ..vectorstore import FlatIndex
from .chipyard import SoCDesign, generate_corpus

__all__ = ["Strategy", "STRATEGIES", "DatabaseEntry", "ExpertDatabase", "build_default_database"]


@dataclass(frozen=True)
class Strategy:
    """One named synthesis strategy (a script template)."""

    name: str
    description: str
    commands: tuple[str, ...]
    targets: tuple[str, ...]  # pathologies / categories it addresses

    def script(self, design: str, period: float, wireload: str = "5K_heavy_1k") -> str:
        lines = [
            f"read_verilog {design}",
            f"current_design {design}",
            "link",
            f"set_wire_load_model -name {wireload}",
            f"create_clock -period {period} clk",
            *self.commands,
        ]
        return "\n".join(lines)


STRATEGIES: dict[str, Strategy] = {
    strategy.name: strategy
    for strategy in (
        Strategy(
            name="baseline_compile",
            description="Plain medium-effort compile; the reference flow.",
            commands=("compile",),
            targets=(),
        ),
        Strategy(
            name="high_effort",
            description=(
                "High map effort: arithmetic resynthesis, chain balancing "
                "and critical-path sizing. Good default for arithmetic blocks."
            ),
            commands=("compile -map_effort high",),
            targets=("wide_arithmetic", "unbalanced_chains"),
        ),
        Strategy(
            name="ultra_flatten",
            description=(
                "compile_ultra with auto-ungrouping: removes hierarchy "
                "boundaries so optimization crosses module edges. Best for "
                "designs whose critical path spans instances."
            ),
            commands=("ungroup -all -flatten", "compile_ultra"),
            targets=("hierarchy_boundaries", "long_combinational"),
        ),
        Strategy(
            name="ultra_retime",
            description=(
                "compile_ultra -retime plus optimize_registers: moves "
                "registers across logic to balance pipeline stages. The "
                "move for register-imbalanced designs with long stages."
            ),
            commands=("compile_ultra -retime", "optimize_registers"),
            targets=("register_imbalance", "retiming_target"),
        ),
        Strategy(
            name="fanout_buffered",
            description=(
                "Fanout-constrained compile_ultra plus explicit buffer "
                "balancing: splits high-fanout nets with buffer trees. For "
                "control strobes and clock-enable style fanout."
            ),
            commands=("set_max_fanout 16", "compile_ultra", "balance_buffer"),
            targets=("high_fanout",),
        ),
        Strategy(
            name="area_recovery",
            description=(
                "Area-constrained compile: downsize off-critical cells. For "
                "designs that already meet timing comfortably."
            ),
            commands=("set_max_area 0", "compile"),
            targets=("easy_timing", "control"),
        ),
    )
}


@dataclass
class DatabaseEntry:
    """One design's record in the expert database."""

    design: SoCDesign
    embedding: np.ndarray
    module_embeddings: dict[str, np.ndarray]
    category: str
    clock_period: float
    qor: dict[str, QoRSnapshot] = field(default_factory=dict)
    failed: dict[str, str] = field(default_factory=dict)

    @property
    def best_strategy(self) -> str:
        """QoR-best strategy: meet timing at least area, else best slack.

        Among strategies that close timing the cheapest one wins (so the
        heavyweight flows only win where they are actually needed); when
        nothing meets timing the best slack wins.
        """
        if not self.qor:
            raise ValueError(f"no QoR recorded for {self.design.name}")
        met = [s for s, q in self.qor.items() if q.cps >= 0]
        if met:
            return min(met, key=lambda s: self.qor[s].area)
        return max(self.qor, key=lambda s: round(self.qor[s].cps, 4))

    @property
    def expert_script(self) -> str:
        return STRATEGIES[self.best_strategy].script(
            self.design.name, self.clock_period
        )

    def characteristics(self) -> dict[str, float]:
        """Reranking metrics c_i (paper Eq. 5): timing/area/power of best run."""
        best = self.qor[self.best_strategy]
        return {"cps": best.cps, "area": best.area, "leakage": best.leakage_nw}


class ExpertDatabase:
    """Embedding-indexed store of designs + strategies + QoR."""

    def __init__(self, encoder: CircuitEncoder) -> None:
        self.encoder = encoder
        self.entries: dict[str, DatabaseEntry] = {}
        self.design_index = FlatIndex(encoder.embedding_dim, metric="cosine")
        self.module_index = FlatIndex(encoder.embedding_dim, metric="cosine")

    def add_design(
        self,
        design: SoCDesign,
        strategies: list[str] | None = None,
        tighten: float = 0.85,
    ) -> DatabaseEntry:
        """Synthesize ``design`` under each strategy and index the results.

        The clock period is auto-calibrated: a loose compile measures the
        achievable delay and the period is tightened by ``tighten`` so
        strategy choice actually matters for the recorded QoR.

        The RTL is parsed once: the circuit graph, the probe and the
        strategies all read that parse.  The probe runs through
        :func:`synthesize_cached` and the strategies through one
        :func:`synthesize_batch`, so the strategies' shared
        ``read_verilog`` … ``create_clock`` prefix runs once, and the
        design is elaborated at most once (the probe's ``read_verilog``
        stores the netlist that the batch's then copies).
        """
        strategies = strategies or list(STRATEGIES)
        with obs.span("hdl.parse"):
            source = parse_source(design.verilog)
        circuit = build_circuit_graph(source, design.name, top=design.top)
        embedding = self.encoder.embed_design(circuit)
        module_embeddings = self.encoder.embed_modules(circuit)

        probe = synthesize_cached(
            None, design.name, source,
            STRATEGIES["baseline_compile"].script(design.name, period=10.0),
            top=design.top,
        )
        if not probe.success:
            raise RuntimeError(f"probe synthesis failed: {probe.error}")
        period = round((10.0 - probe.qor.cps) * tighten, 3)

        entry = DatabaseEntry(
            design=design,
            embedding=embedding,
            module_embeddings=module_embeddings,
            category=design.category,
            clock_period=period,
        )
        results = synthesize_batch(
            None, design.name, source,
            [STRATEGIES[name].script(design.name, period) for name in strategies],
            top=design.top,
        )
        for strategy_name, result in zip(strategies, results):
            if result.success and result.qor is not None:
                entry.qor[strategy_name] = result.qor
            else:
                entry.failed[strategy_name] = result.error or "unknown"
        self.entries[design.name] = entry
        self.design_index.add(design.name, embedding, payload=entry)
        if module_embeddings:
            # One contiguous block copy instead of a per-module add loop.
            mod_names = list(module_embeddings)
            self.module_index.add_batch(
                [(design.name, mod_name) for mod_name in mod_names],
                np.stack([module_embeddings[name] for name in mod_names]),
                payloads=[entry] * len(mod_names),
            )
        return entry

    # -- multi-query retrieval -------------------------------------------------

    def search_designs(self, query_embeddings: np.ndarray, k: int = 3) -> list[list]:
        """Design-index hits for one or many query embeddings.

        Every query scores in one stacked ``search_batch`` distance
        computation; a single embedding is a batch of one row.
        """
        return self.design_index.search_batch(query_embeddings, k=k)

    def search_modules(self, query_embeddings: np.ndarray, k: int = 3) -> list[list]:
        """Module-index twin of :meth:`search_designs`."""
        return self.module_index.search_batch(query_embeddings, k=k)

    def __len__(self) -> int:
        return len(self.entries)

    def families(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for name, entry in self.entries.items():
            out.setdefault(entry.design.family, []).append(name)
        return out

    def table2(self) -> list[dict]:
        """Paper Table II: category -> components overview."""
        rows: dict[str, set[str]] = {}
        for entry in self.entries.values():
            rows.setdefault(entry.category, set()).add(entry.design.family)
        return [
            {"category": category, "components": sorted(components)}
            for category, components in sorted(rows.items())
        ]


def build_default_database(
    variants_per_family: int = 2,
    strategies: list[str] | None = None,
    encoder: CircuitEncoder | None = None,
) -> ExpertDatabase:
    """Build the standard database over the Table II corpus."""
    encoder = encoder or CircuitEncoder()
    db = ExpertDatabase(encoder)
    for design in generate_corpus(variants_per_family):
        db.add_design(design, strategies=strategies)
    return db
