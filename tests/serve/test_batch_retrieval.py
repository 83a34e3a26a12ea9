"""Batched retrieval parity: search_batch routing must preserve rankings.

Raw scores out of a stacked GEMM may differ from the scalar path in the
last ulp (shape-dependent BLAS kernels), so the contract asserted here is
the one results actually depend on: identical hit *ordering* (keys) with
scores equal to within 1e-12 relative — plus bit-exact GNN embeddings,
where grouping invariance is exact by construction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import perf
from repro.designs.chipyard import generate_family_variant
from repro.llm import chatls_core
from repro.mentor import build_circuit_graph
from repro.rag.retrievers import EmbeddingRetriever, ManualRetriever
from repro.rag.rerank import LLMReranker
from repro.rag.synthrag import SynthRAG

QUERIES = [
    "fix the negative slack and improve timing",
    "reduce cell area",
    "balance high fanout nets with buffers",
    "retime registers across pipeline stages",
]


def _approx_scores(batch_hits, loop_hits):
    for got, want in zip(batch_hits, loop_hits):
        assert got.score == pytest.approx(want.score, rel=1e-12)


class TestManualRetrieverBatch:
    def test_matches_single_query_loop(self):
        retriever = ManualRetriever()
        batch = retriever.retrieve_batch(QUERIES, k=3)
        for row, query in enumerate(QUERIES):
            single = retriever.retrieve(query, k=3)
            assert [h.command for h in batch[row]] == [h.command for h in single]
            assert [h.text for h in batch[row]] == [h.text for h in single]
            _approx_scores(batch[row], single)

    def test_matches_with_llm_reranker(self):
        retriever = ManualRetriever(reranker=LLMReranker(chatls_core()))
        batch = retriever.retrieve_batch(QUERIES, k=2)
        for row, query in enumerate(QUERIES):
            single = retriever.retrieve(query, k=2)
            assert [h.command for h in batch[row]] == [h.command for h in single]

    def test_empty_and_singleton(self):
        retriever = ManualRetriever()
        assert retriever.retrieve_batch([]) == []
        batch = retriever.retrieve_batch([QUERIES[0]], k=3)
        single = retriever.retrieve(QUERIES[0], k=3)
        assert [h.command for h in batch[0]] == [h.command for h in single]
        # A singleton batch scores the same (1, d) query: scores bit-equal.
        assert [h.score for h in batch[0]] == [h.score for h in single]


class TestEmbeddingRetrieverBatch:
    def test_designs_batch_matches_loop(self, tiny_database):
        retriever = EmbeddingRetriever(tiny_database)
        queries = np.stack(
            [entry.embedding for entry in tiny_database.entries.values()]
        )
        rows = retriever.retrieve_designs_batch(queries, k=2)
        for row in range(queries.shape[0]):
            single = retriever.retrieve_designs(queries[row], k=2)
            assert [h.key for h in rows[row]] == [h.key for h in single]
            _approx_scores(rows[row], single)

    def test_per_query_characteristics(self, tiny_database):
        retriever = EmbeddingRetriever(tiny_database)
        queries = np.stack(
            [entry.embedding for entry in tiny_database.entries.values()]
        )
        characteristics = ["area"] * queries.shape[0]
        rows = retriever.retrieve_designs_batch(
            queries, k=2, characteristics=characteristics
        )
        for row in range(queries.shape[0]):
            retriever.characteristic = "area"
            single = retriever.retrieve_designs(queries[row], k=2)
            retriever.characteristic = "cps"
            assert [h.key for h in rows[row]] == [h.key for h in single]

    def test_characteristics_length_validated(self, tiny_database):
        retriever = EmbeddingRetriever(tiny_database)
        queries = np.stack(
            [entry.embedding for entry in tiny_database.entries.values()]
        )
        with pytest.raises(ValueError, match="characteristics"):
            retriever.retrieve_designs_batch(queries, characteristics=["cps"] * 99)

    def test_strategies_batch_matches_loop(self, tiny_database):
        retriever = EmbeddingRetriever(tiny_database)
        queries = np.stack(
            [entry.embedding for entry in tiny_database.entries.values()]
        )
        rows = retriever.retrieve_strategies_batch(queries, k=2)
        for row in range(queries.shape[0]):
            single = retriever.retrieve_strategies(queries[row], k=2)
            assert [(h.design, h.strategy) for h in rows[row]] == [
                (h.design, h.strategy) for h in single
            ]


class TestSynthRAGBatch:
    def test_manual_batch_matches_manual(self, tiny_database):
        rag = SynthRAG.build(tiny_database, llm=chatls_core())
        rows = rag.manual_batch(QUERIES, k=2)
        for row, query in enumerate(QUERIES):
            single = rag.manual(query, k=2)
            assert [h.command for h in rows[row]] == [h.command for h in single]
            assert [h.text for h in rows[row]] == [h.text for h in single]

    def test_build_shares_manual_retriever(self, tiny_database):
        shared = ManualRetriever()
        rag_a = SynthRAG.build(tiny_database, manual_retriever=shared)
        rag_b = SynthRAG.build(tiny_database, manual_retriever=shared)
        assert rag_a.manual_retriever is shared
        assert rag_b.manual_retriever is shared


def _three_circuits():
    circuits = []
    for family, variant in (("rocket", 7), ("sha3", 8), ("gemmini", 9)):
        design = generate_family_variant(family, variant)
        circuits.append(
            build_circuit_graph(design.verilog, design.name, top=design.top)
        )
    return circuits


class TestGroupedEmbeddings:
    def test_embed_designs_bit_exact_vs_loop(self, tiny_database):
        encoder = tiny_database.encoder
        circuits = _three_circuits()
        grouped = encoder.embed_designs(circuits)
        for index, (circuit, embedding) in enumerate(zip(circuits, grouped)):
            single = encoder.embed_design(circuit)
            assert np.array_equal(embedding, single), f"circuit {index}"

    def test_embed_designs_records_one_gnn_embed_span(self, tiny_database):
        """Serve's coalesced analyze-stage forward is timed untraced, like
        every other GNN embedding."""
        circuits = _three_circuits()
        perf.reset()
        tiny_database.encoder.embed_designs(circuits)
        timer = perf.snapshot()["timers"].get("gnn.embed")
        assert timer is not None and timer["calls"] == 1

    def test_database_search_designs_batch_matches_loop(self, tiny_database):
        queries = np.stack(
            [entry.embedding for entry in tiny_database.entries.values()]
        )
        rows = tiny_database.search_designs(queries, k=2)
        for row in range(queries.shape[0]):
            single = tiny_database.design_index.search(queries[row], k=2)
            assert [h.key for h in rows[row]] == [h.key for h in single]
            _approx_scores(rows[row], single)

    def test_database_search_modules_batch_matches_loop(self, tiny_database):
        entry = next(iter(tiny_database.entries.values()))
        queries = np.stack(list(entry.module_embeddings.values()))
        rows = tiny_database.search_modules(queries, k=2)
        for row in range(queries.shape[0]):
            single = tiny_database.module_index.search(queries[row], k=2)
            assert [h.key for h in rows[row]] == [h.key for h in single]
