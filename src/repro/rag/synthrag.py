"""SynthRAG: the multimodal RAG facade (paper §IV-B, Fig. 2, Table I).

Bundles the three retrievers behind one object the Generator and
SynthExpert call:

* ``retrieve_strategies`` — graph-embedding retrieval + domain rerank.
* ``module_code`` / ``cell_info`` / ``cypher`` — graph-structure retrieval.
* ``manual`` — LLM-embedding retrieval over the tool manual + LLM rerank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .. import obs
from ..designs.database import ExpertDatabase
from ..graphdb import GraphStore
from ..llm.base import LLMClient
from ..mentor.circuit_graph import CircuitGraph
from ..mentor.embeddings import CircuitEncoder
from ..synth.library import TechLibrary, nangate45
from .rerank import LLMReranker
from .retrievers import (
    EmbeddingRetriever,
    ManualRetriever,
    StrategyHit,
    StructureRetriever,
    load_library_graph,
)

__all__ = ["SynthRAG", "QUERY_METHODS"]

#: Paper Table I, as data.
QUERY_METHODS = (
    {
        "category": "High Level Information of Circuit Design",
        "representation": "Graph Embedding",
        "query_method": "Join",
        "retrieval_content": "Compile Strategy / Optimization Strategy",
    },
    {
        "category": "Code of Circuit Design",
        "representation": "Graph Structure",
        "query_method": "Direct",
        "retrieval_content": "The code of the module where the path is located",
    },
    {
        "category": "Target Library",
        "representation": "Graph Structure",
        "query_method": "Direct",
        "retrieval_content": "Gate Cell Information",
    },
    {
        "category": "Logic Synthesis Tool User Manual",
        "representation": "LLM Embedding",
        "query_method": "Join",
        "retrieval_content": "Command Usage / Command Requirement",
    },
)


@dataclass
class SynthRAG:
    """The assembled multimodal retrieval stack."""

    database: ExpertDatabase
    encoder: CircuitEncoder
    embedding_retriever: EmbeddingRetriever
    structure_retriever: StructureRetriever
    manual_retriever: ManualRetriever

    @classmethod
    def build(
        cls,
        database: ExpertDatabase,
        circuit: CircuitGraph | None = None,
        library: TechLibrary | None = None,
        llm: LLMClient | None = None,
        alpha: float = 0.7,
        beta: float = 0.3,
        manual_retriever: ManualRetriever | None = None,
    ) -> "SynthRAG":
        """Assemble the retrieval stack over the database and target library.

        ``circuit`` adds one design's property graph for structure
        queries; none of ChatLS's stages runs one, so a
        :class:`~repro.core.ChatLS` builds its one shared stack without.
        ``manual_retriever`` reuses an already fitted manual index.
        """
        library = library or nangate45()
        circuit_store = circuit.store if circuit is not None else GraphStore()
        library_store = load_library_graph(library)
        reranker = LLMReranker(llm) if llm is not None else None
        if manual_retriever is None:
            manual_retriever = ManualRetriever(reranker=reranker)
        return cls(
            database=database,
            encoder=database.encoder,
            embedding_retriever=EmbeddingRetriever(database, alpha=alpha, beta=beta),
            structure_retriever=StructureRetriever(circuit_store, library_store, llm=llm),
            manual_retriever=manual_retriever,
        )

    # -- graph-embedding mode -------------------------------------------------

    def retrieve_strategies(
        self, query_embedding: np.ndarray, k: int = 3
    ) -> list[StrategyHit]:
        with obs.span("rag.embedding", mode="strategies", k=k) as sp:
            hits = self.embedding_retriever.retrieve_strategies(query_embedding, k=k)
            sp.set_attributes(
                hits=len(hits),
                scores=[round(h.similarity, 4) for h in hits],
                strategies=[h.strategy for h in hits],
            )
            return hits

    def similar_designs(self, query_embedding: np.ndarray, k: int = 3):
        with obs.span("rag.embedding", mode="designs", k=k) as sp:
            hits = self.embedding_retriever.retrieve_designs(query_embedding, k=k)
            sp.set_attributes(
                hits=len(hits), scores=[round(h.score, 4) for h in hits]
            )
            return hits

    def similar_modules(self, query_embedding: np.ndarray, k: int = 3):
        with obs.span("rag.embedding", mode="modules", k=k) as sp:
            hits = self.embedding_retriever.retrieve_modules(query_embedding, k=k)
            sp.set_attributes(
                hits=len(hits), scores=[round(h.score, 4) for h in hits]
            )
            return hits

    # -- graph-structure mode --------------------------------------------------

    def module_code(self, module_name: str) -> str | None:
        with obs.span("rag.structure", kind="module_code", target=module_name) as sp:
            code = self.structure_retriever.module_code(module_name)
            sp.set_attribute("found", code is not None)
            return code

    def cell_info(self, cell_name: str) -> dict[str, Any] | None:
        with obs.span("rag.structure", kind="cell_info", target=cell_name) as sp:
            info = self.structure_retriever.cell_info(cell_name)
            sp.set_attribute("found", info is not None)
            return info

    def cypher(self, query: str, target: str = "circuit") -> list[dict[str, Any]]:
        with obs.span("rag.structure", kind="cypher", target=target) as sp:
            rows = self.structure_retriever.query(query, target=target)
            sp.set_attribute("rows", len(rows))
            return rows

    # -- LLM-embedding mode ------------------------------------------------------

    def manual(self, query: str, k: int = 3):
        with obs.span("rag.manual", k=k, query=query[:80]) as sp:
            hits = self.manual_retriever.retrieve(query, k=k)
            sp.set_attributes(
                hits=len(hits),
                commands=[h.command for h in hits],
                scores=[round(h.score, 4) for h in hits],
            )
            return hits

    def manual_batch(self, queries: list[str], k: int = 3):
        """Batched :meth:`manual`: one stacked search for many queries.

        Used when several step queries are in hand at once — a whole CoT
        draft's revision pass, or many sessions' coalesced retrieve stage.
        Row ``i`` matches ``manual(queries[i])`` exactly in hit order.
        """
        with obs.span("rag.manual", k=k, batch=len(queries)) as sp:
            rows = self.manual_retriever.retrieve_batch(queries, k=k)
            sp.set_attributes(
                hits=sum(len(hits) for hits in rows),
                commands=[[h.command for h in hits] for hits in rows],
            )
            return rows

    def retrieve_strategies_batch(
        self,
        query_embeddings: np.ndarray,
        k: int = 3,
        characteristics: list[str] | None = None,
    ) -> list[list[StrategyHit]]:
        """Batched :meth:`retrieve_strategies` over stacked design queries."""
        with obs.span(
            "rag.embedding", mode="strategies", k=k, batch=len(query_embeddings)
        ) as sp:
            rows = self.embedding_retriever.retrieve_strategies_batch(
                query_embeddings, k=k, characteristics=characteristics
            )
            sp.set_attribute("hits", sum(len(hits) for hits in rows))
            return rows

    def command_exists(self, command: str) -> bool:
        """Whether the manual documents the command (hallucination check)."""
        return self.manual_retriever.lookup(command.split()[0]) is not None

    @staticmethod
    def table1() -> tuple[dict, ...]:
        """Paper Table I as structured rows."""
        return QUERY_METHODS
