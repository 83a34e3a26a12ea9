"""The three retrieval modes of SynthRAG (paper Table I).

=====================  =================  ==============================
Representation         Query method       Retrieval content
=====================  =================  ==============================
Graph embedding        join (kNN+rerank)  compile & optimization strategy
Graph structure        direct (Cypher)    module code / gate cell info
LLM (text) embedding   kNN + LLM rerank   command usage & requirements
=====================  =================  ==============================

Every kNN is an exact :class:`~repro.vectorstore.FlatIndex` search,
and a single query is a batch of one row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..designs.database import ExpertDatabase, STRATEGIES
from ..graphdb import GraphStore, execute
from ..llm.base import LLMClient
from ..synth.library import TechLibrary
from ..textembed import HashingEmbedder
from ..vectorstore import FlatIndex, SearchResult
from .manual import ManualEntry, manual_corpus
from .rerank import LLMReranker, domain_rerank

__all__ = [
    "StrategyHit",
    "EmbeddingRetriever",
    "StructureRetriever",
    "ManualRetriever",
    "load_library_graph",
]


@dataclass(frozen=True)
class StrategyHit:
    """One strategy recommendation from embedding retrieval."""

    design: str
    strategy: str
    similarity: float
    characteristics: dict[str, float]

    @property
    def commands(self) -> tuple[str, ...]:
        return STRATEGIES[self.strategy].commands

    @property
    def description(self) -> str:
        return STRATEGIES[self.strategy].description


class EmbeddingRetriever:
    """Graph-embedding retrieval over the expert database (+ Eq. 5 rerank).

    ``rerank_overfetch`` is how many times ``k`` candidates the kNN stage
    fetches before the domain rerank reorders them; without reranking
    there is nothing to reorder, so exactly ``k`` are fetched.
    """

    def __init__(
        self,
        database: ExpertDatabase,
        alpha: float = 0.7,
        beta: float = 0.3,
        characteristic: str = "cps",
        rerank_overfetch: int = 2,
    ) -> None:
        if characteristic not in ("cps", "area", "leakage"):
            raise ValueError(f"unknown characteristic {characteristic!r}")
        if rerank_overfetch < 1:
            raise ValueError("rerank_overfetch must be >= 1")
        self.database = database
        self.alpha = alpha
        self.beta = beta
        self.characteristic = characteristic
        self.rerank_overfetch = rerank_overfetch

    def _metric(self, entry) -> float:
        return self._metric_for(entry, self.characteristic)

    @staticmethod
    def _metric_for(entry, characteristic: str) -> float:
        value = entry.characteristics()[characteristic]
        # For area/leakage smaller is better; cps larger is better.
        return value if characteristic == "cps" else -value

    def _fetch_k(self, k: int, rerank: bool) -> int:
        return k * self.rerank_overfetch if rerank else k

    def retrieve_designs(
        self, query_embedding: np.ndarray, k: int = 3, rerank: bool = True
    ) -> list[SearchResult]:
        hits = self.database.design_index.search(
            query_embedding, k=self._fetch_k(k, rerank)
        )
        if rerank:
            hits = domain_rerank(hits, self._metric, self.alpha, self.beta)
        return hits[:k]

    def retrieve_designs_batch(
        self,
        query_embeddings: np.ndarray,
        k: int = 3,
        rerank: bool = True,
        characteristics: list[str] | None = None,
    ) -> list[list[SearchResult]]:
        """Batched :meth:`retrieve_designs`: one stacked kNN for all queries.

        ``characteristics`` optionally overrides the rerank characteristic
        per query — the serving engine coalesces sessions with different
        requirement objectives into one batch, so the Eq. 5 rerank must
        not depend on this (shared) retriever's mutable attribute.
        """
        query_embeddings = np.atleast_2d(np.asarray(query_embeddings, dtype=np.float64))
        if characteristics is not None and len(characteristics) != query_embeddings.shape[0]:
            raise ValueError("characteristics length must match query count")
        rows = self.database.search_designs(
            query_embeddings, k=self._fetch_k(k, rerank)
        )
        out: list[list[SearchResult]] = []
        for row, hits in enumerate(rows):
            if rerank:
                characteristic = (
                    characteristics[row] if characteristics else self.characteristic
                )
                hits = domain_rerank(
                    hits,
                    lambda entry: self._metric_for(entry, characteristic),
                    self.alpha,
                    self.beta,
                )
            out.append(hits[:k])
        return out

    def retrieve_modules(
        self, query_embedding: np.ndarray, k: int = 3, rerank: bool = True
    ) -> list[SearchResult]:
        hits = self.database.module_index.search(
            query_embedding, k=self._fetch_k(k, rerank)
        )
        if rerank:
            hits = domain_rerank(hits, self._metric, self.alpha, self.beta)
        return hits[:k]

    def retrieve_strategies(
        self, query_embedding: np.ndarray, k: int = 3
    ) -> list[StrategyHit]:
        """Top strategies from the k most similar database designs."""
        hits = self.retrieve_designs(query_embedding, k=k)
        return [self._strategy_hit(hit) for hit in hits]

    def retrieve_strategies_batch(
        self,
        query_embeddings: np.ndarray,
        k: int = 3,
        characteristics: list[str] | None = None,
    ) -> list[list[StrategyHit]]:
        """Batched :meth:`retrieve_strategies` over stacked design queries."""
        rows = self.retrieve_designs_batch(
            query_embeddings, k=k, characteristics=characteristics
        )
        return [[self._strategy_hit(hit) for hit in hits] for hits in rows]

    @staticmethod
    def _strategy_hit(hit: SearchResult) -> StrategyHit:
        entry = hit.payload
        return StrategyHit(
            design=entry.design.name,
            strategy=entry.best_strategy,
            similarity=hit.score,
            characteristics=entry.characteristics(),
        )


def load_library_graph(library: TechLibrary, store: GraphStore | None = None) -> GraphStore:
    """Load the target library into a property graph (paper Table I row 3).

    Creates ``(:Library)-[:PROVIDES]->(:LibCell)`` with full electrical
    properties so Cypher queries can fetch gate cell information without
    feeding the whole library through the LLM.
    """
    store = store or GraphStore()
    lib_node = store.create_node(["Library"], name=library.name)
    for cell in library.cells():
        cell_node = store.create_node(
            ["LibCell"],
            name=cell.name,
            function=cell.function,
            drive=cell.drive,
            area=cell.area,
            input_cap=cell.input_cap,
            drive_res=cell.drive_res,
            intrinsic=cell.intrinsic,
            leakage=cell.leakage,
            sequential=cell.is_sequential,
        )
        store.create_rel(lib_node.node_id, "PROVIDES", cell_node.node_id)
    return store


class StructureRetriever:
    """Graph-structure retrieval: direct Cypher over circuit + library graphs.

    Queries may be handed in verbatim or generated by the LLM from a
    (target, kind) request — matching the paper's "Cypher queries, which
    can be generated by LLMs".
    """

    def __init__(
        self,
        circuit_store: GraphStore,
        library_store: GraphStore,
        llm: LLMClient | None = None,
    ) -> None:
        self.circuit_store = circuit_store
        self.library_store = library_store
        self.llm = llm

    def query(self, cypher: str, target: str = "circuit") -> list[dict[str, Any]]:
        store = self.circuit_store if target == "circuit" else self.library_store
        return execute(store, cypher)

    def module_code(self, module_name: str) -> str | None:
        """The Verilog source of one module (for path-level LLM analysis)."""
        cypher = self._llm_cypher(module_name, "module") if self.llm else (
            f"MATCH (m:Module {{name: '{module_name}'}}) RETURN m.name, m.code, m.category"
        )
        rows = execute(self.circuit_store, cypher)
        if not rows:
            return None
        row = rows[0]
        for key, value in row.items():
            if key.endswith(".code"):
                return value
        return None

    def cell_info(self, cell_name: str) -> dict[str, Any] | None:
        cypher = self._llm_cypher(cell_name, "cell") if self.llm else (
            f"MATCH (c:LibCell {{name: '{cell_name}'}}) "
            "RETURN c.name, c.area, c.drive_res"
        )
        rows = execute(self.library_store, cypher)
        return rows[0] if rows else None

    def _llm_cypher(self, target: str, kind: str) -> str:
        from ..llm.prompts import build_prompt

        completion = self.llm.complete(
            build_prompt({"TASK": "GENERATE CYPHER", "TARGET": target, "KIND": kind})
        )
        return completion.text.strip()


@dataclass
class ManualHit:
    """One retrieved manual page."""

    command: str
    text: str
    score: float


class ManualRetriever:
    """Text-embedding retrieval over the tool manual with LLM reranking."""

    def __init__(
        self,
        entries: list[ManualEntry] | None = None,
        embedder: HashingEmbedder | None = None,
        reranker: LLMReranker | None = None,
    ) -> None:
        self.entries = entries if entries is not None else manual_corpus()
        corpus_texts = [e.text for e in self.entries]
        self.embedder = embedder or HashingEmbedder(dim=256).fit_idf(corpus_texts)
        self.reranker = reranker
        self.index = FlatIndex(self.embedder.dim, metric="cosine")
        for entry in self.entries:
            self.index.add(entry.command, self.embedder.embed(entry.text), payload=entry)

    def retrieve(self, query: str, k: int = 3, rerank: bool = True) -> list[ManualHit]:
        # Over-fetch only when an LLM rerank will actually reorder the hits.
        rerank = rerank and self.reranker is not None
        hits = self.index.search(self.embedder.embed(query), k=k * 2 if rerank else k)
        return self._finalize(query, hits, k, rerank)

    def retrieve_batch(
        self, queries: list[str], k: int = 3, rerank: bool = True
    ) -> list[list[ManualHit]]:
        """Batched :meth:`retrieve`: one stacked index search for all queries.

        The embedding lookups run as a single ``search_batch`` kernel
        call; the per-query LLM rerank then reorders each row
        independently, so row ``i`` matches ``retrieve(queries[i])``.
        """
        if not queries:
            return []
        rerank = rerank and self.reranker is not None
        stacked = np.stack([self.embedder.embed(query) for query in queries])
        hits_rows = self.index.search_batch(stacked, k=k * 2 if rerank else k)
        return [
            self._finalize(query, hits, k, rerank)
            for query, hits in zip(queries, hits_rows)
        ]

    def _finalize(
        self, query: str, hits: list[SearchResult], k: int, rerank: bool
    ) -> list[ManualHit]:
        """Shared tail of single and batched retrieval: rerank + truncate."""
        if rerank:
            ordered_ids = self.reranker.rerank(
                query, [(h.key, h.payload.text) for h in hits], k=k
            )
            by_id = {h.key: h for h in hits}
            hits = [by_id[i] for i in ordered_ids if i in by_id]
        return [
            ManualHit(command=h.key, text=h.payload.text, score=h.score)
            for h in hits[:k]
        ]

    def lookup(self, command: str) -> ManualEntry | None:
        for entry in self.entries:
            if entry.command == command:
                return entry
        return None
