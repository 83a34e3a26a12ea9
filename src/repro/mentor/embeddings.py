"""Hierarchical GNN embedding pipeline (paper §IV-A, Eq. 3).

Modules are embedded individually by GraphSAGE over their dataflow
graphs; the design embedding is the mean over module embeddings
(z_global = 1/N sum h_i), which degenerates gracefully to the single
module's embedding for flattened designs — exactly the paper's fallback.

Every ``embed_*`` method routes its module graphs through
``GraphSAGE.embed_graphs`` — one batched forward over the whole design
(or, for ``embed_designs``, over every design's modules), behind the
version-keyed embedding cache.  Results are bit-exact with the
single-graph oracle in ``tests/gnn/reference.py``.
"""

from __future__ import annotations

import numpy as np

from ..gnn import GraphSAGE
from .circuit_graph import CircuitGraph
from .features import FEATURE_DIM

__all__ = ["CircuitEncoder"]


class CircuitEncoder:
    """Wraps a GraphSAGE model with circuit-level conveniences."""

    def __init__(
        self,
        embedding_dim: int = 32,
        hidden_dim: int = 48,
        seed: int = 0,
    ) -> None:
        self.model = GraphSAGE(
            in_dim=FEATURE_DIM,
            hidden_dims=(hidden_dim, embedding_dim),
            seed=seed,
        )

    @property
    def embedding_dim(self) -> int:
        return self.model.embedding_dim

    def embed_module(self, circuit: CircuitGraph, module_name: str) -> np.ndarray:
        """L2-normalized embedding of one module's dataflow graph."""
        graph = circuit.module_graphs[module_name]
        return _normalize(self.model.embed_graphs([graph])[0])

    def embed_modules(self, circuit: CircuitGraph) -> dict[str, np.ndarray]:
        """All module embeddings in one batched forward pass."""
        names = list(circuit.module_graphs)
        raw = self.model.embed_graphs([circuit.module_graphs[n] for n in names])
        return {name: _normalize(raw[row]) for row, name in enumerate(names)}

    def embed_design(self, circuit: CircuitGraph) -> np.ndarray:
        """Global design embedding: mean of module embeddings (paper Eq.).

        A design with a single (or flattened) module simply returns that
        module's embedding.
        """
        names = list(circuit.module_graphs)
        raw = self.model.embed_graphs([circuit.module_graphs[n] for n in names])
        return self._pool_design(raw)

    def embed_designs(self, circuits: list[CircuitGraph]) -> list[np.ndarray]:
        """Design embeddings for many circuits in one batched GNN forward.

        All circuits' module graphs go through a single ``embed_graphs``
        call — the coalesced path the serving engine uses when several
        sessions' analyze steps are pending at once — and the rows are
        sliced back per circuit.  Each returned embedding is bit-exact with
        a standalone :meth:`embed_design` call for that circuit.
        """
        graphs = [
            graph for circuit in circuits for graph in circuit.module_graphs.values()
        ]
        raw = self.model.embed_graphs(graphs)
        out: list[np.ndarray] = []
        offset = 0
        for circuit in circuits:
            count = len(circuit.module_graphs)
            out.append(self._pool_design(raw[offset:offset + count]))
            offset += count
        return out

    def _pool_design(self, raw: np.ndarray) -> np.ndarray:
        """Mean-pool raw module rows into one normalized design embedding."""
        embeddings = [_normalize(raw[row]) for row in range(raw.shape[0])]
        if not embeddings:
            return np.zeros(self.embedding_dim)
        return _normalize(np.mean(embeddings, axis=0))


def _normalize(vec: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec
