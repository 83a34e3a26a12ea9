"""GraphSAGE encoder producing graph-level embeddings.

The hierarchical usage in CircuitMentor (paper §IV-A) treats each module as
a subgraph: module embeddings are mean-pooled node embeddings of each
module graph, and the design-level embedding is the mean of its module
embeddings (z_global = 1/N * sum h_i), which also covers the
flattened/single-module degenerate case.

Embedding and training run on the batched engine (:mod:`repro.gnn.batch`):
one disjoint-union forward over a list of graphs, with a per-graph,
model-version-keyed embedding cache in front.  ``tests/gnn/reference.py``
keeps the single-graph forward and backward the engine is bit-exact
against.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from .batch import embed_graphs_cached
from .graph import GraphData
from .layers import SAGELayer

__all__ = ["GraphSAGE"]


class GraphSAGE:
    """A stack of :class:`SAGELayer` with mean global pooling.

    Args:
        in_dim: node feature dimensionality.
        hidden_dims: output width of each successive layer; the final entry
            is the embedding dimension.
        activation: nonlinearity for all but the last layer (the last layer
            is linear so embeddings are unbounded before normalization).
        seed: RNG seed for weight init.
    """

    def __init__(
        self,
        in_dim: int,
        hidden_dims: tuple[int, ...] = (32, 32),
        activation: str = "relu",
        seed: int = 0,
    ) -> None:
        if not hidden_dims:
            raise ValueError("need at least one layer")
        rng = np.random.default_rng(seed)
        dims = [in_dim, *hidden_dims]
        self.layers = [
            SAGELayer(
                dims[i],
                dims[i + 1],
                activation=activation if i < len(hidden_dims) - 1 else "linear",
                rng=rng,
            )
            for i in range(len(hidden_dims))
        ]
        self._version = 0

    @property
    def embedding_dim(self) -> int:
        return self.layers[-1].w_self.shape[1]

    @property
    def version(self) -> int:
        """Weight-state version; keys the embedding cache."""
        return self._version

    def bump_version(self) -> None:
        """Mark the weights as changed (invalidates cached embeddings).

        Called automatically by :meth:`load_state_dict` and by optimizers
        constructed with an ``on_step`` hook (as :class:`MetricTrainer`
        does).  Call it manually after mutating ``parameters`` in place.
        """
        self._version += 1

    @property
    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.parameters]

    @property
    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.gradients]

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    def embed_graphs(self, graphs: list[GraphData]) -> np.ndarray:
        """Stack graph embeddings, shape (len(graphs), embedding_dim).

        Runs the batched engine behind the versioned embedding cache.
        """
        if type(graphs) is not list:
            graphs = list(graphs)
        with obs.span("gnn.embed", graphs=len(graphs)):
            return embed_graphs_cached(self, graphs)

    def state_dict(self) -> list[np.ndarray]:
        return [p.copy() for p in self.parameters]

    def load_state_dict(self, state: list[np.ndarray]) -> None:
        for param, saved in zip(self.parameters, state):
            param[:] = saved
        self.bump_version()
