"""Single-graph GraphSAGE forward and backward (test oracle).

One graph at a time: a dense mean adjacency built with a Python edge
loop, one ``adj @ H`` and two weight products per layer, mean pooling,
and the hand-derived backward that consumes the activations its forward
cached.  The batched engine (:mod:`repro.gnn.batch`) must agree with it
bit for bit: same expressions, same operand order, and parameter
gradients accumulated graph by graph in the batch's slot order
(:func:`slot_order`) from zeroed gradients.

The oracle reads and updates a :class:`repro.gnn.GraphSAGE`'s own
parameters and gradient accumulators; :class:`ReferenceModel` and
:class:`ReferenceLayer` only hold the activation caches between a
forward and its backward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray) -> np.ndarray:
    return (x > 0).astype(np.float64)


def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def tanh_grad(x: np.ndarray) -> np.ndarray:
    return 1.0 - np.tanh(x) ** 2


def linear(x: np.ndarray) -> np.ndarray:
    return x


def linear_grad(x: np.ndarray) -> np.ndarray:
    return np.ones_like(x)


ACTIVATIONS = {
    "relu": (relu, relu_grad),
    "tanh": (tanh, tanh_grad),
    "linear": (linear, linear_grad),
}


def mean_adjacency(
    num_nodes: int,
    edges: list[tuple[int, int]],
    directed: bool = False,
    self_loops: bool = True,
) -> np.ndarray:
    """Row-normalized (mean-aggregating) dense adjacency matrix.

    Row v averages the features of N(v); with ``self_loops`` a node with no
    neighbours falls back to itself, keeping the propagation well-defined.
    """
    adj = np.zeros((num_nodes, num_nodes), dtype=np.float64)
    for src, dst in edges:
        adj[dst, src] = 1.0
        if not directed:
            adj[src, dst] = 1.0
    if self_loops:
        isolated = adj.sum(axis=1) == 0
        adj[isolated, isolated] = 1.0
    degree = adj.sum(axis=1, keepdims=True)
    degree[degree == 0] = 1.0
    return adj / degree


@dataclass
class LayerCache:
    """Activations one layer needs to run its backward pass.

    ``h_in`` and ``agg`` are the layer inputs (node features and their
    mean-aggregated neighbourhoods), ``pre`` the pre-activation output.
    """

    h_in: np.ndarray
    agg: np.ndarray
    pre: np.ndarray


def forward_reentrant(
    layer, h: np.ndarray, agg: np.ndarray
) -> tuple[np.ndarray, LayerCache]:
    """Forward of a :class:`repro.gnn.SAGELayer` from precomputed aggregation."""
    act, _ = ACTIVATIONS[layer.activation]
    pre = h @ layer.w_self + agg @ layer.w_neigh + layer.bias
    return act(pre), LayerCache(h_in=h, agg=agg, pre=pre)


def backward_reentrant(
    layer, grad_out: np.ndarray, cache: LayerCache
) -> tuple[np.ndarray, np.ndarray]:
    """Accumulate ``layer``'s parameter grads from an explicit cache.

    Returns ``(grad_h, grad_agg)``: the gradient w.r.t. the direct input
    rows and w.r.t. the aggregated rows.
    """
    _, act_grad = ACTIVATIONS[layer.activation]
    grad_pre = grad_out * act_grad(cache.pre)
    layer.grad_w_self += cache.h_in.T @ grad_pre
    layer.grad_w_neigh += cache.agg.T @ grad_pre
    layer.grad_bias += grad_pre.sum(axis=0)
    return grad_pre @ layer.w_self.T, grad_pre @ layer.w_neigh.T


class ReferenceLayer:
    """One layer's forward/backward with a single activation cache.

    ``backward`` consumes the cache: a second ``backward`` (or one without
    a preceding ``forward``) raises ``RuntimeError`` instead of silently
    reusing stale activations.
    """

    def __init__(self, layer) -> None:
        self.layer = layer
        self._cache: LayerCache | None = None
        self._adj: np.ndarray | None = None

    def forward(self, h: np.ndarray, adj_mean: np.ndarray) -> np.ndarray:
        """Propagate node features ``h`` through the layer."""
        out, cache = forward_reentrant(self.layer, h, adj_mean @ h)
        self._cache = cache
        self._adj = adj_mean
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Consume the cached activations; return gradient w.r.t. the input."""
        if self._cache is None:
            raise RuntimeError(
                "ReferenceLayer.backward called without a matching forward "
                "(no activation cache, or it was already consumed by a "
                "previous backward)"
            )
        cache, adj = self._cache, self._adj
        self._cache = None
        self._adj = None
        grad_h, grad_agg = backward_reentrant(self.layer, grad_out, cache)
        grad_h = grad_h + adj.T @ grad_agg
        return grad_h


class ReferenceModel:
    """A :class:`repro.gnn.GraphSAGE` run one graph at a time."""

    def __init__(self, model) -> None:
        self.model = model
        self.layers = [ReferenceLayer(layer) for layer in model.layers]
        self._num_nodes: int | None = None

    def forward_nodes(self, graph) -> np.ndarray:
        """Node-level embeddings for one graph."""
        adj = mean_adjacency(graph.num_nodes, graph.edges)
        h = np.asarray(graph.features, dtype=np.float64)
        for layer in self.layers:
            h = layer.forward(h, adj)
        self._num_nodes = graph.num_nodes
        return h

    def embed_graph(self, graph) -> np.ndarray:
        """Graph-level embedding: mean-pool the node embeddings."""
        return self.forward_nodes(graph).mean(axis=0)

    def backward_graph(self, grad_embedding: np.ndarray) -> None:
        """Backprop a gradient w.r.t. the pooled graph embedding.

        Must follow the ``embed_graph`` call for the same graph (layer
        caches hold that graph's activations and are consumed here).
        """
        if self._num_nodes is None:
            raise RuntimeError("backward_graph called before embed_graph")
        grad_nodes = np.tile(grad_embedding / self._num_nodes, (self._num_nodes, 1))
        for layer in reversed(self.layers):
            grad_nodes = layer.backward(grad_nodes)


def slot_order(graphs) -> list[int]:
    """Caller indices sorted by node count, ties kept in caller order."""
    return sorted(range(len(graphs)), key=lambda i: graphs[i].num_nodes)


def reference_embed(model, graphs) -> np.ndarray:
    """Embeddings of ``graphs`` stacked in caller order, one graph at a time."""
    ref = ReferenceModel(model)
    return np.vstack([ref.embed_graph(graph) for graph in graphs])


def reference_backward(model, graphs, grad_embeddings) -> None:
    """Accumulate every graph's parameter gradients onto ``model``'s.

    ``grad_embeddings`` rows are in caller order; graphs are embedded and
    backpropagated one at a time in :func:`slot_order`, the order the
    batched engine reduces its per-graph gradient stacks in.
    """
    ref = ReferenceModel(model)
    for i in slot_order(graphs):
        ref.embed_graph(graphs[i])
        ref.backward_graph(grad_embeddings[i])
