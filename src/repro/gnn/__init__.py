"""Numpy GNN framework: GraphSAGE layers, the model, the Adam optimizer.

This is the repository's PyTorch-Geometric substitute: it implements the
paper's Eq. 3 message passing with mean aggregation, hierarchical mean
pooling for graph embeddings, and a hand-derived backward pass so metric
learning (paper §IV-A) can train end to end without autograd.  One
engine runs both, batched over many graphs (:mod:`repro.gnn.batch`);
``tests/gnn/reference.py`` keeps the single-graph path as its oracle.
"""

from .batch import (
    GraphBatch,
    batched_backward,
    batched_forward,
    embedding_cache,
    pack_graphs,
    release_state,
)
from .graph import GraphData
from .layers import SAGELayer
from .model import GraphSAGE
from .optim import Adam

__all__ = [
    "GraphData",
    "SAGELayer",
    "GraphSAGE",
    "GraphBatch",
    "batched_backward",
    "batched_forward",
    "pack_graphs",
    "release_state",
    "embedding_cache",
    "Adam",
]
