"""Exact vector similarity search (the FAISS substitute, paper [51]).

:class:`FlatIndex` scores every query against every stored vector: the
design, module and manual corpora hold tens of vectors, where exact
search is both exact and cheap.  It supports cosine, inner-product and
L2 metrics, stores an arbitrary payload per vector, and keeps its
vectors in one contiguous :class:`~repro.vectorstore.storage.VectorArena`.
"""

from __future__ import annotations

from .flat import FlatIndex, SearchResult, live_index_stats, topk_order
from .metrics import METRICS, pairwise_scores
from .storage import VectorArena

from .. import perf

__all__ = [
    "FlatIndex",
    "VectorArena",
    "SearchResult",
    "METRICS",
    "pairwise_scores",
    "live_index_stats",
    "topk_order",
]


# Surface aggregate live-index size and search counts in perf snapshots —
# and, through the perf bridge, as vectorstore gauges on the metrics
# endpoint.
perf.register_stats_provider("vectorstore", live_index_stats)
