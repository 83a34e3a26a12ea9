"""Vector similarity-search indexes (the FAISS substitute, paper [51]).

:class:`FlatIndex` performs exact nearest-neighbour search;
:class:`HNSWIndex` is a graph-based approximate index for million-scale
corpora.  Both support cosine, inner-product and L2 metrics, store an
arbitrary payload per vector, and sit on one contiguous :class:`~repro.vectorstore.storage.VectorArena`
(memory-mappable ``.npy`` + JSON-sidecar persistence).

The retrieval layers pick their index through :func:`make_index`, gated
by ``REPRO_ANN`` (default **off**): off means exact :class:`FlatIndex` —
bit-identical to the historical behaviour — while ``REPRO_ANN=1`` swaps
in :class:`HNSWIndex`, whose beam candidates are reranked by the exact
metric before anything is returned.
"""

from __future__ import annotations

import os

from .flat import FlatIndex, SearchResult, live_index_stats, topk_order
from .hnsw import HNSWIndex
from .metrics import METRICS, pairwise_scores
from .storage import VectorArena

from .. import perf

__all__ = [
    "FlatIndex",
    "HNSWIndex",
    "VectorArena",
    "SearchResult",
    "METRICS",
    "pairwise_scores",
    "live_index_stats",
    "topk_order",
    "ann_enabled",
    "make_index",
]


def ann_enabled() -> bool:
    """Whether ``REPRO_ANN`` selects the approximate index (default off).

    Off preserves the exact brute-force path bit-for-bit; on trades
    exactness for sub-linear search, with every returned hit still
    scored by the exact metric (ANN only shortlists candidates).
    """
    return os.environ.get("REPRO_ANN", "0").lower() in ("1", "true", "on", "yes")


def make_index(dim: int, metric: str = "cosine", **hnsw_params):
    """The retrieval layers' index factory, honouring ``REPRO_ANN``.

    Returns :class:`FlatIndex` (exact) with the gate off, else
    :class:`HNSWIndex`; ``hnsw_params`` (``M``/``ef_construction``/
    ``ef_search``/``seed``/``dtype``) apply only to the ANN index.
    """
    if ann_enabled():
        return HNSWIndex(dim, metric=metric, **hnsw_params)
    return FlatIndex(dim, metric=metric)


# Surface aggregate live-index size and ANN search-effort counters in
# perf snapshots — and, through the perf bridge, as vectorstore gauges
# on the metrics endpoint.
perf.register_stats_provider("vectorstore", live_index_stats)
