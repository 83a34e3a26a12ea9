"""Exact (brute-force) nearest-neighbour index."""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .metrics import METRICS, pairwise_scores
from .storage import VectorArena

__all__ = ["SearchResult", "FlatIndex", "live_index_stats", "topk_order"]

#: Every live index, tracked weakly so the ``vectorstore`` stats provider
#: (and the metrics endpoint behind it) can report aggregate index size
#: without keeping retired indexes alive.
_LIVE_INDEXES: "weakref.WeakSet" = weakref.WeakSet()


def live_index_stats() -> dict:
    """Aggregate size and search count of every live index (``vectorstore`` provider)."""
    indexes = list(_LIVE_INDEXES)
    return {
        "indexes": len(indexes),
        "vectors": sum(len(ix) for ix in indexes),
        "rebuilds": sum(ix.rebuilds for ix in indexes),
        "searches": sum(ix.searches for ix in indexes),
    }


def topk_order(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest scores, best first."""
    k = min(k, scores.shape[-1])
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    top = np.argpartition(-scores, k - 1)[:k]
    return top[np.argsort(-scores[top])]


@dataclass(frozen=True)
class SearchResult:
    """One nearest-neighbour hit."""

    key: Any
    score: float
    payload: Any


class FlatIndex:
    """Exact nearest-neighbour search over dense float64 vectors.

    Vectors are added with a hashable ``key`` and an optional ``payload``
    (any object — SynthRAG stores strategy records here).  ``search``
    returns the top-k entries by the chosen metric, largest score first.
    ``add`` and ``search`` are ``add_batch`` and ``search_batch`` of one
    row, so single and batched calls share one code path.

    Storage is a :class:`~repro.vectorstore.storage.VectorArena`: one
    preallocated contiguous matrix that doubles in capacity when full,
    so interleaved add/search streams cost O(1) amortized per add — a
    search never reallocates.  ``rebuilds`` counts the capacity growths.
    """

    def __init__(self, dim: int, metric: str = "cosine") -> None:
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}")
        self._arena = VectorArena(dim)
        self.metric = metric
        self._keys: list[Any] = []
        self._payloads: list[Any] = []
        self._key_pos: dict[Any, int] = {}
        #: Queries scored so far (one per row of every ``search_batch``).
        self.searches = 0
        _LIVE_INDEXES.add(self)

    @property
    def dim(self) -> int:
        return self._arena.dim

    @property
    def rebuilds(self) -> int:
        """Matrix reallocations (capacity growths)."""
        return self._arena.rebuilds

    def __len__(self) -> int:
        return len(self._arena)

    def __contains__(self, key: Any) -> bool:
        return key in self._key_pos

    def add(self, key: Any, vector: Sequence[float], payload: Any = None) -> None:
        """Insert one vector; duplicate keys are rejected."""
        self.add_batch([key], np.asarray(vector, dtype=np.float64).reshape(1, -1), [payload])

    def add_batch(
        self,
        keys: Sequence[Any],
        vectors: np.ndarray,
        payloads: Sequence[Any] | None = None,
    ) -> None:
        """Insert many vectors as one contiguous block copy."""
        keys = list(keys)
        if not keys:
            return
        payloads = list(payloads) if payloads is not None else [None] * len(keys)
        if len(payloads) != len(keys):
            raise ValueError("payloads length must match keys")
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        if vectors.shape[0] != len(keys):
            raise ValueError("vectors row count must match keys")
        fresh = set()
        for key in keys:
            if key in self._key_pos or key in fresh:
                raise ValueError(f"duplicate key {key!r}")
            fresh.add(key)
        positions = self._arena.extend(vectors)
        for key, position in zip(keys, positions):
            self._key_pos[key] = position
        self._keys.extend(keys)
        self._payloads.extend(payloads)

    def get_vector(self, key: Any) -> np.ndarray:
        return self._arena.row(self._key_pos[key]).copy()

    def search(self, query: Sequence[float], k: int = 5) -> list[SearchResult]:
        """Top-``k`` entries closest to ``query`` (largest score first)."""
        return self.search_batch(np.asarray(query, dtype=np.float64).reshape(1, -1), k)[0]

    def search_batch(self, queries: np.ndarray, k: int = 5) -> list[list[SearchResult]]:
        """Exact search for every row of ``queries``: one stacked distance computation.

        All queries score against the arena in a single ``(B, n)`` kernel
        call, then each row is ranked independently — the per-query numpy
        dispatch overhead is paid once per batch.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if queries.shape[1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {queries.shape[1]}")
        if not len(self):
            return [[] for _ in range(queries.shape[0])]
        self.searches += queries.shape[0]
        scores = pairwise_scores(queries, self._arena.view(), self.metric)
        out: list[list[SearchResult]] = []
        for row in scores:
            top = topk_order(row, k)
            out.append(
                [
                    SearchResult(
                        key=self._keys[i], score=float(row[i]), payload=self._payloads[i]
                    )
                    for i in top
                ]
            )
        return out
