"""Contiguous vector storage behind :class:`~repro.vectorstore.flat.FlatIndex`.

:class:`VectorArena` keeps every vector of an index in one float64
``(capacity, dim)`` block that doubles in capacity when full, so
interleaved add/search streams cost O(1) amortized per add and a search
always scores against one contiguous block — no per-search
``np.vstack``.

Arenas pickle as their trimmed contiguous matrix (protocol-5 pickling
exports the buffer out-of-band), so they ride the process pool's
``SharedRef`` shared-memory transport unchanged.
"""

from __future__ import annotations

import numpy as np

__all__ = ["VectorArena"]


class VectorArena:
    """A growable contiguous float64 ``(capacity, dim)`` vector block.

    Rows are identified by their integer position, in insertion order.
    """

    __slots__ = ("dim", "_data", "_size", "rebuilds")

    def __init__(self, dim: int) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim
        self._data = np.empty((0, dim))
        self._size = 0
        #: Reallocations (capacity growth).
        self.rebuilds = 0

    def __len__(self) -> int:
        return self._size

    @property
    def capacity(self) -> int:
        return self._data.shape[0]

    def view(self) -> np.ndarray:
        """The live rows as one contiguous block (no copy)."""
        return self._data[: self._size]

    def row(self, index: int) -> np.ndarray:
        if not 0 <= index < self._size:
            raise IndexError(f"row {index} out of range (size {self._size})")
        return self._data[index]

    def _grow(self, minimum: int) -> None:
        capacity = max(4, self.capacity)
        while capacity < minimum:
            capacity *= 2
        grown = np.empty((capacity, self.dim))
        grown[: self._size] = self._data[: self._size]
        self._data = grown
        self.rebuilds += 1

    def extend(self, matrix: np.ndarray) -> range:
        """Block-copy ``matrix`` rows in; returns the new positions."""
        matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
        if matrix.ndim != 2 or matrix.shape[1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got rows of shape {matrix.shape}")
        start = self._size
        count = matrix.shape[0]
        if start + count > self.capacity:
            self._grow(start + count)
        self._data[start : start + count] = matrix
        self._size += count
        return range(start, start + count)

    # -- pickling (SharedRef / process-pool transport) ---------------------------

    def __getstate__(self) -> dict:
        return {"dim": self.dim, "data": np.ascontiguousarray(self.view())}

    def __setstate__(self, state: dict) -> None:
        self.dim = state["dim"]
        self._data = state["data"]
        self._size = state["data"].shape[0]
        self.rebuilds = 0
