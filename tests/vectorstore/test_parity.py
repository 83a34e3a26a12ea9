"""FlatIndex contract: error handling and the batched paths."""

import numpy as np
import pytest

from repro.vectorstore import FlatIndex

ALL_INDEX_TYPES = [FlatIndex]


def _corpus(seed: int, n: int, dim: int, clusters: int = 6) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=6.0, size=(clusters, dim))
    per = int(np.ceil(n / clusters))
    rows = np.vstack(
        [c + rng.normal(scale=0.5, size=(per, dim)) for c in centers]
    )
    return rows[:n]


class TestErrorParity:
    @pytest.mark.parametrize("index_type", ALL_INDEX_TYPES)
    def test_duplicate_key(self, index_type):
        idx = index_type(dim=3)
        idx.add("k", [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="duplicate"):
            idx.add("k", [4.0, 5.0, 6.0])
        assert len(idx) == 1

    @pytest.mark.parametrize("index_type", ALL_INDEX_TYPES)
    def test_add_dim_mismatch(self, index_type):
        idx = index_type(dim=3)
        with pytest.raises(ValueError, match="dim"):
            idx.add("k", [1.0, 2.0])
        assert len(idx) == 0

    @pytest.mark.parametrize("index_type", ALL_INDEX_TYPES)
    def test_search_dim_mismatch(self, index_type):
        idx = index_type(dim=3)
        idx.add("k", [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="dim"):
            idx.search([1.0, 2.0])

    @pytest.mark.parametrize("index_type", ALL_INDEX_TYPES)
    def test_unknown_metric(self, index_type):
        with pytest.raises(ValueError, match="metric"):
            index_type(dim=3, metric="manhattan")

    @pytest.mark.parametrize("index_type", ALL_INDEX_TYPES)
    def test_empty_search_returns_empty(self, index_type):
        assert index_type(dim=3).search([1.0, 2.0, 3.0]) == []

    @pytest.mark.parametrize("index_type", ALL_INDEX_TYPES)
    def test_contains_protocol(self, index_type):
        idx = index_type(dim=2)
        idx.add("present", [1.0, 0.0])
        assert "present" in idx
        assert "absent" not in idx


class TestBatchParity:
    @pytest.mark.parametrize("index_type", ALL_INDEX_TYPES)
    def test_add_batch_then_search(self, index_type):
        data = _corpus(3, n=60, dim=6)
        idx = index_type(dim=6)
        idx.add_batch([f"v{i}" for i in range(len(data))], data)
        assert len(idx) == len(data)
        hits = idx.search(data[7], k=3)
        assert hits and hits[0].key == "v7"

    @pytest.mark.parametrize("index_type", ALL_INDEX_TYPES)
    def test_search_batch_shape(self, index_type):
        data = _corpus(4, n=40, dim=5)
        idx = index_type(dim=5)
        idx.add_batch(range(len(data)), data)
        out = idx.search_batch(data[:6], k=4)
        assert len(out) == 6
        assert all(len(row) == 4 for row in out)
        assert out[2][0].key == 2

