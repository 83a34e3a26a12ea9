"""Tests for the vector indexes: exactness, metrics, growth."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.vectorstore import FlatIndex, pairwise_scores


class TestMetrics:
    def test_cosine_self_similarity(self):
        v = np.array([[1.0, 2.0, 3.0]])
        assert pairwise_scores(v, v, "cosine")[0, 0] == pytest.approx(1.0)

    def test_cosine_orthogonal(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        assert pairwise_scores(a, b, "cosine")[0, 0] == pytest.approx(0.0)

    def test_l2_zero_distance(self):
        v = np.array([[1.0, 2.0]])
        assert pairwise_scores(v, v, "l2")[0, 0] == pytest.approx(0.0)

    def test_l2_matches_numpy(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=(3, 5))
        d = rng.normal(size=(4, 5))
        scores = pairwise_scores(q, d, "l2")
        for i in range(3):
            for j in range(4):
                assert -scores[i, j] == pytest.approx(np.linalg.norm(q[i] - d[j]))

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            pairwise_scores(np.ones((1, 2)), np.ones((1, 2)), "hamming")

    def test_inner_product(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[3.0, 4.0]])
        assert pairwise_scores(a, b, "ip")[0, 0] == pytest.approx(11.0)


class TestFlatIndex:
    def test_basic_search(self):
        idx = FlatIndex(dim=2)
        idx.add("x", [1, 0], payload="east")
        idx.add("y", [0, 1], payload="north")
        results = idx.search([0.9, 0.1], k=1)
        assert results[0].key == "x"
        assert results[0].payload == "east"

    def test_k_larger_than_index(self):
        idx = FlatIndex(dim=2)
        idx.add("a", [1, 0])
        assert len(idx.search([1, 0], k=10)) == 1

    def test_empty_index_search(self):
        assert FlatIndex(dim=3).search([1, 2, 3]) == []

    def test_duplicate_key_rejected(self):
        idx = FlatIndex(dim=2)
        idx.add("a", [1, 0])
        with pytest.raises(ValueError):
            idx.add("a", [0, 1])

    def test_dim_mismatch_rejected(self):
        idx = FlatIndex(dim=3)
        with pytest.raises(ValueError):
            idx.add("a", [1, 2])
        idx.add("b", [1, 2, 3])
        with pytest.raises(ValueError):
            idx.search([1, 2])

    def test_get_vector_round_trip(self):
        idx = FlatIndex(dim=3)
        idx.add("a", [1.5, 2.5, 3.5])
        np.testing.assert_allclose(idx.get_vector("a"), [1.5, 2.5, 3.5])

    def test_results_sorted_by_score(self):
        idx = FlatIndex(dim=2, metric="l2")
        for i in range(10):
            idx.add(i, [float(i), 0.0])
        results = idx.search([3.2, 0.0], k=4)
        assert [r.key for r in results] == [3, 4, 2, 5]
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)

    @given(
        arrays(np.float64, (12, 4), elements=st.floats(-5, 5)),
        arrays(np.float64, (4,), elements=st.floats(-5, 5)),
    )
    @settings(max_examples=20, deadline=None)
    def test_search_matches_brute_force(self, data, query):
        idx = FlatIndex(dim=4, metric="l2")
        for i, row in enumerate(data):
            idx.add(i, row)
        results = idx.search(query, k=3)
        brute = sorted(range(12), key=lambda i: np.linalg.norm(data[i] - query))
        # Scores must agree even if equal-distance keys tie.  The kernel
        # computes sqrt(|q|^2 + |d|^2 - 2 q.d), which loses ~1e-7 to
        # cancellation when the distance is tiny relative to the norms —
        # hence the loose absolute tolerance.
        expect = np.linalg.norm(data[brute[0]] - query)
        assert -results[0].score == pytest.approx(expect, abs=1e-6)


class TestFlatIndexGrowth:
    """Satellite: searches never rebuild; growth is O(log n) doublings."""

    def test_search_after_add_does_not_rebuild(self):
        idx = FlatIndex(dim=3)
        idx.add("a", [1.0, 0.0, 0.0])
        rebuilds = idx.rebuilds
        for _ in range(10):
            idx.search([1.0, 0.0, 0.0], k=1)
        assert idx.rebuilds == rebuilds

    def test_interleaved_add_search_rebuilds_logarithmically(self):
        rng = np.random.default_rng(0)
        idx = FlatIndex(dim=4)
        n = 200
        for i in range(n):
            idx.add(i, rng.normal(size=4))
            idx.search(rng.normal(size=4), k=3)
        # Capacity doubles from 4, so ceil(log2(200/4)) + 1 = 7 growths.
        assert idx.rebuilds <= int(np.ceil(np.log2(n))) + 1
        assert len(idx) == n

    def test_add_batch_grows_once(self):
        rng = np.random.default_rng(1)
        idx = FlatIndex(dim=4)
        idx.add_batch(list(range(100)), rng.normal(size=(100, 4)))
        assert idx.rebuilds == 1
        assert len(idx) == 100

    def test_results_unaffected_by_growth(self):
        rng = np.random.default_rng(2)
        vectors = rng.normal(size=(50, 4))
        grown = FlatIndex(dim=4)
        for i, vec in enumerate(vectors):
            grown.add(i, vec)
            grown.search(vec, k=1)  # interleave searches with growth
        batch = FlatIndex(dim=4)
        batch.add_batch(list(range(50)), vectors)
        query = rng.normal(size=4)
        got = [(r.key, r.score) for r in grown.search(query, k=5)]
        want = [(r.key, r.score) for r in batch.search(query, k=5)]
        assert got == want

    def test_add_batch_rejects_duplicates_and_shape(self):
        idx = FlatIndex(dim=2)
        idx.add("a", [1.0, 0.0])
        with pytest.raises(ValueError):
            idx.add_batch(["b", "a"], np.eye(2))
        with pytest.raises(ValueError):
            idx.add_batch(["b", "b"], np.eye(2))
        with pytest.raises(ValueError):
            idx.add_batch(["b"], np.ones((1, 3)))
        assert len(idx) == 1  # failed batches insert nothing

    def test_search_batch_matches_search(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(40, 6))
        idx = FlatIndex(dim=6, metric="cosine")
        idx.add_batch(list(range(40)), data)
        queries = rng.normal(size=(5, 6))
        batched = idx.search_batch(queries, k=4)
        for query, hits in zip(queries, batched):
            loop = idx.search(query, k=4)
            assert [h.key for h in hits] == [h.key for h in loop]
            for a, b in zip(hits, loop):
                assert a.score == pytest.approx(b.score, rel=1e-12)
