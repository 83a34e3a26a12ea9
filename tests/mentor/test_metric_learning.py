"""Tests for the metric-learning losses and trainer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gnn import GraphData
from repro.mentor import CircuitEncoder
from repro.mentor.metric_learning import (
    MetricTrainer,
    _normalization_grad,
    clustering_quality,
    contrastive_loss,
    multi_similarity_loss,
    n_pair_loss,
)

from ..gnn.reference import reference_backward, reference_embed
from .loss_reference import multi_similarity_loss_loop


class TestContrastiveLoss:
    def test_same_pair_zero_at_coincidence(self):
        v = np.array([1.0, 2.0])
        loss, ga, gb = contrastive_loss(v, v, same=True)
        assert loss == 0.0
        np.testing.assert_allclose(ga, 0)

    def test_same_pair_pulls_together(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        loss, ga, gb = contrastive_loss(a, b, same=True)
        assert loss > 0
        # gradient step on a moves it toward b
        a2 = a - 0.1 * ga
        assert np.linalg.norm(a2 - b) < np.linalg.norm(a - b)

    def test_diff_pair_pushes_apart_inside_margin(self):
        a = np.array([0.1, 0.0])
        b = np.array([0.0, 0.1])
        loss, ga, gb = contrastive_loss(a, b, same=False, margin=1.0)
        assert loss > 0
        a2 = a - 0.1 * ga
        assert np.linalg.norm(a2 - b) > np.linalg.norm(a - b)

    def test_diff_pair_no_loss_outside_margin(self):
        a = np.array([10.0, 0.0])
        b = np.array([0.0, 10.0])
        loss, ga, gb = contrastive_loss(a, b, same=False, margin=0.5)
        assert loss == 0.0
        np.testing.assert_allclose(ga, 0)

    @given(st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_gradient_matches_finite_difference(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        same = bool(seed % 2)
        loss, ga, _ = contrastive_loss(a, b, same, margin=2.0)
        eps = 1e-6
        for i in range(4):
            ap = a.copy()
            ap[i] += eps
            up, _, _ = contrastive_loss(ap, b, same, margin=2.0)
            ap[i] -= 2 * eps
            down, _, _ = contrastive_loss(ap, b, same, margin=2.0)
            numeric = (up - down) / (2 * eps)
            assert ga[i] == pytest.approx(numeric, rel=1e-3, abs=1e-6)


class TestMultiSimilarityLoss:
    def test_separable_batch_low_loss(self):
        emb = np.array([[1.0, 0.0], [0.99, 0.01], [0.0, 1.0], [0.01, 0.99]])
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        labels = np.array([0, 0, 1, 1])
        loss_good, _ = multi_similarity_loss(emb, labels)
        loss_bad, _ = multi_similarity_loss(emb, np.array([0, 1, 0, 1]))
        assert loss_good < loss_bad

    def test_gradient_check(self):
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(4, 3))
        labels = np.array([0, 0, 1, 1])
        loss, grad = multi_similarity_loss(emb, labels)
        eps = 1e-6
        for i in (0, 2):
            for j in (0, 1):
                emb[i, j] += eps
                up, _ = multi_similarity_loss(emb, labels)
                emb[i, j] -= 2 * eps
                down, _ = multi_similarity_loss(emb, labels)
                emb[i, j] += eps
                numeric = (up - down) / (2 * eps)
                assert grad[i, j] == pytest.approx(numeric, rel=1e-3, abs=1e-6)


class TestNPairLoss:
    def test_correct_ordering_low_loss(self):
        anchor = np.array([1.0, 0.0])
        positive = np.array([0.98, 0.02])
        negatives = np.array([[0.0, 1.0], [-1.0, 0.0]])
        good, *_ = n_pair_loss(anchor, positive, negatives)
        bad, *_ = n_pair_loss(anchor, negatives[0], np.array([positive, negatives[1]]))
        assert good < bad

    def test_gradient_direction(self):
        anchor = np.array([0.5, 0.5])
        positive = np.array([0.0, 1.0])
        negatives = np.array([[1.0, 0.0]])
        loss, ga, gp, gn = n_pair_loss(anchor, positive, negatives)
        anchor2 = anchor - 0.1 * ga
        loss2, *_ = n_pair_loss(anchor2, positive, negatives)
        assert loss2 < loss


class TestClusteringQuality:
    def test_perfectly_clustered(self):
        emb = np.array([[1, 0], [1, 0.01], [0, 1], [0.01, 1]], dtype=float)
        quality = clustering_quality(emb, np.array([0, 0, 1, 1]))
        assert quality["separated"]
        assert quality["intra_mean"] < quality["inter_mean"]

    def test_anti_clustered(self):
        emb = np.array([[1, 0], [0, 1], [1, 0.01], [0.01, 1]], dtype=float)
        quality = clustering_quality(emb, np.array([0, 0, 1, 1]))
        assert not quality["separated"]


class TestTrainer:
    def make_dataset(self, seed=0):
        """Two families of small graphs with distinct feature signatures."""
        rng = np.random.default_rng(seed)
        graphs, labels = [], []
        from repro.mentor.features import FEATURE_DIM

        for label in (0, 1):
            for _ in range(4):
                base = np.zeros(FEATURE_DIM)
                base[7 if label == 0 else 10] = 2.0  # add-census vs xor-census
                feats = base + rng.normal(scale=0.1, size=(3, FEATURE_DIM))
                graphs.append(GraphData(features=feats, edges=[(0, 1), (1, 2)]))
                labels.append(label)
        return graphs, labels

    def test_training_improves_separation(self):
        graphs, labels = self.make_dataset()
        encoder = CircuitEncoder(embedding_dim=8, seed=1)

        def quality():
            emb = reference_embed(encoder.model, graphs)
            emb /= np.maximum(np.linalg.norm(emb, axis=1, keepdims=True), 1e-12)
            return clustering_quality(emb, np.array(labels))["ratio"]

        before = quality()
        MetricTrainer(encoder, lr=5e-3, seed=0).train(graphs, labels, epochs=30)
        after = quality()
        assert after < before

    def test_multi_similarity_training_runs(self):
        graphs, labels = self.make_dataset(seed=2)
        encoder = CircuitEncoder(embedding_dim=8, seed=2)
        stats = MetricTrainer(encoder, loss="multi_similarity", seed=1).train(
            graphs, labels, epochs=5
        )
        assert len(stats.losses) == 5
        assert all(np.isfinite(l) for l in stats.losses)

    def test_unknown_loss_rejected(self):
        with pytest.raises(ValueError):
            MetricTrainer(CircuitEncoder(), loss="triplet-magic")


class TestVectorizedLossOracle:
    """Vectorized multi-similarity loss must match the O(n^2) reference."""

    @given(st.integers(0, 1000), st.integers(3, 10))
    @settings(max_examples=25, deadline=None)
    def test_matches_loop_reference(self, seed, n):
        rng = np.random.default_rng(seed)
        emb = rng.normal(size=(n, 4))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        labels = rng.integers(0, 3, size=n)
        loss_vec, grad_vec = multi_similarity_loss(emb, labels)
        loss_ref, grad_ref = multi_similarity_loss_loop(emb, labels)
        assert loss_vec == pytest.approx(loss_ref, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(grad_vec, grad_ref, rtol=1e-12, atol=1e-12)

    def test_single_class_batch(self):
        emb = np.random.default_rng(1).normal(size=(4, 3))
        labels = np.zeros(4, dtype=int)
        loss_vec, grad_vec = multi_similarity_loss(emb, labels)
        loss_ref, grad_ref = multi_similarity_loss_loop(emb, labels)
        assert loss_vec == pytest.approx(loss_ref, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(grad_vec, grad_ref, rtol=1e-12, atol=1e-12)

    @given(st.integers(0, 500), st.integers(4, 12))
    @settings(max_examples=15, deadline=None)
    def test_clustering_quality_matches_pairwise_definition(self, seed, n):
        rng = np.random.default_rng(seed)
        emb = rng.normal(size=(n, 3))
        labels = rng.integers(0, 3, size=n)
        got = clustering_quality(emb, labels)
        intra, inter = [], []
        for i in range(n):
            for j in range(i + 1, n):
                dist = float(np.linalg.norm(emb[i] - emb[j]))
                (intra if labels[i] == labels[j] else inter).append(dist)
        if intra and inter:
            assert got["intra_mean"] == pytest.approx(np.mean(intra), rel=1e-12)
            assert got["inter_mean"] == pytest.approx(np.mean(inter), rel=1e-12)


class PerGraphTrainer(MetricTrainer):
    """The trainer's epochs on the single-graph oracle: same RNG draws,
    parameter gradients accumulated graph by graph in the batch's slot
    order, no batching."""

    def _contrastive_epoch(self, graphs, labels, num_pairs) -> float:
        model = self.encoder.model
        total = 0.0
        for _ in range(num_pairs):
            i, j = self._sample_pair(labels)
            model.zero_grad()
            emb_i, emb_j = reference_embed(model, [graphs[i], graphs[j]])
            loss, grad_i, grad_j = contrastive_loss(
                emb_i, emb_j, labels[i] == labels[j], self.margin
            )
            if loss > 0:
                reference_backward(model, [graphs[i], graphs[j]], [grad_i, grad_j])
                self.optimizer.step()
            total += loss
        return total / num_pairs

    def _ms_epoch(self, graphs, labels, batch_size) -> float:
        model = self.encoder.model
        idx = self.rng.choice(len(graphs), size=min(batch_size, len(graphs)), replace=False)
        embeddings = reference_embed(model, [graphs[i] for i in idx])
        norms = np.linalg.norm(embeddings, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        normalized = embeddings / norms
        loss, grad_norm = multi_similarity_loss(normalized, labels[idx])
        grad_emb = _normalization_grad(grad_norm, normalized, norms)
        model.zero_grad()
        # The batched trainer packs the whole corpus when the minibatch
        # covers it, else the minibatch, and accumulates in that batch's
        # slot order.
        if len(idx) == len(graphs):
            grad_all = np.empty_like(grad_emb)
            grad_all[idx] = grad_emb
            reference_backward(model, graphs, grad_all)
        else:
            reference_backward(model, [graphs[i] for i in idx], grad_emb)
        self.optimizer.step()
        return loss


def _mixed_size_dataset(seed=0):
    """Two families of 2-6 node graphs, so slot order differs from input order."""
    from repro.mentor.features import FEATURE_DIM

    rng = np.random.default_rng(seed)
    graphs, labels = [], []
    for label in (0, 1):
        for _ in range(5):
            n = int(rng.integers(2, 7))
            feats = rng.normal(size=(n, FEATURE_DIM))
            feats[:, 7 if label == 0 else 10] += 2.0
            edges = [(k, k + 1) for k in range(n - 1)]
            graphs.append(GraphData(features=feats, edges=edges))
            labels.append(label)
    return graphs, labels


class TestCrossModeDeterminism:
    """Batched training == the per-graph loop: same seed and graphs give
    bit-identical losses, embeddings and weights."""

    def _train(self, trainer_cls, loss, dataset, pairs=32, seed=3):
        graphs, labels = dataset
        encoder = CircuitEncoder(embedding_dim=8, seed=seed)
        stats = trainer_cls(encoder, loss=loss, seed=seed).train(
            graphs, labels, epochs=4, pairs_per_epoch=pairs
        )
        final = reference_embed(encoder.model, graphs)
        return stats, final, encoder.model.state_dict()

    @pytest.mark.parametrize("loss", ["contrastive", "multi_similarity"])
    def test_identical_stats_and_embeddings(self, loss):
        datasets = [TestTrainer().make_dataset(seed=3), _mixed_size_dataset(seed=3)]
        for dataset in datasets:
            for pairs in (32, 5):  # the MS minibatch covers the corpus, or not
                stats_b, emb_b, weights_b = self._train(MetricTrainer, loss, dataset, pairs)
                stats_s, emb_s, weights_s = self._train(PerGraphTrainer, loss, dataset, pairs)
                assert stats_b.losses == stats_s.losses
                np.testing.assert_array_equal(emb_b, emb_s)
                for got, want in zip(weights_b, weights_s):
                    np.testing.assert_array_equal(got, want)

    def test_repeat_run_is_deterministic(self):
        dataset = TestTrainer().make_dataset(seed=7)
        stats1, emb1, _ = self._train(MetricTrainer, "multi_similarity", dataset, seed=7)
        stats2, emb2, _ = self._train(MetricTrainer, "multi_similarity", dataset, seed=7)
        assert stats1.losses == stats2.losses
        np.testing.assert_array_equal(emb1, emb2)
