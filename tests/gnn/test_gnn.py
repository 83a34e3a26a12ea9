"""Tests for the numpy GNN framework and its single-graph oracle.

The numeric gradient checks here hold the oracle in
``tests/gnn/reference.py`` to finite differences;
``tests/gnn/test_batch_parity.py`` holds the batched engine to the oracle
bit for bit, and to finite differences directly.
"""

import numpy as np
import pytest

from repro.gnn import Adam, GraphData, GraphSAGE, SAGELayer

from .reference import (
    ReferenceLayer,
    ReferenceModel,
    backward_reentrant,
    forward_reentrant,
    mean_adjacency,
)


def chain_graph(n=4, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    return GraphData(
        features=rng.normal(size=(n, dim)),
        edges=[(i, i + 1) for i in range(n - 1)],
    )


class TestAdjacency:
    def test_rows_sum_to_one(self):
        adj = mean_adjacency(4, [(0, 1), (1, 2), (2, 3)])
        np.testing.assert_allclose(adj.sum(axis=1), 1.0)

    def test_undirected_by_default(self):
        adj = mean_adjacency(2, [(0, 1)], self_loops=False)
        assert adj[0, 1] > 0 and adj[1, 0] > 0

    def test_directed(self):
        adj = mean_adjacency(2, [(0, 1)], directed=True, self_loops=False)
        assert adj[1, 0] > 0 and adj[0, 1] == 0

    def test_isolated_node_gets_self_loop(self):
        adj = mean_adjacency(3, [(0, 1)])
        assert adj[2, 2] == 1.0

    def test_graphdata_validates_edges(self):
        g = GraphData(features=np.zeros((2, 2)), edges=[(0, 5)])
        with pytest.raises(ValueError):
            g.validate()


class TestSAGELayer:
    def test_output_shape(self):
        layer = ReferenceLayer(SAGELayer(3, 5))
        g = chain_graph()
        adj = mean_adjacency(g.num_nodes, g.edges)
        out = layer.forward(g.features, adj)
        assert out.shape == (4, 5)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError):
            SAGELayer(3, 5, activation="swish")

    def test_backward_before_forward_raises(self):
        layer = ReferenceLayer(SAGELayer(3, 5))
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((4, 5)))

    def test_gradient_check_weights(self):
        """Compare analytic gradients with finite differences."""
        rng = np.random.default_rng(1)
        params = SAGELayer(3, 4, activation="tanh", rng=rng)
        layer = ReferenceLayer(params)
        g = chain_graph(seed=1)
        adj = mean_adjacency(g.num_nodes, g.edges)
        target = rng.normal(size=(4, 4))

        def loss():
            out = layer.forward(g.features, adj)
            return 0.5 * np.sum((out - target) ** 2)

        out = layer.forward(g.features, adj)
        params.zero_grad()
        layer.backward(out - target)

        eps = 1e-6
        for param, grad in zip(params.parameters, params.gradients):
            flat_param = param.reshape(-1)
            flat_grad = grad.reshape(-1)
            for idx in range(0, flat_param.size, max(1, flat_param.size // 5)):
                original = flat_param[idx]
                flat_param[idx] = original + eps
                up = loss()
                flat_param[idx] = original - eps
                down = loss()
                flat_param[idx] = original
                numeric = (up - down) / (2 * eps)
                assert flat_grad[idx] == pytest.approx(numeric, rel=1e-4, abs=1e-6)

    def test_gradient_check_inputs(self):
        rng = np.random.default_rng(2)
        layer = ReferenceLayer(SAGELayer(3, 3, activation="tanh", rng=rng))
        g = chain_graph(seed=2)
        adj = mean_adjacency(g.num_nodes, g.edges)
        target = rng.normal(size=(4, 3))
        out = layer.forward(g.features, adj)
        grad_in = layer.backward(out - target)

        eps = 1e-6
        features = g.features
        for i in (0, 2):
            for j in (0, 1):
                original = features[i, j]
                features[i, j] = original + eps
                up = 0.5 * np.sum((layer.forward(features, adj) - target) ** 2)
                features[i, j] = original - eps
                down = 0.5 * np.sum((layer.forward(features, adj) - target) ** 2)
                features[i, j] = original
                numeric = (up - down) / (2 * eps)
                assert grad_in[i, j] == pytest.approx(numeric, rel=1e-4, abs=1e-6)


class TestGraphSAGE:
    def test_embedding_shape(self):
        model = GraphSAGE(in_dim=3, hidden_dims=(8, 6))
        emb = model.embed_graphs([chain_graph()])[0]
        assert emb.shape == (6,)
        assert model.embedding_dim == 6

    def test_single_node_graph(self):
        model = GraphSAGE(in_dim=3, hidden_dims=(4,))
        g = GraphData(features=np.ones((1, 3)), edges=[])
        emb = model.embed_graphs([g])[0]
        assert emb.shape == (4,)
        assert np.all(np.isfinite(emb))

    def test_deterministic_given_seed(self):
        a = GraphSAGE(in_dim=3, hidden_dims=(4,), seed=7)
        b = GraphSAGE(in_dim=3, hidden_dims=(4,), seed=7)
        g = chain_graph()
        np.testing.assert_allclose(a.embed_graphs([g]), b.embed_graphs([g]))

    def test_permutation_invariance_of_pooling(self):
        """Relabeling nodes must not change the pooled embedding."""
        model = GraphSAGE(in_dim=3, hidden_dims=(5,), seed=0)
        g = chain_graph(n=5, seed=3)
        perm = np.array([4, 2, 0, 3, 1])
        inverse = np.argsort(perm)
        g_perm = GraphData(
            features=g.features[perm],
            edges=[(int(inverse[a]), int(inverse[b])) for a, b in g.edges],
        )
        np.testing.assert_allclose(
            model.embed_graphs([g]), model.embed_graphs([g_perm]), atol=1e-10
        )

    def test_model_gradient_check(self):
        rng = np.random.default_rng(5)
        model = GraphSAGE(in_dim=3, hidden_dims=(4, 3), activation="tanh", seed=5)
        ref = ReferenceModel(model)
        g = chain_graph(seed=5)
        target = rng.normal(size=3)

        def loss():
            return 0.5 * np.sum((ref.embed_graph(g) - target) ** 2)

        emb = ref.embed_graph(g)
        model.zero_grad()
        ref.backward_graph(emb - target)
        grads = [g_.copy() for g_ in model.gradients]

        eps = 1e-6
        for p_idx, param in enumerate(model.parameters):
            flat = param.reshape(-1)
            for idx in range(0, flat.size, max(1, flat.size // 3)):
                original = flat[idx]
                flat[idx] = original + eps
                up = loss()
                flat[idx] = original - eps
                down = loss()
                flat[idx] = original
                numeric = (up - down) / (2 * eps)
                assert grads[p_idx].reshape(-1)[idx] == pytest.approx(
                    numeric, rel=1e-4, abs=1e-6
                )

    def test_state_dict_round_trip(self):
        model = GraphSAGE(in_dim=3, hidden_dims=(4,), seed=0)
        state = model.state_dict()
        g = chain_graph()
        before = model.embed_graphs([g])[0]
        model.parameters[0][:] += 1.0
        model.load_state_dict(state)
        np.testing.assert_array_equal(model.embed_graphs([g])[0], before)

    def test_backward_before_forward_raises(self):
        ref = ReferenceModel(GraphSAGE(in_dim=3, hidden_dims=(4,)))
        with pytest.raises(RuntimeError):
            ref.backward_graph(np.zeros(4))

    def test_empty_hidden_dims_rejected(self):
        with pytest.raises(ValueError):
            GraphSAGE(in_dim=3, hidden_dims=())


class TestOptimizers:
    def quadratic_setup(self):
        param = np.array([5.0, -3.0])
        grad = np.zeros_like(param)
        return param, grad

    def test_adam_converges_on_quadratic(self):
        param, grad = self.quadratic_setup()
        opt = Adam([param], [grad], lr=0.1)
        for _ in range(400):
            grad[:] = param
            opt.step()
        assert np.linalg.norm(param) < 1e-3

    def test_invalid_lr_rejected(self):
        param, grad = self.quadratic_setup()
        with pytest.raises(ValueError):
            Adam([param], [grad], lr=0.0)
        with pytest.raises(ValueError):
            Adam([param], [grad], lr=-1.0)


class TestSAGELayerCacheDiscipline:
    """The oracle fails loudly when backward is called without a cache."""

    def test_backward_twice_after_one_forward_raises(self):
        layer = ReferenceLayer(SAGELayer(3, 5))
        g = chain_graph()
        adj = mean_adjacency(g.num_nodes, g.edges)
        layer.forward(g.features, adj)
        layer.backward(np.zeros((g.num_nodes, 5)))
        with pytest.raises(RuntimeError, match="matching forward"):
            layer.backward(np.zeros((g.num_nodes, 5)))

    def test_forward_forward_backward_uses_latest_cache(self):
        rng = np.random.default_rng(3)
        layer = ReferenceLayer(SAGELayer(3, 5, rng=rng))
        g1 = chain_graph(n=4, seed=1)
        g2 = chain_graph(n=6, seed=2)
        adj2 = mean_adjacency(g2.num_nodes, g2.edges)
        layer.forward(g1.features, mean_adjacency(g1.num_nodes, g1.edges))
        layer.forward(g2.features, adj2)
        grad_in = layer.backward(np.ones((g2.num_nodes, 5)))
        assert grad_in.shape == g2.features.shape

    def test_model_backward_twice_raises(self):
        ref = ReferenceModel(GraphSAGE(in_dim=3, hidden_dims=(4,), seed=0))
        ref.embed_graph(chain_graph())
        ref.backward_graph(np.zeros(4))
        with pytest.raises(RuntimeError):
            ref.backward_graph(np.zeros(4))

    def test_reentrant_api_keeps_layer_cache_intact(self):
        """forward_reentrant/backward_reentrant never touch layer state."""
        layer = ReferenceLayer(SAGELayer(3, 5))
        g = chain_graph()
        adj = mean_adjacency(g.num_nodes, g.edges)
        layer.forward(g.features, adj)  # arm the stateful cache
        out, cache = forward_reentrant(layer.layer, g.features, adj @ g.features)
        backward_reentrant(layer.layer, np.ones_like(out), cache)
        # Stateful backward still works: the re-entrant calls above must
        # not have consumed or clobbered the layer's own cache.
        layer.backward(np.zeros((g.num_nodes, 5)))


class TestEmbeddingCache:
    def fresh_model(self, seed=0):
        return GraphSAGE(in_dim=3, hidden_dims=(5, 4), seed=seed)

    def test_repeat_embed_hits_cache(self):
        from repro.gnn.batch import embedding_cache

        model = self.fresh_model()
        graphs = [chain_graph(seed=s) for s in range(3)]
        first = model.embed_graphs(graphs)
        hits_before = embedding_cache.hits
        second = model.embed_graphs(graphs)
        assert embedding_cache.hits == hits_before + len(graphs)
        np.testing.assert_array_equal(first, second)

    def test_load_state_dict_invalidates(self):
        from repro.gnn.batch import embedding_cache

        model = self.fresh_model()
        graphs = [chain_graph(seed=9)]
        model.embed_graphs(graphs)
        version = model.version
        model.load_state_dict(model.state_dict())
        assert model.version > version
        hits_before = embedding_cache.hits
        model.embed_graphs(graphs)
        assert embedding_cache.hits == hits_before  # stale key: miss, not hit

    def test_optimizer_step_invalidates(self):
        model = self.fresh_model(seed=4)
        ref = ReferenceModel(model)
        opt = Adam(model.parameters, model.gradients, on_step=model.bump_version)
        graph = chain_graph(seed=4)
        before = model.embed_graphs([graph])[0]
        ref.embed_graph(graph)
        ref.backward_graph(np.ones(model.embedding_dim))
        opt.step()
        after = model.embed_graphs([graph])[0]
        # Version bumped, so the cache may not serve the pre-step embedding.
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(after, ref.embed_graph(graph))

    def test_stats_provider_registered(self):
        from repro import perf

        snapshot = perf.registry.snapshot()
        stats = snapshot["caches"]["gnn_embed"]
        assert set(stats) >= {"entries", "hits", "misses", "evictions"}

    def test_cached_rows_are_copies(self):
        model = self.fresh_model(seed=6)
        graph = chain_graph(seed=6)
        first = model.embed_graphs([graph])
        first[0, 0] = 1e9  # mutate the returned row
        second = model.embed_graphs([graph])[0]
        np.testing.assert_array_equal(
            second, ReferenceModel(model).embed_graph(graph)
        )
