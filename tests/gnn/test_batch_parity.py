"""Parity suite for the batched GNN engine.

The contract (see ``repro.gnn.batch``): batched forward embeddings and
hand-derived backward parameter gradients are *bit-exact* against the
single-graph oracle in ``tests/gnn/reference.py``, run graph by graph in
the batch's slot order — hypothesis-generated random graphs (including
one-node graphs, which exercise the single-row BLAS fixup), plus the
seven OpenCores designs' module dataflow graphs.  The engine's gradients
are also checked against central finite differences, and its
consumed-state guards are exercised.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.gnn import GraphBatch, GraphData, GraphSAGE
from repro.gnn.batch import (
    _dense_mean_block,
    batched_backward,
    batched_forward,
    embed_graphs_cached,
    embedding_cache,
    release_state,
)

from .reference import (
    ReferenceModel,
    mean_adjacency,
    reference_backward,
    reference_embed,
    slot_order,
)

FEAT_DIM = 6


def random_graphs(seed: int, num_graphs: int) -> list[GraphData]:
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(num_graphs):
        n = int(rng.integers(1, 10))
        num_edges = int(rng.integers(0, 3 * n))
        edges = [
            (int(rng.integers(n)), int(rng.integers(n))) for _ in range(num_edges)
        ]
        graphs.append(GraphData(features=rng.normal(size=(n, FEAT_DIM)), edges=edges))
    return graphs


def oracle_gradients(model, graphs, grad_embeddings) -> list[np.ndarray]:
    """The oracle's parameter gradients from zero, in slot order."""
    model.zero_grad()
    reference_backward(model, graphs, grad_embeddings)
    return [g.copy() for g in model.gradients]


class TestAdjacencyBuilder:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_vectorized_block_matches_mean_adjacency(self, seed):
        (graph,) = random_graphs(seed, 1)
        expected = mean_adjacency(graph.num_nodes, graph.edges)
        np.testing.assert_array_equal(_dense_mean_block(graph), expected)

    def test_duplicate_and_self_edges_collapse_identically(self):
        graph = GraphData(
            features=np.ones((3, FEAT_DIM)),
            edges=[(0, 1), (0, 1), (1, 0), (2, 2)],
        )
        np.testing.assert_array_equal(
            _dense_mean_block(graph), mean_adjacency(3, graph.edges)
        )


class TestBatchPacking:
    def test_offsets_and_segments(self):
        graphs = random_graphs(0, 4)
        batch = GraphBatch(graphs)
        counts = [g.num_nodes for g in graphs]
        assert batch.total_nodes == sum(counts)
        # Internal layout is size-sorted (stable), with `order` mapping
        # storage slots back to the caller's graph indices.
        assert list(batch.counts) == sorted(counts)
        assert sorted(batch.order) == list(range(len(graphs)))
        assert [counts[i] for i in batch.order] == list(batch.counts)
        assert list(np.diff(batch.offsets)) == list(batch.counts)
        assert list(batch.order) == slot_order(graphs)

    def test_groups_partition_nodes(self):
        graphs = random_graphs(3, 6)
        batch = GraphBatch(graphs)
        covered = []
        seen_graphs = []
        for grp in batch.groups:
            assert grp.blocks.shape == (grp.size, grp.n, grp.n)
            assert grp.end - grp.start == grp.size * grp.n
            covered.extend(range(grp.start, grp.end))
            seen_graphs.extend(int(i) for i in grp.orig)
        assert covered == list(range(batch.total_nodes))
        assert sorted(seen_graphs) == list(range(len(graphs)))
        sizes = [grp.n for grp in batch.groups]
        assert sizes == sorted(sizes) and len(set(sizes)) == len(sizes)

    def test_mismatched_feature_dims_rejected(self):
        graphs = [
            GraphData(features=np.ones((2, 3))),
            GraphData(features=np.ones((2, 4))),
        ]
        with pytest.raises(ValueError):
            GraphBatch(graphs)


class TestForwardParity:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_embeddings_bit_exact(self, seed, num_graphs):
        graphs = random_graphs(seed, num_graphs)
        model = GraphSAGE(in_dim=FEAT_DIM, hidden_dims=(7, 4), seed=seed % 97)
        expected = reference_embed(model, graphs)
        batched, _ = batched_forward(model, GraphBatch(graphs), keep_state=False)
        np.testing.assert_array_equal(batched, expected)

    def test_single_node_graphs_bit_exact(self):
        """One-node graphs take numpy's single-row BLAS path — the fixup
        must reproduce it exactly inside a larger batch."""
        graphs = [
            GraphData(features=np.random.default_rng(i).normal(size=(1, FEAT_DIM)))
            for i in range(3)
        ] + random_graphs(5, 2)
        model = GraphSAGE(in_dim=FEAT_DIM, hidden_dims=(8, 5), seed=2)
        expected = reference_embed(model, graphs)
        batched, _ = batched_forward(model, GraphBatch(graphs), keep_state=False)
        np.testing.assert_array_equal(batched, expected)

    def test_tanh_activation_parity(self):
        graphs = random_graphs(11, 4)
        model = GraphSAGE(
            in_dim=FEAT_DIM, hidden_dims=(6, 6, 3), activation="tanh", seed=4
        )
        expected = reference_embed(model, graphs)
        batched, _ = batched_forward(model, GraphBatch(graphs), keep_state=False)
        np.testing.assert_array_equal(batched, expected)


class TestBackwardParity:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_gradients_bit_exact(self, seed, num_graphs):
        graphs = random_graphs(seed, num_graphs)
        model = GraphSAGE(in_dim=FEAT_DIM, hidden_dims=(7, 4), seed=seed % 89)
        grads_out = np.random.default_rng(seed ^ 0xBEEF).normal(
            size=(num_graphs, model.embedding_dim)
        )
        expected = oracle_gradients(model, graphs, grads_out)
        model.zero_grad()
        _, state = batched_forward(model, GraphBatch(graphs))
        batched_backward(model, state, grads_out)
        for got, want in zip(model.gradients, expected):
            np.testing.assert_array_equal(got, want)

    def test_backward_shape_mismatch_rejected(self):
        graphs = random_graphs(3, 2)
        model = GraphSAGE(in_dim=FEAT_DIM, hidden_dims=(4,), seed=0)
        _, state = batched_forward(model, GraphBatch(graphs))
        with pytest.raises(ValueError):
            batched_backward(model, state, np.zeros((3, model.embedding_dim)))

    def test_reentrant_states_do_not_clobber(self):
        """Two in-flight batches backprop correctly in either order."""
        graphs_a = random_graphs(21, 2)
        graphs_b = random_graphs(22, 3)
        model = GraphSAGE(in_dim=FEAT_DIM, hidden_dims=(6, 4), seed=1)
        rng = np.random.default_rng(0)
        grads_a = rng.normal(size=(2, model.embedding_dim))
        grads_b = rng.normal(size=(3, model.embedding_dim))

        expected_a = oracle_gradients(model, graphs_a, grads_a)
        expected_b = oracle_gradients(model, graphs_b, grads_b)

        _, state_a = batched_forward(model, GraphBatch(graphs_a))
        _, state_b = batched_forward(model, GraphBatch(graphs_b))
        model.zero_grad()
        batched_backward(model, state_b, grads_b)
        for got, want in zip(model.gradients, expected_b):
            np.testing.assert_array_equal(got, want)
        model.zero_grad()
        batched_backward(model, state_a, grads_a)
        for got, want in zip(model.gradients, expected_a):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("seed", [7, 31])
    def test_slots_order_matches_size_sorted_scalar_loop(self, seed):
        """The batch packs in the oracle's slot order and accumulates in it."""
        graphs = random_graphs(seed, 6)
        model = GraphSAGE(in_dim=FEAT_DIM, hidden_dims=(7, 4), seed=3)
        grads_out = np.random.default_rng(seed).normal(
            size=(6, model.embedding_dim)
        )
        expected = oracle_gradients(model, graphs, grads_out)
        model.zero_grad()
        batch = GraphBatch(graphs)
        assert list(batch.order) == slot_order(graphs)
        _, state = batched_forward(model, batch)
        batched_backward(model, state, grads_out)
        for got, want in zip(model.gradients, expected):
            np.testing.assert_array_equal(got, want)


class TestFiniteDifferences:
    def test_gradients_match_central_differences(self):
        """The engine's own backward against central differences of its
        forward: mixed sizes (two graphs share a size group), a one-node
        graph, duplicate and self edges, tanh hidden layers."""
        rng = np.random.default_rng(12)
        graphs = [
            GraphData(features=rng.normal(size=(1, FEAT_DIM))),
            GraphData(
                features=rng.normal(size=(3, FEAT_DIM)),
                edges=[(0, 1), (0, 1), (1, 0), (2, 2)],
            ),
            GraphData(features=rng.normal(size=(3, FEAT_DIM)), edges=[(1, 2)]),
            GraphData(
                features=rng.normal(size=(5, FEAT_DIM)),
                edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (2, 3)],
            ),
        ]
        model = GraphSAGE(
            in_dim=FEAT_DIM, hidden_dims=(5, 4, 3), activation="tanh", seed=8
        )
        batch = GraphBatch(graphs)
        target = rng.normal(size=(len(graphs), model.embedding_dim))

        def loss():
            emb, _ = batched_forward(model, batch, keep_state=False)
            return 0.5 * np.sum((emb - target) ** 2)

        emb, state = batched_forward(model, batch)
        model.zero_grad()
        batched_backward(model, state, emb - target)

        eps = 1e-6
        for param, grad in zip(model.parameters, model.gradients):
            flat_param = param.reshape(-1)
            flat_grad = grad.reshape(-1)
            for idx in range(flat_param.size):
                original = flat_param[idx]
                flat_param[idx] = original + eps
                up = loss()
                flat_param[idx] = original - eps
                down = loss()
                flat_param[idx] = original
                numeric = (up - down) / (2 * eps)
                assert flat_grad[idx] == pytest.approx(numeric, rel=1e-5, abs=1e-8)


class TestConsumedState:
    """A backward needs a forward state that still owns its workspace."""

    def setup_method(self):
        self.graphs = random_graphs(41, 3)
        self.model = GraphSAGE(in_dim=FEAT_DIM, hidden_dims=(5, 4), seed=0)
        self.grads = np.ones((3, self.model.embedding_dim))

    def test_second_backward_raises(self):
        _, state = batched_forward(self.model, GraphBatch(self.graphs))
        batched_backward(self.model, state, self.grads)
        with pytest.raises(RuntimeError, match="consumed"):
            batched_backward(self.model, state, self.grads)

    def test_keep_state_false_forward_raises(self):
        _, state = batched_forward(
            self.model, GraphBatch(self.graphs), keep_state=False
        )
        with pytest.raises(RuntimeError, match="keep_state=False"):
            batched_backward(self.model, state, self.grads)

    def test_released_state_raises(self):
        _, state = batched_forward(self.model, GraphBatch(self.graphs))
        release_state(state)
        with pytest.raises(RuntimeError, match="released"):
            batched_backward(self.model, state, self.grads)

    def test_release_state_is_idempotent(self):
        batch = GraphBatch(self.graphs)
        _, state = batched_forward(self.model, batch)
        release_state(state)
        release_state(state)
        # Had the second release pooled the workspace again, these two
        # in-flight states would share (and clobber) one set of buffers.
        _, first = batched_forward(self.model, batch)
        _, second = batched_forward(self.model, batch)
        assert first.ws is not second.ws
        release_state(first)
        release_state(second)


class TestModeRouting:
    def test_embed_graphs_parity_across_modes(self):
        """``embed_graphs`` (cached, batched) == the per-graph loop, cold
        and warm."""
        graphs = random_graphs(13, 5)
        model = GraphSAGE(in_dim=FEAT_DIM, hidden_dims=(7, 4), seed=6)
        embedding_cache.clear()
        cold = model.embed_graphs(graphs)
        warm = model.embed_graphs(graphs)
        np.testing.assert_array_equal(cold, reference_embed(model, graphs))
        np.testing.assert_array_equal(warm, cold)

    def test_duplicate_graph_objects_share_one_forward(self):
        (graph,) = random_graphs(17, 1)
        model = GraphSAGE(in_dim=FEAT_DIM, hidden_dims=(4,), seed=0)
        embedding_cache.clear()
        perf.reset()
        out = embed_graphs_cached(model, [graph, graph, graph])
        assert perf.counter("gnn.batch_graphs") == 1
        np.testing.assert_array_equal(out[0], out[1])
        np.testing.assert_array_equal(out[0], out[2])
        np.testing.assert_array_equal(
            out[0], ReferenceModel(model).embed_graph(graph)
        )

    def test_empty_list(self):
        model = GraphSAGE(in_dim=FEAT_DIM, hidden_dims=(4,), seed=0)
        assert model.embed_graphs([]).shape == (0, 4)


class TestOpenCoresParity:
    def test_seven_designs_module_graphs_bit_exact(self):
        from repro.designs.opencores import benchmark_names, get_benchmark
        from repro.mentor.circuit_graph import build_circuit_graph

        graphs = []
        for name in benchmark_names():
            bench = get_benchmark(name)
            circuit = build_circuit_graph(bench.verilog, name, top=bench.top)
            graphs.extend(circuit.module_graphs.values())
        assert graphs
        feat_dim = graphs[0].features.shape[1]
        model = GraphSAGE(in_dim=feat_dim, hidden_dims=(48, 32), seed=0)
        expected = reference_embed(model, graphs)
        batched, state = batched_forward(model, GraphBatch(graphs))
        np.testing.assert_array_equal(batched, expected)

        grads_out = np.random.default_rng(1).normal(size=batched.shape)
        expected_grads = oracle_gradients(model, graphs, grads_out)
        model.zero_grad()
        batched_backward(model, state, grads_out)
        for got, want in zip(model.gradients, expected_grads):
            np.testing.assert_array_equal(got, want)
