"""Parity suite for the batched GNN engine.

The contract (see ``repro.gnn.batch``): batched forward embeddings and
hand-derived backward parameter gradients are *bit-exact* against the
per-graph ``embed_graph``/``backward_graph`` reference — hypothesis-
generated random graphs (including
one-node graphs, which exercise the single-row BLAS fixup), plus the
seven OpenCores designs' module dataflow graphs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.gnn import GraphBatch, GraphData, GraphSAGE, mean_adjacency
from repro.gnn.batch import (
    _dense_mean_block,
    batched_backward,
    batched_forward,
    embed_graphs_cached,
    embedding_cache,
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


def scalar_embed(model: GraphSAGE, graphs: list[GraphData]) -> np.ndarray:
    return np.vstack([model.embed_graph(g) for g in graphs])


def scalar_backward(model, graphs, grad_embeddings) -> list[np.ndarray]:
    model.zero_grad()
    for graph, grad in zip(graphs, grad_embeddings):
        model.embed_graph(graph)
        model.backward_graph(grad)
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
        assert list(batch.segment_ids) == [
            int(g) for g, c in zip(batch.order, batch.counts) for _ in range(c)
        ]

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

    def test_csr_matches_dense_blocks(self):
        graphs = random_graphs(7, 3)
        batch = GraphBatch(graphs)
        indptr, indices, weights = batch.csr
        dense = np.zeros((batch.total_nodes, batch.total_nodes))
        for row in range(batch.total_nodes):
            cols = indices[indptr[row]:indptr[row + 1]]
            dense[row, cols] = weights[indptr[row]:indptr[row + 1]]
        expected = np.zeros_like(dense)
        for _g, start, end, block in batch.iter_blocks():
            expected[start:end, start:end] = block
        np.testing.assert_array_equal(dense, expected)
        assert batch.nnz == int(np.count_nonzero(expected))

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
        expected = scalar_embed(model, graphs)
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
        expected = scalar_embed(model, graphs)
        batched, _ = batched_forward(model, GraphBatch(graphs), keep_state=False)
        np.testing.assert_array_equal(batched, expected)

    def test_tanh_activation_parity(self):
        graphs = random_graphs(11, 4)
        model = GraphSAGE(
            in_dim=FEAT_DIM, hidden_dims=(6, 6, 3), activation="tanh", seed=4
        )
        expected = scalar_embed(model, graphs)
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
        expected = scalar_backward(model, graphs, grads_out)
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

        expected_a = scalar_backward(model, graphs_a, grads_a)
        expected_b = scalar_backward(model, graphs_b, grads_b)

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

    @pytest.mark.parametrize("seed", [5, 29])
    def test_order_override_matches_reordered_scalar_loop(self, seed):
        """``order=perm`` accumulates like a scalar loop over ``perm``."""
        graphs = random_graphs(seed, 6)
        model = GraphSAGE(in_dim=FEAT_DIM, hidden_dims=(7, 4), seed=2)
        rng = np.random.default_rng(seed)
        grads_out = rng.normal(size=(6, model.embedding_dim))
        perm = rng.permutation(6)

        expected = scalar_backward(
            model, [graphs[i] for i in perm], grads_out[perm]
        )
        model.zero_grad()
        _, state = batched_forward(model, GraphBatch(graphs))
        batched_backward(model, state, grads_out, order=perm)
        for got, want in zip(model.gradients, expected):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("seed", [7, 31])
    def test_slots_order_matches_size_sorted_scalar_loop(self, seed):
        """``order="slots"`` accumulates in the batch's internal order."""
        from repro.gnn import accumulation_order

        graphs = random_graphs(seed, 6)
        model = GraphSAGE(in_dim=FEAT_DIM, hidden_dims=(7, 4), seed=3)
        grads_out = np.random.default_rng(seed).normal(
            size=(6, model.embedding_dim)
        )
        slot = accumulation_order([g.num_nodes for g in graphs])
        expected = scalar_backward(
            model, [graphs[i] for i in slot], grads_out[slot]
        )
        model.zero_grad()
        batch = GraphBatch(graphs)
        np.testing.assert_array_equal(batch.order, slot)
        _, state = batched_forward(model, batch)
        batched_backward(model, state, grads_out, order="slots")
        for got, want in zip(model.gradients, expected):
            np.testing.assert_array_equal(got, want)

    def test_unknown_order_string_rejected(self):
        graphs = random_graphs(11, 2)
        model = GraphSAGE(in_dim=FEAT_DIM, hidden_dims=(4,), seed=0)
        _, state = batched_forward(model, GraphBatch(graphs))
        with pytest.raises(ValueError, match="accumulation order"):
            batched_backward(
                model, state, np.zeros((2, model.embedding_dim)), order="rows"
            )


class TestModeRouting:
    def test_embed_graphs_parity_across_modes(self):
        """``embed_graphs`` (cached, batched) == the per-graph loop, cold
        and warm."""
        graphs = random_graphs(13, 5)
        model = GraphSAGE(in_dim=FEAT_DIM, hidden_dims=(7, 4), seed=6)
        embedding_cache.clear()
        cold = model.embed_graphs(graphs)
        warm = model.embed_graphs(graphs)
        np.testing.assert_array_equal(cold, scalar_embed(model, graphs))
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
        np.testing.assert_array_equal(out[0], model.embed_graph(graph))

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
        expected = scalar_embed(model, graphs)
        batched, state = batched_forward(model, GraphBatch(graphs))
        np.testing.assert_array_equal(batched, expected)

        grads_out = np.random.default_rng(1).normal(size=batched.shape)
        expected_grads = scalar_backward(model, graphs, grads_out)
        model.zero_grad()
        batched_backward(model, state, grads_out)
        for got, want in zip(model.gradients, expected_grads):
            np.testing.assert_array_equal(got, want)
