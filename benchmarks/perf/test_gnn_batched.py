"""Batched GNN engine vs the single-graph oracle's per-graph loops.

Acceptance: on the Fig-4 corpus (7 Chipyard designs, one per family) the
batched forward that ``embed_graphs`` runs on cache misses must beat a
per-graph loop over the oracle in ``tests/gnn/reference.py`` by >= 3x
and stay bit-exact (a cold ``embed_graphs``, which also fills the
embedding cache, is reported alongside), and one multi-similarity
training epoch must beat the per-graph epoch (per-graph embeds, loop
loss, re-forward backwards) by >= 3x.  Fig-4 training wall-clock is
recorded for the report.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.designs.chipyard import generate_corpus
from repro.gnn import GraphSAGE, batched_forward, embedding_cache, pack_graphs
from repro.mentor.circuit_graph import build_circuit_graph
from repro.mentor.embeddings import CircuitEncoder
from repro.mentor.metric_learning import MetricTrainer, multi_similarity_loss
from tests.gnn.reference import ReferenceModel, reference_embed
from tests.mentor.loss_reference import multi_similarity_loss_loop

# Single-core CI runners are noisy; min-over-many-repeats is the only
# stable statistic.  Embed calls are ~150us so they get a large budget.
REPEATS = 7
EMBED_REPEATS = 30
EPOCH_WARMUP = 3
EPOCH_BLOCKS = 6
EPOCH_REPEATS = 5


def _corpus_graphs():
    """Module dataflow graphs + family labels for the Fig-4 corpus."""
    corpus = generate_corpus(1)
    families = sorted({d.family for d in corpus})
    label_of = {f: i for i, f in enumerate(families)}
    graphs, labels = [], []
    for design in corpus:
        circuit = build_circuit_graph(design.verilog, design.name, top=design.top)
        for graph in circuit.module_graphs.values():
            graphs.append(graph)
            labels.append(label_of[design.family])
    return graphs, labels


def _best(fn, repeats=REPEATS):
    best = float("inf")
    out = None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


def _engine_embed(model, graphs):
    """What ``embed_graphs`` runs on cache misses: one batched forward."""
    return batched_forward(model, pack_graphs(graphs), keep_state=False)[0]


def _cold_embed(model, graphs):
    """``embed_graphs`` on an empty cache: the forward plus cache fills."""
    embedding_cache.clear()
    return model.embed_graphs(graphs)


def test_batched_embed_speedup_and_parity(bench_results):
    graphs, _ = _corpus_graphs()
    model = GraphSAGE(in_dim=graphs[0].features.shape[1], hidden_dims=(48, 32), seed=0)

    _cold_embed(model, graphs)  # warm the pack memo + workspace pool

    # Alternate blocks of repeats so a load burst on a shared runner hits
    # every variant instead of inflating whichever happened to run under
    # it; the min over all blocks is the steady-state time.
    batched_s = cold_s = reference_s = float("inf")
    for _ in range(6):
        t, batched_emb = _best(lambda: _engine_embed(model, graphs), EMBED_REPEATS)
        batched_s = min(batched_s, t)
        t, cold_emb = _best(lambda: _cold_embed(model, graphs), EMBED_REPEATS)
        cold_s = min(cold_s, t)
        t, reference_emb = _best(lambda: reference_embed(model, graphs), EMBED_REPEATS)
        reference_s = min(reference_s, t)
    np.testing.assert_array_equal(batched_emb, reference_emb)
    np.testing.assert_array_equal(cold_emb, reference_emb)

    speedup = reference_s / batched_s
    bench_results.setdefault("gnn_batched", {})["embed_graphs"] = {
        "cpus": os.cpu_count(),
        "graphs": len(graphs),
        "total_nodes": sum(graph.num_nodes for graph in graphs),
        "repeats": 6 * EMBED_REPEATS,
        "reference_s": round(reference_s, 6),
        "batched_s": round(batched_s, 6),
        "speedup": round(speedup, 2),
        # cold embed_graphs also fills the embedding cache (reported only)
        "cold_cached_s": round(cold_s, 6),
        "cold_cached_speedup": round(reference_s / cold_s, 2),
    }
    assert speedup >= 3.0, f"batched embed speedup {speedup:.2f}x < 3x"


def test_vectorized_ms_epoch_speedup(bench_results):
    """Vectorized multi-similarity epoch vs the pre-engine epoch.

    The baseline reproduces what the seed shipped: per-graph embeds, the
    O(n^2)-Python loss loop, a per-row normalization-gradient loop, and
    re-forward backwards.  The vectorized epoch (batched engine + matrix
    loss) must beat it by >= 3x.
    """
    graphs, labels = _corpus_graphs()
    labels_arr = np.asarray(labels)

    # The trainer's own epoch: one batched forward/backward of the batch.
    trainer = MetricTrainer(CircuitEncoder(seed=0), loss="multi_similarity", seed=0)

    def batched_epoch():
        trainer._ms_epoch(graphs, labels_arr, batch_size=32)

    # The epoch exactly as the seed ran it (per-graph + loop loss).
    seed_trainer = MetricTrainer(
        CircuitEncoder(seed=0), loss="multi_similarity", seed=0
    )
    model = seed_trainer.encoder.model
    ref = ReferenceModel(model)

    def seed_epoch():
        idx = seed_trainer.rng.choice(
            len(graphs), size=min(32, len(graphs)), replace=False
        )
        embeddings = np.vstack([ref.embed_graph(graphs[i]) for i in idx])
        norms = np.linalg.norm(embeddings, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        normalized = embeddings / norms
        _loss, grad_norm = multi_similarity_loss_loop(normalized, labels_arr[idx])
        model.zero_grad()
        for row, i in enumerate(idx):
            norm = norms[row, 0]
            g = grad_norm[row] / norm - (
                normalized[row] * (grad_norm[row] @ normalized[row]) / norm
            )
            ref.embed_graph(graphs[i])
            ref.backward_graph(g)
        seed_trainer.optimizer.step()

    for _ in range(EPOCH_WARMUP):
        batched_epoch()
        seed_epoch()
    # Alternate blocks of epochs, as the embed benchmark does, so a change
    # in host speed hits both variants instead of whichever block ran
    # under it; the min over all blocks is the steady-state epoch.
    batched_s = baseline_s = float("inf")
    for _ in range(EPOCH_BLOCKS):
        batched_s = min(batched_s, _best(batched_epoch, EPOCH_REPEATS)[0])
        baseline_s = min(baseline_s, _best(seed_epoch, EPOCH_REPEATS)[0])

    # Sub-measurement: the vectorized loss kernel alone vs the O(n^2) loop.
    rng = np.random.default_rng(0)
    emb = rng.normal(size=(64, 32))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    loss_labels = rng.integers(0, 7, size=64)
    vec_s, vec_out = _best(lambda: multi_similarity_loss(emb, loss_labels), 20)
    loop_s, loop_out = _best(lambda: multi_similarity_loss_loop(emb, loss_labels), 20)
    np.testing.assert_allclose(vec_out[0], loop_out[0], rtol=1e-12)

    speedup = baseline_s / batched_s
    bench_results.setdefault("gnn_batched", {})["ms_epoch"] = {
        "cpus": os.cpu_count(),
        "batch_size": 32,
        "repeats": EPOCH_BLOCKS * EPOCH_REPEATS,
        "baseline_s": round(baseline_s, 6),
        "batched_s": round(batched_s, 6),
        "speedup": round(speedup, 2),
        "loss_kernel": {
            "n": 64,
            "loop_s": round(loop_s, 6),
            "vectorized_s": round(vec_s, 6),
            "speedup": round(loop_s / vec_s, 2),
        },
    }
    assert speedup >= 3.0, f"vectorized MS epoch speedup {speedup:.2f}x < 3x"


def test_fig4_training_wallclock(bench_results):
    graphs, labels = _corpus_graphs()
    encoder = CircuitEncoder(seed=0)
    trainer = MetricTrainer(encoder, loss="contrastive", seed=0)
    start = time.perf_counter()
    trainer.train(graphs, labels, epochs=3)
    batched_s = time.perf_counter() - start
    bench_results.setdefault("gnn_batched", {})["fig4_train"] = {
        "cpus": os.cpu_count(),
        "epochs": 3,
        "loss": "contrastive",
        "batched_s": round(batched_s, 6),
    }
