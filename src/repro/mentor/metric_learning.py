"""Metric learning for circuit embeddings (paper §IV-A, Fig. 4).

Trains the GNN so same-family designs cluster and different families
separate, using the losses the paper cites: contrastive loss [31] and
multi-similarity loss with general pair weighting [32], plus N-pair.
All losses return ``(value, gradient w.r.t. each embedding)`` so the
numpy GNN can backprop without autograd.

The batch losses and :func:`clustering_quality` are full-matrix numpy —
one pairwise-similarity matmul plus masked reductions, no inner Python
loops.  :class:`MetricTrainer` epochs run through the batched GNN engine
(one disjoint-union forward/backward per step);
``tests/mentor/test_metric_learning.py`` checks the loss trajectory and
final weights bit-for-bit against a training loop built from the
single-graph oracle in ``tests/gnn/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gnn import (
    Adam,
    GraphData,
    batched_backward,
    batched_forward,
    pack_graphs,
    release_state,
)
from .embeddings import CircuitEncoder

__all__ = [
    "contrastive_loss",
    "multi_similarity_loss",
    "n_pair_loss",
    "MetricTrainer",
    "clustering_quality",
]


def contrastive_loss(
    emb_a: np.ndarray, emb_b: np.ndarray, same: bool, margin: float = 0.5
) -> tuple[float, np.ndarray, np.ndarray]:
    """Pairwise contrastive loss on a single pair.

    Same-class pairs are pulled together (loss = d^2); different-class
    pairs are pushed beyond ``margin`` (loss = max(0, margin - d)^2).
    """
    diff = emb_a - emb_b
    dist = float(np.linalg.norm(diff))
    if same:
        return dist**2, 2 * diff, -2 * diff
    if dist >= margin or dist == 0.0:
        zero = np.zeros_like(diff)
        return 0.0, zero, zero
    scale = -2.0 * (margin - dist) / dist
    return (margin - dist) ** 2, scale * diff, -scale * diff


def multi_similarity_loss(
    embeddings: np.ndarray,
    labels: np.ndarray,
    alpha: float = 2.0,
    beta: float = 10.0,
    base: float = 0.5,
) -> tuple[float, np.ndarray]:
    """Multi-similarity loss (Wang et al., CVPR'19) over a batch.

    Operates on cosine similarities of (assumed normalized) embeddings;
    returns the batch loss and d(loss)/d(embeddings).  Fully vectorized:
    one similarity matmul, masked positive/negative reductions.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    n = len(embeddings)
    sims = embeddings @ embeddings.T
    same = labels[:, None] == labels[None, :]
    off_diag = ~np.eye(n, dtype=bool)
    pos_mask = same & off_diag
    neg_mask = ~same
    exp_pos = np.zeros_like(sims)
    exp_neg = np.zeros_like(sims)
    np.exp(-alpha * (sims - base), out=exp_pos, where=pos_mask)
    np.exp(beta * (sims - base), out=exp_neg, where=neg_mask)
    pos_sum = exp_pos.sum(axis=1)
    neg_sum = exp_neg.sum(axis=1)
    # log1p(0) == 0, so rows without positives/negatives contribute nothing.
    loss = float(np.sum(np.log1p(pos_sum)) / alpha + np.sum(np.log1p(neg_sum)) / beta)
    grad_sims = exp_neg / (1.0 + neg_sum)[:, None] - exp_pos / (1.0 + pos_sum)[:, None]
    grad = (grad_sims + grad_sims.T) @ embeddings
    return loss, grad


def n_pair_loss(
    anchor: np.ndarray, positive: np.ndarray, negatives: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """N-pair loss (Sohn, NIPS'16) for one anchor/positive and N negatives."""
    pos_sim = anchor @ positive
    neg_sims = negatives @ anchor
    logits = np.concatenate([[pos_sim], neg_sims])
    logits -= logits.max()
    exp = np.exp(logits)
    probs = exp / exp.sum()
    loss = -np.log(probs[0] + 1e-12)
    # d(loss)/d(sim_k) = probs_k - one_hot(positive)
    dsims = probs.copy()
    dsims[0] -= 1.0
    grad_anchor = dsims[0] * positive + dsims[1:] @ negatives
    grad_positive = dsims[0] * anchor
    grad_negatives = np.outer(dsims[1:], anchor)
    return float(loss), grad_anchor, grad_positive, grad_negatives


def clustering_quality(embeddings: np.ndarray, labels: np.ndarray) -> dict:
    """Intra/inter-class distance statistics (Fig. 4's before/after view).

    Vectorized: the full pairwise distance matrix in one broadcast, then
    masked means over the upper triangle.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    n = len(embeddings)
    diff = embeddings[:, None, :] - embeddings[None, :, :]
    dists = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    upper_i, upper_j = np.triu_indices(n, k=1)
    pair_dists = dists[upper_i, upper_j]
    pair_same = labels[upper_i] == labels[upper_j]
    intra = pair_dists[pair_same]
    inter = pair_dists[~pair_same]
    intra_mean = float(intra.mean()) if intra.size else 0.0
    inter_mean = float(inter.mean()) if inter.size else 0.0
    ratio = intra_mean / inter_mean if inter_mean > 0 else float("inf")
    return {
        "intra_mean": intra_mean,
        "inter_mean": inter_mean,
        "ratio": ratio,
        "separated": ratio < 1.0,
    }


@dataclass
class TrainStats:
    epochs: int
    losses: list[float]


def _normalization_grad(
    grad_norm: np.ndarray, normalized: np.ndarray, norms: np.ndarray
) -> np.ndarray:
    """Backprop d(loss)/d(normalized) through row L2-normalization."""
    dots = np.sum(grad_norm * normalized, axis=1, keepdims=True)
    return grad_norm / norms - normalized * dots / norms


class MetricTrainer:
    """Trains a :class:`CircuitEncoder` with metric-learning losses.

    Epochs run through the batched GNN engine (one disjoint-union
    forward + backward per optimizer step).  Gradients accumulate in the
    batch's slot order, so training is deterministic: same seed, same
    graphs → bit-identical losses and final weights.
    """

    def __init__(
        self,
        encoder: CircuitEncoder,
        lr: float = 5e-3,
        loss: str = "contrastive",
        margin: float = 0.8,
        seed: int = 0,
    ) -> None:
        if loss not in ("contrastive", "multi_similarity"):
            raise ValueError(f"unknown loss {loss!r}")
        self.encoder = encoder
        self.loss_name = loss
        self.margin = margin
        self.rng = np.random.default_rng(seed)
        model = encoder.model
        # on_step keeps the versioned embedding cache honest: every
        # parameter update invalidates previously cached embeddings.
        self.optimizer = Adam(
            model.parameters, model.gradients, lr=lr, on_step=model.bump_version
        )

    def train(
        self,
        graphs: list[GraphData],
        labels: list[int],
        epochs: int = 30,
        pairs_per_epoch: int = 32,
    ) -> TrainStats:
        """Train on labelled module graphs; returns the loss history."""
        labels_arr = np.asarray(labels)
        losses = []
        for _ in range(epochs):
            if self.loss_name == "contrastive":
                epoch_loss = self._contrastive_epoch(graphs, labels_arr, pairs_per_epoch)
            else:
                epoch_loss = self._ms_epoch(graphs, labels_arr, pairs_per_epoch)
            losses.append(epoch_loss)
        return TrainStats(epochs=epochs, losses=losses)

    def _contrastive_epoch(self, graphs, labels, num_pairs) -> float:
        model = self.encoder.model
        total = 0.0
        for _ in range(num_pairs):
            i, j = self._sample_pair(labels)
            same = labels[i] == labels[j]
            model.zero_grad()
            # One two-graph forward; the retained state makes the
            # backward free of re-forwards.
            embeddings, state = batched_forward(
                model, pack_graphs([graphs[i], graphs[j]])
            )
            loss, grad_i, grad_j = contrastive_loss(
                embeddings[0], embeddings[1], same, self.margin
            )
            if loss > 0:
                batched_backward(model, state, np.vstack([grad_i, grad_j]))
                self.optimizer.step()
            else:
                release_state(state)  # zero loss: no backward will consume it
            total += loss
        return total / num_pairs

    def _ms_epoch(self, graphs, labels, batch_size) -> float:
        model = self.encoder.model
        idx = self.rng.choice(len(graphs), size=min(batch_size, len(graphs)), replace=False)
        full = len(idx) == len(graphs)
        # When the minibatch covers the whole corpus (it is just a
        # shuffle), reuse the *canonical* memoized batch — re-packing a
        # fresh permuted batch every epoch would defeat both the batch
        # memo and the workspace pool.  Per-graph embeddings are
        # batch-composition-independent (bit-exact parity), so selecting
        # rows by ``idx`` equals forwarding the permuted batch directly.
        base = graphs if full else [graphs[i] for i in idx]
        all_emb, state = batched_forward(model, pack_graphs(base))
        embeddings = all_emb[idx] if full else all_emb
        norms = np.linalg.norm(embeddings, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        normalized = embeddings / norms
        loss, grad_norm = multi_similarity_loss(normalized, labels[idx])
        grad_emb = _normalization_grad(grad_norm, normalized, norms)
        model.zero_grad()
        if full:
            # The batch holds the corpus in its own order; grad_emb's rows
            # follow ``idx``.
            grad_all = np.empty_like(grad_emb)
            grad_all[idx] = grad_emb
            grad_emb = grad_all
        # Per-graph parameter gradients accumulate in the batch's slot
        # order (stable size sort of ``base``).
        batched_backward(model, state, grad_emb)
        self.optimizer.step()
        return loss

    def _sample_pair(self, labels) -> tuple[int, int]:
        n = len(labels)
        if self.rng.random() < 0.5:
            # positive pair
            label = self.rng.choice(labels)
            members = np.flatnonzero(labels == label)
            if len(members) >= 2:
                i, j = self.rng.choice(members, size=2, replace=False)
                return int(i), int(j)
        i, j = self.rng.choice(n, size=2, replace=False)
        return int(i), int(j)
