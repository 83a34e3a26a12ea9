"""Loop oracle for :func:`repro.mentor.metric_learning.multi_similarity_loss`.

A direct O(n^2)-Python transcription of the multi-similarity loss with
general pair weighting.  The vectorized loss is checked against it in
``tests/mentor/test_metric_learning.py`` and timed against it in
``benchmarks/perf/test_gnn_batched.py``.
"""

from __future__ import annotations

import numpy as np


def multi_similarity_loss_loop(
    embeddings: np.ndarray,
    labels: np.ndarray,
    alpha: float = 2.0,
    beta: float = 10.0,
    base: float = 0.5,
) -> tuple[float, np.ndarray]:
    """Reference multi-similarity loss and its gradient, one pair at a time."""
    n = len(embeddings)
    sims = embeddings @ embeddings.T
    loss = 0.0
    grad_sims = np.zeros_like(sims)
    for i in range(n):
        pos = [j for j in range(n) if j != i and labels[j] == labels[i]]
        neg = [j for j in range(n) if labels[j] != labels[i]]
        if pos:
            exp_pos = np.array([np.exp(-alpha * (sims[i, j] - base)) for j in pos])
            loss += np.log1p(exp_pos.sum()) / alpha
            coeff = -exp_pos / (1.0 + exp_pos.sum())
            for j, c in zip(pos, coeff):
                grad_sims[i, j] += c
        if neg:
            exp_neg = np.array([np.exp(beta * (sims[i, j] - base)) for j in neg])
            loss += np.log1p(exp_neg.sum()) / beta
            coeff = exp_neg / (1.0 + exp_neg.sum())
            for j, c in zip(neg, coeff):
                grad_sims[i, j] += c
    grad = (grad_sims + grad_sims.T) @ embeddings
    return float(loss), grad
