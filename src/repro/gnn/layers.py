"""GraphSAGE layer parameters.

Implements the parameters of the paper's Eq. 3:

    h_v^(k) = sigma( W^(k) . Aggregator({h_u^(k-1), u in N(v)}) )

in the common "self + neighbour" parameterization:

    H^(k) = sigma( H^(k-1) W_self + (A_mean H^(k-1)) W_neigh + b )

where ``A_mean`` is a row-normalized adjacency (mean aggregator).  A
layer holds its weights and gradient accumulators only; the forward and
the hand-derived backward run in the batched engine
(:mod:`repro.gnn.batch`), and ``tests/gnn/reference.py`` keeps the
single-graph path they are checked against.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SAGELayer"]

# The nonlinearities the batched engine implements.
_ACTIVATIONS = ("relu", "tanh", "linear")


class SAGELayer:
    """Weights, bias and gradients of one GraphSAGE convolution.

    Parameters are Glorot-initialized; ``activation`` names the
    nonlinearity applied to the layer's output.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        activation: str = "relu",
        rng: np.random.Generator | None = None,
    ) -> None:
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        rng = rng or np.random.default_rng(0)
        scale = np.sqrt(6.0 / (in_dim + out_dim))
        self.w_self = rng.uniform(-scale, scale, size=(in_dim, out_dim))
        self.w_neigh = rng.uniform(-scale, scale, size=(in_dim, out_dim))
        self.bias = np.zeros(out_dim)
        self.activation = activation
        self.grad_w_self = np.zeros_like(self.w_self)
        self.grad_w_neigh = np.zeros_like(self.w_neigh)
        self.grad_bias = np.zeros_like(self.bias)

    @property
    def parameters(self) -> list[np.ndarray]:
        return [self.w_self, self.w_neigh, self.bias]

    @property
    def gradients(self) -> list[np.ndarray]:
        return [self.grad_w_self, self.grad_w_neigh, self.grad_bias]

    def zero_grad(self) -> None:
        self.grad_w_self[:] = 0.0
        self.grad_w_neigh[:] = 0.0
        self.grad_bias[:] = 0.0
