"""Adam, the optimizer metric learning trains the GNN with.

It accepts an optional ``on_step`` callback fired after each parameter
update — :class:`~repro.mentor.metric_learning.MetricTrainer` wires it
to ``GraphSAGE.bump_version`` so the versioned embedding cache is
invalidated on every step.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["Adam"]


class Adam:
    """Adam optimizer (Kingma & Ba) over in-place parameter arrays."""

    def __init__(
        self,
        parameters: list[np.ndarray],
        gradients: list[np.ndarray],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        on_step: Callable[[], None] | None = None,
    ) -> None:
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.parameters = parameters
        self.gradients = gradients
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.on_step = on_step
        self._m = [np.zeros_like(p) for p in parameters]
        self._v = [np.zeros_like(p) for p in parameters]
        # Two scratch buffers per parameter make the update allocation-free
        # (the step runs once per training iteration, so the ~8 temporaries
        # per parameter it used to allocate were pure overhead).  Every
        # expression below issues the same ufuncs on the same operands as
        # the textbook form, so trajectories are bit-identical to it.
        self._s1 = [np.zeros_like(p) for p in parameters]
        self._s2 = [np.zeros_like(p) for p in parameters]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        one_m_b1 = 1 - self.beta1
        one_m_b2 = 1 - self.beta2
        for param, grad, m, v, s1, s2 in zip(
            self.parameters, self.gradients, self._m, self._v, self._s1, self._s2
        ):
            # m = beta1*m + (1-beta1)*grad
            np.multiply(m, self.beta1, out=m)
            np.multiply(grad, one_m_b1, out=s1)
            np.add(m, s1, out=m)
            # v = beta2*v + (1-beta2)*grad^2   (grad**2 == grad*grad bitwise)
            np.multiply(v, self.beta2, out=v)
            np.multiply(grad, grad, out=s1)
            np.multiply(s1, one_m_b2, out=s1)
            np.add(v, s1, out=v)
            # param -= lr*m_hat / (sqrt(v_hat) + eps)
            np.true_divide(m, bias1, out=s1)     # m_hat
            np.true_divide(v, bias2, out=s2)     # v_hat
            np.sqrt(s2, out=s2)
            np.add(s2, self.eps, out=s2)
            np.multiply(s1, self.lr, out=s1)
            np.true_divide(s1, s2, out=s1)
            np.subtract(param, s1, out=param)
        if self.on_step is not None:
            self.on_step()
