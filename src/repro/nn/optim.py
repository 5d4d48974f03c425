"""Gradient-descent optimizers.

Every optimizer counts its steps in the shared runtime registry's
``nn.optim.steps`` (labeled by optimizer class).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.nn.tensor import Tensor
from repro.runtime import get_runtime


class Optimizer:
    """Base optimizer holding a parameter list."""

    def __init__(self, parameters: Sequence[Tensor], lr: float):
        parameters = list(parameters)
        if not parameters:
            raise ValueError("optimizer needs at least one parameter")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive: {lr}")
        self.parameters = parameters
        self.lr = lr
        self._steps = get_runtime().registry.counter(
            "nn.optim.steps", "optimizer steps taken")

    def _record_step(self) -> None:
        self._steps.inc(opt=type(self).__name__)

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def clip_grad_norm(self, max_norm: float) -> float:
        """Scale all gradients so their global L2 norm is at most ``max_norm``."""
        total = 0.0
        for param in self.parameters:
            if param.grad is not None:
                total += float((param.grad ** 2).sum())
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for param in self.parameters:
                if param.grad is not None:
                    param.grad *= scale
        return norm


class SGD(Optimizer):
    """Plain stochastic gradient descent: ``param -= lr * grad``."""

    def __init__(self, parameters: Sequence[Tensor], lr: float = 0.01):
        super().__init__(parameters, lr)

    def step(self) -> None:
        self._record_step()
        for param in self.parameters:
            if param.grad is not None:
                param.data -= self.lr * param.grad


#: Adam's moment decay rates and denominator floor (Kingma & Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba)."""

    def __init__(self, parameters: Sequence[Tensor], lr: float = 1e-3):
        super().__init__(parameters, lr)
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t = 0

    def step(self) -> None:
        self._record_step()
        self._t += 1
        bias1 = 1.0 - ADAM_BETA1 ** self._t
        bias2 = 1.0 - ADAM_BETA2 ** self._t
        for param in self.parameters:
            if param.grad is None:
                continue
            grad = param.grad
            key = id(param)
            m = self._m.get(key)
            v = self._v.get(key)
            if m is None:
                m = np.zeros_like(param.data)
                v = np.zeros_like(param.data)
            m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * grad
            v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * grad ** 2
            self._m[key], self._v[key] = m, v
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
