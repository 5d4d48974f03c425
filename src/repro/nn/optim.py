"""Gradient-descent optimizers.

Every optimizer reports through the shared runtime registry: counter
``nn.optim.steps`` (labeled by optimizer class) and histogram
``nn.optim.grad_norm`` for observed pre-clip gradient norms.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.nn.tensor import Tensor
from repro.runtime import get_runtime


class Optimizer:
    """Base optimizer holding a parameter list."""

    def __init__(self, parameters: Sequence[Tensor], lr: float, runtime=None):
        parameters = list(parameters)
        if not parameters:
            raise ValueError("optimizer needs at least one parameter")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive: {lr}")
        self.parameters = parameters
        self.lr = lr
        self.runtime = runtime or get_runtime()
        registry = self.runtime.registry
        self._steps = registry.counter(
            "nn.optim.steps", "optimizer steps taken")
        self._grad_norm = registry.histogram(
            "nn.optim.grad_norm", "pre-clip global gradient L2 norms")

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
        self._grad_norm.observe(norm, opt=type(self).__name__)
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for param in self.parameters:
                if param.grad is not None:
                    param.grad *= scale
        return norm


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, parameters: Sequence[Tensor], lr: float = 0.01,
                 momentum: float = 0.0, weight_decay: float = 0.0,
                 runtime=None):
        super().__init__(parameters, lr, runtime=runtime)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1): {momentum}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        self._record_step()
        for param in self.parameters:
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity = self._velocity.get(id(param))
                if velocity is None:
                    velocity = np.zeros_like(param.data)
                velocity = self.momentum * velocity + grad
                self._velocity[id(param)] = velocity
                grad = velocity
            param.data -= self.lr * grad


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba)."""

    def __init__(self, parameters: Sequence[Tensor], lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0, runtime=None):
        super().__init__(parameters, lr, runtime=runtime)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t = 0

    def step(self) -> None:
        self._record_step()
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for param in self.parameters:
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            key = id(param)
            m = self._m.get(key)
            v = self._v.get(key)
            if m is None:
                m = np.zeros_like(param.data)
                v = np.zeros_like(param.data)
            m = self.beta1 * m + (1 - self.beta1) * grad
            v = self.beta2 * v + (1 - self.beta2) * grad ** 2
            self._m[key], self._v[key] = m, v
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
