"""Distributed training simulations: parameter server with staleness.

Sec. II-C-1 picks TensorFlow "because it provides model and data
parallelism and can be easily distributed among multiple nodes and
multiple workers per node".  :class:`repro.nn.data.DataParallelTrainer`
models the synchronous all-reduce regime; this module models the *other*
classic regime — an asynchronous parameter server:

- a :class:`ParameterServer` owns the canonical weights;
- :class:`AsyncWorker` replicas pull weights, compute gradients on their
  shard, and push updates that may be *stale* (computed against an older
  weight version);
- :class:`ParameterServerTrainer` interleaves workers round-robin with a
  configurable pull period, so the staleness ablation (how much async lag
  hurts convergence) is directly measurable.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.nn.grad_mode import no_grad
from repro.nn.inference import eval_mode
from repro.nn.modules import Module
from repro.nn.tensor import Tensor
from repro.runtime import get_runtime


class ParameterServer:
    """Canonical weights plus an SGD apply rule and a version counter."""

    def __init__(self, model: Module, lr: float = 0.05):
        if lr <= 0:
            raise ValueError(f"lr must be positive: {lr}")
        self.model = model
        self.lr = lr
        self.version = 0
        self.updates_applied = 0
        self.total_staleness = 0

    def pull(self) -> Tuple[int, Dict[str, np.ndarray]]:
        """Current (version, weights snapshot)."""
        return self.version, {name: param.data.copy()
                              for name, param in self.model.named_parameters()}

    def push(self, gradients: Dict[str, np.ndarray],
             computed_at_version: int) -> int:
        """Apply a (possibly stale) gradient; returns its staleness."""
        staleness = self.version - computed_at_version
        if staleness < 0:
            raise ValueError("gradient from the future")
        own = dict(self.model.named_parameters())
        unknown = set(gradients) - set(own)
        if unknown:
            raise KeyError(f"gradients for unknown parameters: {sorted(unknown)}")
        for name, gradient in gradients.items():
            own[name].data -= self.lr * gradient
        self.version += 1
        self.updates_applied += 1
        self.total_staleness += staleness
        return staleness

    @property
    def mean_staleness(self) -> float:
        if self.updates_applied == 0:
            return 0.0
        return self.total_staleness / self.updates_applied


class AsyncWorker:
    """One replica: local weights copy + gradient computation on a shard."""

    def __init__(self, name: str, build_model: Callable[[], Module],
                 loss_fn: Callable[[Tensor, np.ndarray], Tensor]):
        self.name = name
        self.model = build_model()
        self.loss_fn = loss_fn
        self.held_version = -1

    def refresh(self, server: ParameterServer) -> None:
        version, weights = server.pull()
        self.model.load_state_dict(weights)
        self.held_version = version

    def compute_gradients(self, inputs: np.ndarray, targets: np.ndarray
                          ) -> Tuple[Dict[str, np.ndarray], float]:
        self.model.zero_grad()
        loss = self.loss_fn(self.model(Tensor(inputs)), targets)
        loss.backward()
        gradients = {name: param.grad.copy()
                     for name, param in self.model.named_parameters()
                     if param.grad is not None}
        return gradients, loss.item()


class ParameterServerTrainer:
    """Round-robin async training over N workers.

    Parameters
    ----------
    pull_period:
        Workers refresh their weights every ``pull_period`` of their own
        steps.  ``pull_period=1`` is fully fresh (equivalent to sequential
        SGD); larger values increase gradient staleness — the ablation
        benchmark E16 sweeps this.
    """

    def __init__(self, build_model: Callable[[], Module],
                 loss_fn: Callable[[Tensor, np.ndarray], Tensor],
                 num_workers: int = 4, lr: float = 0.05,
                 pull_period: int = 1):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1: {num_workers}")
        if pull_period < 1:
            raise ValueError(f"pull_period must be >= 1: {pull_period}")
        self.server = ParameterServer(build_model(), lr=lr)
        self.workers = [AsyncWorker(f"worker-{i}", build_model, loss_fn)
                        for i in range(num_workers)]
        self.pull_period = pull_period
        self._worker_steps = [0] * num_workers
        self.losses: List[float] = []

    def run(self, inputs: np.ndarray, targets: np.ndarray,
            steps: int, batch_size: int = 16) -> List[float]:
        """Run ``steps`` pushes round-robin across workers."""
        rng = get_runtime().rng.np_child("nn.distributed.batches", 0)
        n = len(inputs)
        for step in range(steps):
            worker_index = step % len(self.workers)
            worker = self.workers[worker_index]
            if self._worker_steps[worker_index] % self.pull_period == 0:
                worker.refresh(self.server)
            self._worker_steps[worker_index] += 1
            batch = rng.integers(0, n, size=min(batch_size, n))
            gradients, loss = worker.compute_gradients(
                inputs[batch], targets[batch])
            self.server.push(gradients, worker.held_version)
            self.losses.append(loss)
        return self.losses

    def evaluate(self, inputs: np.ndarray, targets: np.ndarray,
                 metric: Callable[[Tensor, np.ndarray], float]) -> float:
        with eval_mode(self.server.model), no_grad():
            return metric(self.server.model(Tensor(inputs)), targets)
