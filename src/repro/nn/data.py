"""Datasets, the minibatch iterator, the training loop and the
data-parallel trainer: the training workflow the paper runs on
TensorFlow (Sec. II-C-1).

:class:`DataLoader` batches anything sized and indexable by an integer
index array (an :class:`ArrayDataset`, or ``np.arange(n)`` row numbers);
a shuffled epoch's order is ``rng.shuffle(np.arange(n))``, the same draw
as ``rng.permutation(n)``.  :func:`fit`, Adam over a ``loss(rows)``
closure fed by a loader, is the one loop every Sec. III/IV model trains
through.  :class:`DataParallelTrainer` simulates synchronous
data-parallel SGD across N workers (gradient averaging).
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.modules import Module
from repro.nn.optim import Adam, Optimizer
from repro.nn.tensor import Tensor
from repro.runtime.rng import resolve_rng


class ArrayDataset:
    """Paired (inputs, targets) arrays with len/indexing."""

    def __init__(self, inputs: np.ndarray, targets: np.ndarray):
        inputs = np.asarray(inputs)
        targets = np.asarray(targets)
        if len(inputs) != len(targets):
            raise ValueError(
                f"inputs and targets disagree on length: {len(inputs)} vs {len(targets)}")
        self.inputs = inputs
        self.targets = targets

    def __len__(self) -> int:
        return len(self.inputs)

    def __getitem__(self, index) -> Tuple[np.ndarray, np.ndarray]:
        return self.inputs[index], self.targets[index]

    def split(self, fraction: float, rng: Optional[np.random.Generator] = None
              ) -> Tuple["ArrayDataset", "ArrayDataset"]:
        """Shuffled train/test split; ``fraction`` goes to the first part."""
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1): {fraction}")
        rng = resolve_rng(rng, "nn.data.split")
        order = rng.permutation(len(self))
        cut = int(len(self) * fraction)
        head, tail = order[:cut], order[cut:]
        return (ArrayDataset(self.inputs[head], self.targets[head]),
                ArrayDataset(self.inputs[tail], self.targets[tail]))


class DataLoader:
    """Mini-batch iterator with optional shuffling (see the module notes)."""

    def __init__(self, dataset, batch_size: int, shuffle: bool = False,
                 rng: Optional[np.random.Generator] = None):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1: {batch_size}")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self._rng = resolve_rng(rng, "nn.data.loader")

    def __len__(self) -> int:
        return -(-len(self.dataset) // self.batch_size)

    def __iter__(self) -> Iterator:
        order = np.arange(len(self.dataset))
        if self.shuffle:
            self._rng.shuffle(order)
        for start in range(0, len(order), self.batch_size):
            yield self.dataset[order[start:start + self.batch_size]]


def fit(model: Module, loss: Callable[[np.ndarray], Tensor], num_rows: int,
        epochs: int, lr: float, batch_size: Optional[int] = None,
        rng: Optional[np.random.Generator] = None) -> List[float]:
    """Train ``model`` with Adam; returns each epoch's mean batch loss.

    The training rows are numbered ``0 .. num_rows - 1``; each step calls
    ``loss(rows)`` with one batch's index array, and the closure picks
    its own inputs and targets with it.  A batch holds ``batch_size``
    rows (all of them when it is None), drawn in a fresh shuffled order
    each epoch when ``rng`` is given and in row order otherwise.
    """
    optimizer = Adam(model.parameters(), lr=lr)
    batches = DataLoader(np.arange(num_rows), batch_size or num_rows,
                         shuffle=rng is not None, rng=rng)
    losses = []
    for _ in range(epochs):
        epoch = []
        for rows in batches:
            optimizer.zero_grad()
            value = loss(rows)
            value.backward()
            optimizer.step()
            epoch.append(value.item())
        losses.append(float(np.mean(epoch)))
    return losses


class DataParallelTrainer:
    """Synchronous data-parallel SGD across ``num_workers`` logical workers.

    Each step shards the batch, computes per-shard gradients on the shared
    model parameters, averages them (the all-reduce), and applies one
    optimizer step.  Numerically this matches large-batch single-worker
    training; the point is to exercise and measure the paper's distributed
    training workflow on the simulated cluster.
    """

    def __init__(self, model: Module, optimizer: Optimizer,
                 loss_fn: Callable[[Tensor, np.ndarray], Tensor],
                 num_workers: int = 2):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1: {num_workers}")
        self.model = model
        self.optimizer = optimizer
        self.loss_fn = loss_fn
        self.num_workers = num_workers

    def step(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        shards_x = np.array_split(inputs, self.num_workers)
        shards_y = np.array_split(targets, self.num_workers)
        parameters = self.model.parameters()
        grad_sums = [None] * len(parameters)
        total_loss = 0.0
        used = 0
        for shard_x, shard_y in zip(shards_x, shards_y):
            if len(shard_x) == 0:
                continue
            self.model.zero_grad()
            loss = self.loss_fn(self.model(Tensor(shard_x)), shard_y)
            loss.backward()
            total_loss += loss.item() * len(shard_x)
            used += len(shard_x)
            for index, param in enumerate(parameters):
                if param.grad is None:
                    continue
                if grad_sums[index] is None:
                    grad_sums[index] = param.grad * len(shard_x)
                else:
                    grad_sums[index] += param.grad * len(shard_x)
        # all-reduce: weighted average over shards
        for param, grad in zip(parameters, grad_sums):
            param.grad = None if grad is None else grad / max(used, 1)
        self.optimizer.step()
        self.model.zero_grad()
        return total_loss / max(used, 1)
