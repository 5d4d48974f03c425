"""LSTM sequence classifiers — the RNN module family of Sec. III-B."""

from __future__ import annotations

from typing import Optional

import numpy as np
from repro.runtime.rng import resolve_rng

from repro import nn
from repro.nn.tensor import Tensor


class LSTMClassifier(nn.Module):
    """One-layer LSTM over (N, T, F) sequences, classifying from the last state.

    Used standalone for time-series (crime-rate sequences, tweet-volume
    series) and as the temporal half of the Fig. 7 action-recognition model.
    """

    def __init__(self, input_size: int, hidden_size: int, num_classes: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = resolve_rng(rng, "nn.models.lstm")
        self.lstm = nn.LSTM(input_size, hidden_size, rng=rng)
        self.head = nn.Linear(hidden_size, num_classes, rng=rng)
        self.num_classes = num_classes

    def forward(self, x: Tensor) -> Tensor:
        return self.head(self.lstm.last_hidden(x))
