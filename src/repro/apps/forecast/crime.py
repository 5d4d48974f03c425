"""LSTM crime-rate forecasting (Sec. III-B temporal analysis).

The paper's RNN modules target time-series: "LSTM's capability of
discovering long-range correlations is particularly useful for time
series."  :class:`CrimeForecaster` trains an LSTM regressor on daily
per-district crime counts (from the open-city generator, with an injected
weekly seasonality) to predict the next day's count, against the two
standard naive baselines: persistence (tomorrow = today) and the
trailing-window moving average.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.rng import resolve_rng
from repro.runtime.core import get_runtime

from repro import nn
from repro.nn import functional as F
from repro.nn.inference import eval_mode
from repro.nn.tensor import Tensor


class LSTMRegressor(nn.Module):
    """12-unit LSTM over (N, T, 1) windows with a scalar linear head."""

    def __init__(self, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = resolve_rng(rng, "apps.forecast.crime.model")
        self.lstm = nn.LSTM(1, 12, rng=rng)
        self.head = nn.Linear(12, 1, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.head(self.lstm.last_hidden(x))


def seasonal_series(days: int, seed: int = 0) -> np.ndarray:
    """Daily counts with weekend peaks — the structure city crime shows:
    a weekly sine of amplitude 5 around a base of 12 a day, plus unit
    Gaussian noise."""
    rng = get_runtime().rng.np_child("apps.forecast.crime.series", seed)
    t = np.arange(days)
    series = (12.0 + 5.0 * np.sin(2 * np.pi * t / 7.0)
              + rng.normal(0, 1.0, days))
    return np.clip(series, 0, None)


def windows(series: Sequence[float], length: int
            ) -> Tuple[np.ndarray, np.ndarray]:
    """Sliding (window, next value) pairs for supervised training."""
    series = np.asarray(series, dtype=float)
    if length < 1:
        raise ValueError(f"window length must be >= 1: {length}")
    if len(series) <= length:
        raise ValueError(
            f"series of {len(series)} too short for window {length}")
    inputs = np.stack([series[i:i + length]
                       for i in range(len(series) - length)])
    targets = series[length:]
    return inputs[..., None], targets


class CrimeForecaster:
    """Train/evaluate next-day crime-count forecasting."""

    def __init__(self, window: int = 7, seed: int = 0):
        self.window = window
        self.model = LSTMRegressor(
            rng=get_runtime().rng.np_child("apps.forecast.crime.model", seed))
        self._mean = 0.0
        self._std = 1.0

    def _normalize(self, values: np.ndarray) -> np.ndarray:
        return (values - self._mean) / self._std

    def _denormalize(self, values: np.ndarray) -> np.ndarray:
        return values * self._std + self._mean

    def fit(self, series: Sequence[float], epochs: int = 120) -> List[float]:
        inputs, targets = windows(series, self.window)
        self._mean = float(targets.mean())
        self._std = float(targets.std()) or 1.0
        x = self._normalize(inputs)
        y = self._normalize(targets).reshape(-1, 1)
        return nn.fit(
            self.model,
            lambda rows: F.mse_loss(self.model(Tensor(x[rows])),
                                    Tensor(y[rows])),
            len(y), epochs, 0.01)

    def predict(self, series: Sequence[float]) -> np.ndarray:
        """One-step-ahead predictions for every window in ``series``."""
        inputs, _ = windows(series, self.window)
        with eval_mode(self.model), nn.no_grad():
            out = self.model(Tensor(self._normalize(inputs))).data[:, 0]
        return self._denormalize(out)

    def mae(self, series: Sequence[float]) -> float:
        _, targets = windows(series, self.window)
        predictions = self.predict(series)
        return float(np.abs(predictions - targets).mean())

    # -- baselines -----------------------------------------------------------
    @staticmethod
    def persistence_mae(series: Sequence[float], window: int) -> float:
        """Tomorrow = today."""
        _, targets = windows(series, window)
        inputs, _ = windows(series, window)
        last = inputs[:, -1, 0]
        return float(np.abs(last - targets).mean())

    @staticmethod
    def moving_average_mae(series: Sequence[float], window: int) -> float:
        """Tomorrow = mean of the trailing window."""
        inputs, targets = windows(series, window)
        means = inputs[:, :, 0].mean(axis=1)
        return float(np.abs(means - targets).mean())

    def compare(self, series: Sequence[float]) -> Dict[str, float]:
        """MAE of the LSTM vs both naive baselines on held-out data."""
        return {
            "lstm": self.mae(series),
            "persistence": self.persistence_mae(series, self.window),
            "moving_average": self.moving_average_mae(series, self.window),
        }
