"""CNNs over geospatial crime "images" (Sec. III-A).

The paper argues that geospatial data — "traffic congestion, criminal
activities, and economic development levels at different locations" — can
be viewed as images and analyzed with CNNs (the AlphaGo analogy).  This
app renders daily crime-incident locations into density grids with
:class:`~repro.compute.geospatial.GridAggregator` and trains a small CNN
to predict which quadrant of the city holds the emerging hotspot,
against a pixel-count baseline that ignores spatial structure.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.runtime.core import get_runtime

from repro import nn
from repro.compute.geospatial import GridAggregator
from repro.compute.mllib import LogisticRegression
from repro.nn import functional as F
from repro.nn.inference import eval_mode
from repro.nn.models.cnn import SimpleCNN
from repro.nn.tensor import Tensor


#: incidents per simulated day: the hotspot's cluster, and the background
CLUSTER_POINTS, NOISE_POINTS = 10, 200


class HotspotCnnApp:
    """Predict the hot quadrant from a noisy daily crime-density grid.

    Each sample is one simulated day: a cluster of
    :data:`CLUSTER_POINTS` incidents in one quadrant plus
    :data:`NOISE_POINTS` uniform background incidents, rasterized to
    ``grid`` x ``grid``.  The task is four-way quadrant classification; the
    interesting regime is high background noise, where counting incidents
    per quadrant (the non-spatial baseline) degrades but the CNN's local
    pattern detection holds up.
    """

    def __init__(self, grid: int = 8, seed: int = 0):
        if grid % 2:
            raise ValueError(f"grid must be even: {grid}")
        self.grid = grid
        self._rng = get_runtime().rng.np_child("apps.geospatial.hotspot", seed)
        self._aggregator = GridAggregator(rows=grid, cols=grid)
        self.model = SimpleCNN(1, grid, num_classes=4, channels=(8,),
                               rng=get_runtime().rng.np_child("apps.geospatial.hotspot.model", seed))

    def _quadrant_center(self, quadrant: int) -> Tuple[float, float]:
        cx = 0.25 if quadrant % 2 == 0 else 0.75
        cy = 0.25 if quadrant < 2 else 0.75
        return cx, cy

    def sample_day(self, quadrant: int) -> np.ndarray:
        """One day's density grid with the hotspot in ``quadrant``."""
        if not 0 <= quadrant < 4:
            raise ValueError(f"quadrant must be 0..3: {quadrant}")
        rng = self._rng
        cx, cy = self._quadrant_center(quadrant)
        cluster = np.clip(
            rng.normal([cx, cy], 0.06, (CLUSTER_POINTS, 2)), 0, 1)
        noise = rng.random((NOISE_POINTS, 2))
        points = np.vstack([cluster, noise])
        return self._aggregator.density(points)

    def dataset(self, days_per_quadrant: int
                ) -> Tuple[np.ndarray, np.ndarray]:
        if days_per_quadrant < 1:
            raise ValueError(
                f"days_per_quadrant must be >= 1: {days_per_quadrant}")
        total = 4 * days_per_quadrant
        images = np.zeros((total, 1, self.grid, self.grid))
        labels = np.zeros(total, dtype=int)
        for index in range(total):
            quadrant = index % 4
            images[index, 0] = self.sample_day(quadrant)
            labels[index] = quadrant
        return images, labels

    def train(self, days_per_quadrant: int = 20, epochs: int = 30,
              lr: float = 0.01) -> List[float]:
        images, labels = self.dataset(days_per_quadrant)
        return nn.fit(
            self.model,
            lambda rows: F.cross_entropy(self.model(Tensor(images[rows])),
                                         labels[rows]),
            len(labels), epochs, lr)

    def evaluate(self, days_per_quadrant: int = 10) -> float:
        images, labels = self.dataset(days_per_quadrant)
        with eval_mode(self.model), nn.no_grad():
            return F.accuracy(self.model(Tensor(images)), labels)

    def quadrant_count_baseline(self, train_days: int = 20,
                                test_days: int = 10) -> float:
        """Non-spatial baseline: logistic regression on per-quadrant sums.

        Collapses each density grid to four quadrant totals — exactly the
        information a district-count report contains — and classifies on
        those.  Ignoring within-quadrant structure costs accuracy in the
        noisy regime, which is the paper's argument for spatial CNNs.
        """
        def featurize(images: np.ndarray) -> np.ndarray:
            half = self.grid // 2
            return np.stack([
                images[:, 0, :half, :half].sum(axis=(1, 2)),
                images[:, 0, :half, half:].sum(axis=(1, 2)),
                images[:, 0, half:, :half].sum(axis=(1, 2)),
                images[:, 0, half:, half:].sum(axis=(1, 2)),
            ], axis=1)

        train_x, train_y = self.dataset(train_days)
        test_x, test_y = self.dataset(test_days)
        # one-vs-rest over four quadrants via four binary models
        features_train = featurize(train_x)
        features_test = featurize(test_x)
        scores = np.zeros((len(test_y), 4))
        for quadrant in range(4):
            model = LogisticRegression(lr=0.3, iterations=200)
            model.fit(features_train, (train_y == quadrant).astype(int))
            scores[:, quadrant] = model.predict_proba(features_test)
        return float((scores.argmax(axis=1) == test_y).mean())
