"""MLlib-style machine learning over RDDs or arrays (Sec. II-C-3).

Traditional (non-deep) analytics for structured/annotated data: k-means
clustering (crime hotspots), logistic regression (incident triage),
feature scaling, and TF-IDF text features for the tweet pipeline.
"""

from __future__ import annotations

import math
import re
from collections import Counter, defaultdict
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.runtime.core import get_runtime

from repro.compute.rdd import RDD
from repro.nn.dtypes import ensure_float


def _as_matrix(data) -> np.ndarray:
    if isinstance(data, RDD):
        data = data.collect()
    matrix = ensure_float(data)
    if matrix.ndim != 2:
        raise ValueError(f"expected 2-D data, got shape {matrix.shape}")
    return matrix


class KMeans:
    """Lloyd's algorithm with k-means++ seeding: at most 50 iterations,
    stopping once no center moves by 1e-6 or more."""

    def __init__(self, k: int, seed: int = 0):
        if k < 1:
            raise ValueError(f"k must be >= 1: {k}")
        self.k = k
        self.seed = seed
        self.centers: Optional[np.ndarray] = None
        self.iterations_run = 0

    def fit(self, data) -> "KMeans":
        points = _as_matrix(data)
        if len(points) < self.k:
            raise ValueError(f"{len(points)} points cannot form {self.k} clusters")
        rng = get_runtime().rng.np_child("compute.mllib.kmeans", self.seed)
        centers = self._plus_plus_init(points, rng)
        for iteration in range(50):
            assignment = self._assign(points, centers)
            new_centers = centers.copy()
            for cluster in range(self.k):
                members = points[assignment == cluster]
                if len(members):
                    new_centers[cluster] = members.mean(axis=0)
            shift = np.abs(new_centers - centers).max()
            centers = new_centers
            self.iterations_run = iteration + 1
            if shift < 1e-6:
                break
        self.centers = centers
        return self

    def _plus_plus_init(self, points: np.ndarray,
                        rng: np.random.Generator) -> np.ndarray:
        centers = [points[rng.integers(len(points))]]
        for _ in range(1, self.k):
            distances = np.min(
                [((points - c) ** 2).sum(axis=1) for c in centers], axis=0)
            total = distances.sum()
            if total == 0:
                centers.append(points[rng.integers(len(points))])
                continue
            probabilities = distances / total
            centers.append(points[rng.choice(len(points), p=probabilities)])
        return np.array(centers)

    @staticmethod
    def _assign(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
        distances = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        return distances.argmin(axis=1)

    def predict(self, data) -> np.ndarray:
        if self.centers is None:
            raise RuntimeError("KMeans must be fit before predict")
        return self._assign(_as_matrix(data), self.centers)


class LogisticRegression:
    """Binary logistic regression trained by full-batch gradient descent."""

    def __init__(self, lr: float = 0.1, iterations: int = 200):
        if lr <= 0:
            raise ValueError(f"lr must be positive: {lr}")
        self.lr = lr
        self.iterations = iterations
        self.weights: Optional[np.ndarray] = None
        self.bias = 0.0

    def fit(self, data, labels=None) -> "LogisticRegression":
        """Fit on an RDD of (features, label) pairs or on (X, y) arrays."""
        if isinstance(data, RDD):
            pairs = data.collect()
            x = ensure_float([p[0] for p in pairs])
            y = ensure_float([p[1] for p in pairs])
        else:
            x = ensure_float(data)
            y = ensure_float(labels)
        if set(np.unique(y)) - {0.0, 1.0}:
            raise ValueError("labels must be 0/1")
        n, d = x.shape
        self.weights = np.zeros(d)
        self.bias = 0.0
        for _ in range(self.iterations):
            z = x @ self.weights + self.bias
            probs = 1.0 / (1.0 + np.exp(-np.clip(z, -60, 60)))
            error = probs - y
            grad_w = x.T @ error / n
            grad_b = error.mean()
            self.weights -= self.lr * grad_w
            self.bias -= self.lr * grad_b
        return self

    def predict_proba(self, x) -> np.ndarray:
        if self.weights is None:
            raise RuntimeError("model must be fit before predict")
        x = ensure_float(x)
        z = x @ self.weights + self.bias
        return 1.0 / (1.0 + np.exp(-np.clip(z, -60, 60)))

    def predict(self, x) -> np.ndarray:
        return (self.predict_proba(x) >= 0.5).astype(int)

    def accuracy(self, x, y) -> float:
        return float((self.predict(x) == np.asarray(y)).mean())


class StandardScaler:
    """Column-wise zero-mean / unit-variance scaling."""

    def __init__(self):
        self.mean: Optional[np.ndarray] = None
        self.std: Optional[np.ndarray] = None

    def fit(self, data) -> "StandardScaler":
        matrix = _as_matrix(data)
        self.mean = matrix.mean(axis=0)
        self.std = matrix.std(axis=0)
        self.std[self.std == 0] = 1.0
        return self

    def transform(self, data) -> np.ndarray:
        if self.mean is None:
            raise RuntimeError("scaler must be fit before transform")
        return (_as_matrix(data) - self.mean) / self.std

    def fit_transform(self, data) -> np.ndarray:
        return self.fit(data).transform(data)


_TOKEN_RE = re.compile(r"[a-z0-9#@']+")


def tokenize(text: str) -> List[str]:
    """Lowercase word/hashtag/mention tokens."""
    return _TOKEN_RE.findall(text.lower())


class TfIdf:
    """Term-frequency / inverse-document-frequency vectorizer.

    ``fit`` builds the vocabulary and document frequencies from an iterable
    of token lists; ``transform`` maps token lists to dense TF-IDF vectors.
    """

    def __init__(self, max_features: Optional[int] = None):
        self.max_features = max_features
        self.vocabulary: Dict[str, int] = {}
        self.idf: Optional[np.ndarray] = None

    def fit(self, documents: Iterable[Sequence[str]]) -> "TfIdf":
        documents = [list(doc) for doc in documents]
        if not documents:
            raise ValueError("cannot fit on zero documents")
        doc_frequency: Counter = Counter()
        for doc in documents:
            doc_frequency.update(set(doc))
        terms = sorted(doc_frequency, key=lambda t: (-doc_frequency[t], t))
        if self.max_features is not None:
            terms = terms[:self.max_features]
        self.vocabulary = {term: index for index, term in enumerate(terms)}
        n = len(documents)
        self.idf = np.array([
            math.log((1 + n) / (1 + doc_frequency[t])) + 1.0 for t in terms])
        return self

    def transform(self, documents: Iterable[Sequence[str]]) -> np.ndarray:
        if self.idf is None:
            raise RuntimeError("TfIdf must be fit before transform")
        documents = [list(doc) for doc in documents]
        matrix = np.zeros((len(documents), len(self.vocabulary)))
        for row, doc in enumerate(documents):
            counts = Counter(doc)
            length = max(len(doc), 1)
            for term, count in counts.items():
                column = self.vocabulary.get(term)
                if column is not None:
                    matrix[row, column] = count / length
        return matrix * self.idf

    def fit_transform(self, documents) -> np.ndarray:
        return self.fit(documents).transform(documents)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two vectors (0 when either is zero)."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(a @ b / (na * nb))
