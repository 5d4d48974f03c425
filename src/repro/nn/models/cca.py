"""Canonical correlation analysis — the second fusion method of Sec. III-C.

Classical linear CCA fit in closed form from covariance matrices.  Given two
views X (n x p) and Y (n x q), finds projection matrices maximizing the
correlation between projected pairs.  The projected, concatenated views are
the fused multimodal features.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.dtypes import ensure_float
from scipy import linalg


#: ridge term added to each view's covariance
RIDGE = 1e-6


class CCA:
    """Linear canonical correlation analysis.

    Parameters
    ----------
    n_components:
        Number of canonical pairs to keep.

    Each view's covariance carries a ridge of :data:`RIDGE` for numerical
    stability.
    """

    def __init__(self, n_components: int = 2):
        if n_components < 1:
            raise ValueError(f"n_components must be >= 1: {n_components}")
        self.n_components = n_components
        self.weights_x: Optional[np.ndarray] = None
        self.weights_y: Optional[np.ndarray] = None
        self.mean_x: Optional[np.ndarray] = None
        self.mean_y: Optional[np.ndarray] = None
        self.correlations: Optional[np.ndarray] = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "CCA":
        x = ensure_float(x)
        y = ensure_float(y)
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"views disagree on sample count: {x.shape[0]} vs {y.shape[0]}")
        n, p = x.shape
        q = y.shape[1]
        k = min(self.n_components, p, q)
        self.mean_x = x.mean(axis=0)
        self.mean_y = y.mean(axis=0)
        xc = x - self.mean_x
        yc = y - self.mean_y
        cxx = xc.T @ xc / (n - 1) + RIDGE * np.eye(p)
        cyy = yc.T @ yc / (n - 1) + RIDGE * np.eye(q)
        cxy = xc.T @ yc / (n - 1)
        # Whitened cross-covariance SVD formulation.
        cxx_inv_sqrt = _inv_sqrt(cxx)
        cyy_inv_sqrt = _inv_sqrt(cyy)
        t = cxx_inv_sqrt @ cxy @ cyy_inv_sqrt
        u, singular_values, vt = np.linalg.svd(t)
        self.weights_x = cxx_inv_sqrt @ u[:, :k]
        self.weights_y = cyy_inv_sqrt @ vt.T[:, :k]
        self.correlations = np.clip(singular_values[:k], 0.0, 1.0)
        return self

    def transform(self, x: Optional[np.ndarray] = None,
                  y: Optional[np.ndarray] = None
                  ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """Project one or both views into canonical space."""
        if self.weights_x is None:
            raise RuntimeError("CCA must be fit before transform")
        out_x = out_y = None
        if x is not None:
            out_x = (ensure_float(x) - self.mean_x) @ self.weights_x
        if y is not None:
            out_y = (ensure_float(y) - self.mean_y) @ self.weights_y
        return out_x, out_y

    def fused_features(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Concatenated canonical projections — the fused representation."""
        px, py = self.transform(x, y)
        return np.concatenate([px, py], axis=1)

    def score(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-component empirical correlations on held-out data."""
        px, py = self.transform(x, y)
        corrs = []
        for component in range(px.shape[1]):
            a, b = px[:, component], py[:, component]
            denom = a.std() * b.std()
            corrs.append(float(((a - a.mean()) * (b - b.mean())).mean() / denom)
                         if denom > 0 else 0.0)
        return np.array(corrs)


def _inv_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Inverse matrix square root via eigendecomposition."""
    values, vectors = linalg.eigh(matrix)
    values = np.clip(values, 1e-12, None)
    return vectors @ np.diag(values ** -0.5) @ vectors.T
