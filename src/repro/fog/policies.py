"""Exit policies: when may a tier keep a result instead of escalating?

The paper uses two concrete rules:

- Fig. 5 (vehicle detection): accept locally when the classification
  *score* exceeds a threshold — :class:`ScoreThresholdPolicy` over class
  logits, or ``ExitPolicy(threshold, detection_confidence)`` over the
  detector's raw grid (:func:`repro.nn.models.yolo.detection_confidence`);
- Fig. 7 (action recognition): accept locally when the prediction
  *entropy* is low — :class:`EntropyThresholdPolicy`.

Both reduce to "confidence >= threshold" with an appropriate confidence
function, so downstream code only sees the :class:`ExitPolicy` interface.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn.models.earlyexit import (
    BatchExitDecisions,
    entropy_confidence,
    score_confidence,
)


class ExitPolicy:
    """Base: decides per-row whether logits are confident enough to exit."""

    def __init__(self, threshold: float,
                 confidence_fn: Callable[[np.ndarray], np.ndarray]):
        self.threshold = threshold
        self.confidence_fn = confidence_fn

    def confidences(self, logits: np.ndarray) -> np.ndarray:
        return self.confidence_fn(np.asarray(logits))

    def should_exit(self, logits: np.ndarray) -> np.ndarray:
        """Boolean mask per row: True = resolve at this tier."""
        return self.confidences(logits) >= self.threshold


class ScoreThresholdPolicy(ExitPolicy):
    """Exit when max softmax probability >= threshold (Fig. 5)."""

    def __init__(self, threshold: float):
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"score threshold must be in [0, 1]: {threshold}")
        super().__init__(threshold, score_confidence)


class EntropyThresholdPolicy(ExitPolicy):
    """Exit when prediction entropy <= max_entropy nats (Fig. 7).

    Internally negated so the shared >=-threshold rule applies.
    """

    def __init__(self, max_entropy: float):
        if max_entropy < 0:
            raise ValueError(f"max_entropy must be >= 0: {max_entropy}")
        self.max_entropy = max_entropy
        super().__init__(-max_entropy, entropy_confidence)


def run_policy_batched(model, x, policy: ExitPolicy) -> BatchExitDecisions:
    """Drive an early-exit model with a policy on the batched fast path.

    ``model`` is anything with the
    :meth:`repro.nn.models.earlyexit.EarlyExitNetwork.infer_batch` contract.
    The policy's confidence function and threshold become the exit rule, so
    the Fig. 5 (score) and Fig. 7 (entropy) policies both run through one
    vectorized, no-grad, whole-batch path.
    """
    return model.infer_batch(x, policy.threshold,
                             confidence=policy.confidence_fn)
