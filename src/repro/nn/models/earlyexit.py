"""Two-exit networks: the paper's core inference pattern (Figs. 5 and 7).

An :class:`EarlyExitNetwork` splits a model into a *local* stage (run on an
edge/fog device) and a *remote* stage (run on the analysis server).  The
local stage produces both a cheap classification (exit 1) and a feature map;
when exit 1's confidence clears a threshold the result is accepted locally,
otherwise only the feature map — not the raw frame — is shipped upstream and
refined by the remote stage (exit 2).

Two confidence signals from the paper:

- :func:`score_confidence` — max softmax probability (Fig. 5's "score of the
  classification ... higher than a predefined threshold");
- :func:`entropy_confidence` — negated prediction entropy (Fig. 7's "entropy
  score of Output 1").  Returned as ``-entropy`` so that for both signals
  *larger means more confident* and a single thresholding rule applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro import nn
from repro.nn import functional as F
from repro.nn.dtypes import ensure_float
from repro.nn.inference import eval_mode, observe_inference
from repro.nn.tensor import Tensor

ConfidenceFn = Callable[[np.ndarray], np.ndarray]


def score_confidence(logits: np.ndarray) -> np.ndarray:
    """Max softmax probability per row; in [1/C, 1].

    The top logit's shifted exponent is exactly 1, so the max probability
    is ``1 / Σ exp(l − max)``: the bits of softmax-then-max (division by
    one sum is monotone) without the normalizing pass.
    """
    logits = ensure_float(logits)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return np.reciprocal(np.exp(shifted).sum(axis=-1))


def entropy_confidence(logits: np.ndarray) -> np.ndarray:
    """Negative Shannon entropy of the softmax distribution; <= 0."""
    logits = ensure_float(logits)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=-1, keepdims=True)
    return -F.entropy(probs, axis=-1)


@dataclass
class BatchExitDecisions:
    """Vectorized outcome of early-exit inference for a whole batch.

    Everything is a column over the batch; ``remote_logits`` holds one row
    per *escalated* sample, with ``remote_rows`` mapping those rows back to
    batch positions.  The one result type of early-exit inference: callers
    read columns, never per-row objects.

    A "logit" row is whatever the exit head emits.  For a classification
    head that is ``(C,)`` and ``predictions`` — the arg-max over the last
    axis of the answering exit's row — is the class.  For a dense head
    (the Fig. 5 detector's ``(5 + C, S, S)`` grid) ``predictions`` carries
    no meaning; the answer is decoded from ``local_logits`` for locally
    resolved rows and ``remote_logits`` + ``remote_rows`` for escalated
    ones (:meth:`repro.nn.models.yolo.EarlyExitDetector.detections`).
    """

    predictions: np.ndarray            # (N,) int for classification heads
    exit_index: np.ndarray             # (N,) int; 1 = local, 2 = server
    confidence: np.ndarray             # (N,) exit-1 confidence
    local_logits: np.ndarray           # (N, ...) exit-1 head output
    remote_logits: Optional[np.ndarray]  # (R, ...) for escalated rows
    remote_rows: np.ndarray            # (R,) batch indices of escalated rows

    def __len__(self) -> int:
        return int(self.predictions.shape[0])

    @property
    def local_mask(self) -> np.ndarray:
        return self.exit_index == 1

    @property
    def local_fraction(self) -> float:
        if len(self) == 0:
            return 0.0
        return float(self.local_mask.mean())


class EarlyExitNetwork(nn.Module):
    """A local stage + exit head, and a remote stage + exit head.

    Parameters
    ----------
    local_stage:
        Feature extractor run on the device; output feeds both heads.
    local_head:
        Cheap classifier on the local features (exit 1).
    remote_stage:
        Deeper feature extractor run on the server, consuming the *local
        feature map* (this is the blue line in Fig. 5: the feature map, not
        the raw input, crosses the network).
    remote_head:
        Full classifier on the remote features (exit 2).
    """

    #: submodules that get their own :class:`~repro.nn.plan.PlanCache`.
    PLAN_STAGES = ("local_stage", "local_head", "remote_stage", "remote_head")

    def __init__(self, local_stage: nn.Module, local_head: nn.Module,
                 remote_stage: nn.Module, remote_head: nn.Module):
        super().__init__()
        self.local_stage = local_stage
        self.local_head = local_head
        self.remote_stage = remote_stage
        self.remote_head = remote_head
        self._plan_caches = {}
        #: optional :class:`repro.fog.codec.AutoencoderCodec`: escalated
        #: feature maps round-trip through it before the remote stage,
        #: modelling compressed cross-tier activation shipping.  Plain
        #: attribute on purpose — a codec wraps a Module but is not child
        #: state of this network (it must not leak into ``state_dict`` or
        #: the deployment split).
        self.activation_codec = None

    # -- captured plans -------------------------------------------------------
    def enable_plans(self) -> "EarlyExitNetwork":
        """Run inference through captured plans (see :mod:`repro.nn.plan`).

        The one switch: each of the four submodules gets a
        :class:`PlanCache`, and from then on :meth:`infer_batch` replays
        plans instead of dispatching modules.  A stage captures on its
        first batch and again only when a batch brings more rows than any
        before it; every smaller batch (ragged tails, variable escalation
        counts) is a prefix run of that one plan.  Decisions are
        bit-identical to the eager fast path either way.
        """
        from repro.nn.plan import PlanCache
        self._plan_caches = {
            name: PlanCache(label=f"{type(self).__name__}.{name}")
            for name in self.PLAN_STAGES}
        return self

    def plan_stats(self) -> dict:
        """Per-stage plan-cache statistics (for gateway observability)."""
        return {name: cache.stats()
                for name, cache in self._plan_caches.items()}

    def _run_stage(self, name: str, data: np.ndarray,
                   keep: bool = False) -> np.ndarray:
        """One submodule's no-grad forward: plan replay if enabled, else eager.

        A plan's output is a view into its arena, overwritten by the
        stage's next call; ``keep`` copies it out.  Plans need a row, so
        an empty batch runs eager.
        """
        stage = getattr(self, name)
        cache = self._plan_caches.get(name)
        if cache is None or not data.shape[0]:
            return stage(Tensor(data)).data
        out = cache.run(stage, data)
        return out.copy() if keep else out

    # -- training ------------------------------------------------------------
    def forward(self, x: Tensor) -> Tuple[Tensor, Tensor]:
        """Both exits' logits, for joint training."""
        features = self.local_stage(x)
        local_logits = self.local_head(features)
        remote_logits = self.remote_head(self.remote_stage(features))
        return local_logits, remote_logits

    def joint_loss(self, x: Tensor, targets: np.ndarray,
                   local_weight: float = 0.5) -> Tensor:
        """Weighted sum of both exits' cross-entropy losses."""
        if not 0.0 <= local_weight <= 1.0:
            raise ValueError(f"local_weight must be in [0, 1]: {local_weight}")
        local_logits, remote_logits = self.forward(x)
        return (local_weight * F.cross_entropy(local_logits, targets)
                + (1.0 - local_weight) * F.cross_entropy(remote_logits, targets))

    # -- inference --------------------------------------------------------------
    def _infer_rows(self, rows: np.ndarray, threshold: float,
                    confidence: ConfidenceFn) -> BatchExitDecisions:
        """Early-exit one batch with boolean masks end to end.

        Under plans a stage's output lives in that plan's arena, so what
        outlives the stage's next call is kept (the logits) or gathered
        into a fresh array (the escalated rows, in the feature map's own
        batch-innermost layout).  A plan reads its input in place, so
        handing one stage's arena view to the next moves no bytes.
        """
        feats = self._run_stage("local_stage", rows)
        local_logits = self._run_stage("local_head", feats, keep=True)
        conf = confidence(local_logits)
        needs_remote = conf < threshold
        predictions = local_logits.argmax(axis=-1).astype(int)
        exit_index = np.where(needs_remote, 2, 1)
        remote_rows = np.flatnonzero(needs_remote)
        remote_logits = None
        if remote_rows.size:
            # An all-true mask selects every row in order: skip the gather
            # and hand the stage the features as-is (neither path mutates
            # its input).
            remote_in = (feats if remote_rows.size == feats.shape[0]
                         else F.take_rows(feats, remote_rows))
            if self.activation_codec is not None:
                remote_in = self.activation_codec.transfer(remote_in)
            remote_logits = self._run_stage(
                "remote_head", self._run_stage("remote_stage", remote_in),
                keep=True)
            predictions[remote_rows] = remote_logits.argmax(axis=-1)
        return BatchExitDecisions(
            predictions=predictions,
            exit_index=exit_index,
            confidence=conf,
            local_logits=local_logits,
            remote_logits=remote_logits,
            remote_rows=remote_rows)

    def infer_batch(self, x: Tensor, threshold: float,
                    confidence: ConfidenceFn = score_confidence
                    ) -> BatchExitDecisions:
        """Batched early-exit inference on the fast path.

        Runs the whole batch in eval mode with autograd off and emits
        ``nn.infer.*`` metrics.  Samples whose exit-1 confidence is
        >= ``threshold`` resolve locally; the rest are refined remotely.

        After :meth:`enable_plans` every stage replays a captured plan
        (capturing on first use); plan and eager execution produce
        bit-identical decisions (the kernels mirror the eager ufunc
        sequences), so that switch is purely a performance choice.
        """
        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        with observe_inference(type(self).__name__, int(data.shape[0])):
            with eval_mode(self), nn.no_grad():
                return self._infer_rows(data, threshold, confidence)
