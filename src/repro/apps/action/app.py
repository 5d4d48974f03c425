"""Action recognition with the Fig. 7 two-exit architecture.

The model mirrors the figure faithfully:

- **local path** (edge/fog device): ResNet block 1 over each frame,
  global-pooled per-frame features -> LSTM 1 -> FC 1 -> Output 1;
- **server path**: the *feature maps from ResNet block 1* (not the raw
  frames) continue through ResNet block 2 -> LSTM 2 -> FC 2 -> Output 2.

If the entropy of Output 1 is low (confident) the clip is indexed on the
local device; otherwise the block-1 feature maps are shipped upstream —
exactly the Fig. 7 control flow.  The ResNet blocks use the paper's
conv-shortcut variant by default (Fig. 8), with the shortcut kind exposed
for the E8 ablation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.runtime.rng import resolve_rng

from repro import nn
from repro.fog.policies import EntropyThresholdPolicy, run_policy_batched
from repro.nn import functional as F
from repro.nn.inference import eval_mode
from repro.nn.models.earlyexit import BatchExitDecisions, EarlyExitNetwork
from repro.nn.models.lstm import LSTMClassifier
from repro.nn.models.resnet import ResNetBlock
from repro.nn.tensor import Tensor
from repro.data.video import ACTION_CLASSES, ActionClipGenerator
from repro.runtime import get_runtime


class PerFrame(nn.Module):
    """Run a frame module over every frame of (N, T, ...) clips.

    Frames fold into the batch axis for the wrapped module and unfold
    again, so a clip stays one row — the unit early exit gathers and
    escalates.
    """

    def __init__(self, module: nn.Module):
        super().__init__()
        self.module = module

    def forward(self, clips: Tensor) -> Tensor:
        n, t = clips.shape[:2]
        out = self.module(clips.reshape(n * t, *clips.shape[2:]))
        return out.reshape(n, t, *out.shape[1:])


class ActionEarlyExitModel(EarlyExitNetwork):
    """ResNet block 1 + LSTM1/FC1 (exit 1); block 2 + LSTM2/FC2 (exit 2).

    An :class:`EarlyExitNetwork` over (N, T, 1, H, W) clips: the local
    stage's output — block 1's per-frame feature maps, (N, T, C1, H/2,
    W/2) — is what feeds exit 1 and what an escalated clip ships upstream.
    The Fig. 7 rule is :class:`repro.fog.policies.EntropyThresholdPolicy`.
    Both blocks take the projection ("conv") shortcut.
    """

    #: channels of block 1's feature maps, the ones an escalated clip ships
    block1_channels = 4

    def __init__(self, image_size: int = 16, num_classes: int = 5,
                 rng: Optional[np.random.Generator] = None):
        rng = resolve_rng(rng, "apps.action.model")
        block1_channels = self.block1_channels
        block1 = ResNetBlock(1, block1_channels, stride=2,
                             shortcut="conv", rng=rng)
        block2 = ResNetBlock(block1_channels, 8, stride=2,
                             shortcut="conv", rng=rng)
        # Exit heads: per-frame pooled features -> LSTM -> FC (8 and 16
        # hidden units).
        head1 = LSTMClassifier(block1_channels, 8, num_classes, rng=rng)
        head2 = LSTMClassifier(8, 16, num_classes, rng=rng)
        super().__init__(
            PerFrame(block1),
            nn.Sequential(PerFrame(nn.GlobalAvgPool2d()), head1),
            PerFrame(block2),
            nn.Sequential(PerFrame(nn.GlobalAvgPool2d()), head2))
        self.image_size = image_size
        self.num_classes = num_classes

    def feature_map_bytes(self, frames: int) -> int:
        """Bytes of block-1 feature maps shipped upstream per clip (fp32)."""
        half = self.image_size // 2
        return frames * self.block1_channels * half * half * 4

    def raw_clip_bytes(self, frames: int) -> int:
        return frames * self.image_size * self.image_size  # uint8 grayscale


class ActionRecognitionApp:
    """Train/evaluate the Fig. 7 pipeline on synthetic behaviour clips."""

    def __init__(self, image_size: int = 16, frames: int = 6, seed: int = 0):
        self.runtime = get_runtime()
        self.clips = ActionClipGenerator(image_size=image_size,
                                         frames=frames, seed=seed)
        self.model = ActionEarlyExitModel(
            image_size=image_size,
            num_classes=self.clips.num_classes,
            rng=self.runtime.rng.np_child("apps.action.model", seed))
        self.seed = seed
        self.class_names = ACTION_CLASSES

    def train(self, clips_per_class: int = 6, epochs: int = 20,
              lr: float = 0.01, batch_size: int = 10) -> List[float]:
        data, labels = self.clips.dataset(clips_per_class)
        return nn.fit(
            self.model,
            lambda rows: self.model.joint_loss(Tensor(data[rows]), labels[rows]),
            len(labels), epochs, lr, batch_size,
            self.runtime.rng.np_child("apps.action.train.sgd", self.seed))

    def exit_accuracies(self, clips_per_class: int = 4) -> Dict[str, float]:
        """Accuracy of each exit alone on fresh clips."""
        data, labels = self.clips.dataset(clips_per_class)
        with eval_mode(self.model), nn.no_grad():
            local, remote = self.model.forward(Tensor(data))
        return {
            "local": F.accuracy(local, labels),
            "remote": F.accuracy(remote, labels),
        }

    def entropy_sweep(self, max_entropies: Sequence[float],
                      clips_per_class: int = 4) -> List[Dict]:
        """The Fig. 7 tradeoff: accuracy / offload per entropy threshold."""
        data, labels = self.clips.dataset(clips_per_class)
        clip_bytes = self.model.feature_map_bytes(data.shape[1])
        rows = []
        for max_entropy in max_entropies:
            decisions = run_policy_batched(
                self.model, data, EntropyThresholdPolicy(max_entropy))
            escalated = int(decisions.remote_rows.size)
            rows.append({
                "max_entropy": max_entropy,
                "accuracy": float((decisions.predictions == labels).mean()),
                "local_fraction": decisions.local_fraction,
                "bytes_shipped": escalated * clip_bytes,
            })
        return rows

    def index_alerts(self, collection, decisions: BatchExitDecisions,
                     camera_id: str, suspicious_classes: Sequence[int]
                     ) -> int:
        """Log recognized suspicious activity for the human operator.

        Mirrors the paper's flow: time, location (camera), activity type
        and exit tier are written to a database and an alert row is
        flagged for review.  ``decisions`` is an ``infer_batch`` result;
        its confidence column is the negated exit-1 entropy.
        """
        alerts = [{
            "camera_id": camera_id,
            "clip_index": int(row),
            "activity": self.class_names[decisions.predictions[row]],
            "exit": int(decisions.exit_index[row]),
            "entropy": float(-decisions.confidence[row]),
            "needs_review": True,
        } for row in np.flatnonzero(
            np.isin(decisions.predictions, suspicious_classes))]
        if alerts:
            collection.insert_many(alerts)
        return len(alerts)
