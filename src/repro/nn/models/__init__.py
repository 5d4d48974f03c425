"""The paper's model families (Sec. III), built on :mod:`repro.nn`.

- :mod:`repro.nn.models.cnn` — plain CNN modules (Sec. III-A).
- :mod:`repro.nn.models.resnet` — ResNet blocks with the paper's
  conv-shortcut variant (Fig. 8) plus maxpool/identity ablations.
- :mod:`repro.nn.models.inception` — inception-style modules (GoogLeNet
  family, Sec. III-A).
- :mod:`repro.nn.models.lstm` — LSTM sequence classifiers (Sec. III-B).
- :mod:`repro.nn.models.earlyexit` — two-exit networks with score/entropy
  confidence, the core of Figs. 5 and 7.
- :mod:`repro.nn.models.yolo` — YOLO-style single-shot grid detectors with
  a tiny/full split sharing a stem (Fig. 5).
- :mod:`repro.nn.models.autoencoder` — deep autoencoders and multimodal
  fusion autoencoders (Sec. III-C).
- :mod:`repro.nn.models.cca` — canonical correlation analysis (Sec. III-C).
"""

from repro.nn.models.cnn import SimpleCNN
from repro.nn.models.resnet import ResNetBlock, SmallResNet
from repro.nn.models.inception import InceptionModule, MiniInceptionNet
from repro.nn.models.lstm import LSTMClassifier
from repro.nn.models.earlyexit import EarlyExitNetwork, entropy_confidence, score_confidence
from repro.nn.models.yolo import (
    Detection,
    EarlyExitDetector,
    GroundTruthBox,
    TinyYolo,
    YoloDetector,
    YoloLoss,
    box_iou,
    detection_confidence,
    evaluate_detections,
    non_max_suppression,
)
from repro.nn.models.autoencoder import Autoencoder, MultimodalAutoencoder
from repro.nn.models.cca import CCA

__all__ = [
    "SimpleCNN",
    "ResNetBlock", "SmallResNet",
    "InceptionModule", "MiniInceptionNet",
    "LSTMClassifier",
    "EarlyExitNetwork", "entropy_confidence", "score_confidence",
    "YoloDetector", "TinyYolo", "EarlyExitDetector", "YoloLoss",
    "Detection", "GroundTruthBox", "box_iou", "non_max_suppression",
    "detection_confidence", "evaluate_detections",
    "Autoencoder", "MultimodalAutoencoder",
    "CCA",
]
