"""Audio+video gunshot detection by multimodal fusion (Sec. III-C).

The paper's example: combine video (image) and sound (audio) for gunshots.
The synthetic event generator is built so that *neither modality alone
separates the classes*:

- a **gunshot** has an impulsive audio signature *and* a muzzle-flash video
  signature;
- **fireworks** mimic the flash (video confuser) with a different audio
  envelope;
- a **car backfire** mimics the impulse (audio confuser) with no flash.

An audio-only or video-only classifier is therefore fooled by its confuser;
fusing the modalities — through a multimodal autoencoder or CCA — recovers
near-perfect separation.  This is the behaviour benchmark E11 reports.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.runtime.core import get_runtime

from repro import nn
from repro.compute.mllib import LogisticRegression
from repro.nn.models.autoencoder import MultimodalAutoencoder
from repro.nn.models.cca import CCA
from repro.nn.tensor import Tensor

EVENT_CLASSES = ("gunshot", "fireworks", "backfire")

#: standard deviation of the noise on every audio and video feature
SENSOR_NOISE = 0.35


class GunshotEventGenerator:
    """Paired (audio, video) feature vectors with event labels.

    Audio features: a 20-bin spectrogram-like envelope.  Gunshots and
    backfires share an impulsive envelope; fireworks have a crackling,
    spread envelope.  Video features: a 16-dim brightness-transient vector.
    Gunshots and fireworks share a flash transient; backfires are flat.
    Both modalities carry Gaussian noise of standard deviation
    :data:`SENSOR_NOISE`.
    """

    def __init__(self, seed: int = 0):
        self._rng = get_runtime().rng.np_child("apps.fusion.gunshot", seed)
        self.audio_dim = 20
        self.video_dim = 16
        # Prototype envelopes.
        t = np.linspace(0, 1, self.audio_dim)
        self._impulse = np.exp(-8 * t)                       # sharp decay
        self._crackle = 0.5 + 0.4 * np.sin(12 * np.pi * t)   # spread, bumpy
        v = np.linspace(0, 1, self.video_dim)
        self._flash = np.exp(-((v - 0.3) ** 2) / 0.01)       # bright transient
        self._flat = np.full(self.video_dim, 0.1)

    def sample(self, label: int) -> Tuple[np.ndarray, np.ndarray]:
        if label not in (0, 1, 2):
            raise ValueError(f"label must be 0..2: {label}")
        rng = self._rng
        name = EVENT_CLASSES[label]
        audio = self._impulse if name in ("gunshot", "backfire") else self._crackle
        video = self._flash if name in ("gunshot", "fireworks") else self._flat
        return (audio + rng.normal(0, SENSOR_NOISE, self.audio_dim),
                video + rng.normal(0, SENSOR_NOISE, self.video_dim))

    def dataset(self, per_class: int
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(audio, video, binary labels): 1 = gunshot, 0 = confuser."""
        if per_class < 1:
            raise ValueError(f"per_class must be >= 1: {per_class}")
        total = per_class * len(EVENT_CLASSES)
        audio = np.zeros((total, self.audio_dim))
        video = np.zeros((total, self.video_dim))
        labels = np.zeros(total, dtype=int)
        for index in range(total):
            event = index % len(EVENT_CLASSES)
            audio[index], video[index] = self.sample(event)
            labels[index] = 1 if event == 0 else 0
        return audio, video, labels


class GunshotFusionApp:
    """Trains single-modality baselines and both fusion methods."""

    def __init__(self, seed: int = 0):
        self.generator = GunshotEventGenerator(seed=seed)
        self.seed = seed

    def _fit_logistic(self, features: np.ndarray, labels: np.ndarray,
                      test_features: np.ndarray, test_labels: np.ndarray
                      ) -> float:
        model = LogisticRegression(lr=0.3, iterations=400)
        model.fit(features, labels)
        return model.accuracy(test_features, test_labels)

    def _trained_autoencoder(self, audio: np.ndarray, video: np.ndarray,
                             epochs: int) -> MultimodalAutoencoder:
        """A fusion autoencoder fitted full-batch to reconstruct both
        modalities, returned in eval mode."""
        ae = MultimodalAutoencoder(
            self.generator.audio_dim, self.generator.video_dim,
            encoder_dim=16, code_dim=8,
            rng=get_runtime().rng.np_child("apps.fusion.gunshot.ae", self.seed))
        nn.fit(ae, lambda rows: ae.reconstruction_loss(
            Tensor(audio[rows]), Tensor(video[rows])), len(audio), epochs, 0.01)
        ae.eval()
        return ae

    def run(self, train_per_class: int = 60, test_per_class: int = 40,
            ae_epochs: int = 150) -> Dict[str, float]:
        """Accuracies of audio-only, video-only, AE fusion and CCA fusion."""
        audio_tr, video_tr, y_tr = self.generator.dataset(train_per_class)
        audio_te, video_te, y_te = self.generator.dataset(test_per_class)

        results = {
            "audio_only": self._fit_logistic(audio_tr, y_tr, audio_te, y_te),
            "video_only": self._fit_logistic(video_tr, y_tr, video_te, y_te),
            "concat": self._fit_logistic(
                np.hstack([audio_tr, video_tr]), y_tr,
                np.hstack([audio_te, video_te]), y_te),
        }

        # Autoencoder fusion: train reconstruction, classify on shared code.
        ae = self._trained_autoencoder(audio_tr, video_tr, ae_epochs)
        code_tr = ae.fuse(Tensor(audio_tr), Tensor(video_tr)).data
        code_te = ae.fuse(Tensor(audio_te), Tensor(video_te)).data
        results["ae_fusion"] = self._fit_logistic(code_tr, y_tr, code_te, y_te)

        # CCA fusion: canonical projections concatenated.  Weaker than the
        # trained autoencoder (it is unsupervised and linear) but still
        # beats either modality alone.
        cca = CCA(n_components=8).fit(audio_tr, video_tr)
        fused_tr = cca.fused_features(audio_tr, video_tr)
        fused_te = cca.fused_features(audio_te, video_te)
        results["cca_fusion"] = self._fit_logistic(fused_tr, y_tr,
                                                   fused_te, y_te)
        return results

    def missing_modality_accuracy(self, train_per_class: int = 60,
                                  test_per_class: int = 40,
                                  ae_epochs: int = 150) -> Dict[str, float]:
        """AE-fusion robustness when one modality is absent at test time."""
        audio_tr, video_tr, y_tr = self.generator.dataset(train_per_class)
        audio_te, video_te, y_te = self.generator.dataset(test_per_class)
        ae = self._trained_autoencoder(audio_tr, video_tr, ae_epochs)
        code_tr = ae.fuse(Tensor(audio_tr), Tensor(video_tr)).data
        classifier = LogisticRegression(lr=0.3, iterations=400)
        classifier.fit(code_tr, y_tr)
        full = classifier.accuracy(
            ae.fuse(Tensor(audio_te), Tensor(video_te)).data, y_te)
        audio_only = classifier.accuracy(
            ae.fuse_partial(a=Tensor(audio_te)).data, y_te)
        video_only = classifier.accuracy(
            ae.fuse_partial(b=Tensor(video_te)).data, y_te)
        return {"both": full, "audio_missing_video": audio_only,
                "video_missing_audio": video_only}
