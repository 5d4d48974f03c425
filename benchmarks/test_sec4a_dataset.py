"""E10 — Sec. IV-A-1 text: the 32,000-image / 400-class vehicle dataset.

The paper combines the Stanford car dataset with crawled images into
"32,000 images for 400 classes".  This bench assembles the synthetic
equivalent at the exact paper scale, verifies class balance and label
uniqueness, and trains a classifier head on a subset to confirm the
dataset is learnable.
"""

import numpy as np

from benchmarks.helpers import print_table
from repro import nn
from repro.nn import functional as F
from repro.data.video import SceneGenerator, VehicleCatalog
from repro.nn.tensor import Tensor


def test_sec4a_dataset_assembly(benchmark):
    generator = SceneGenerator(image_size=8, num_classes=400, seed=0)

    def assemble():
        return generator.classification_dataset(32_000, patch_size=8)

    images, labels = benchmark.pedantic(assemble, rounds=1, iterations=1)
    catalog = VehicleCatalog(400)
    class_counts = np.bincount(labels, minlength=400)
    rows = [
        {"property": "images", "measured": len(images), "paper": 32_000},
        {"property": "classes", "measured": int(len(set(labels))),
         "paper": 400},
        {"property": "min images/class", "measured": int(class_counts.min()),
         "paper": "balanced"},
        {"property": "max images/class", "measured": int(class_counts.max()),
         "paper": "balanced"},
        {"property": "distinct labels",
         "measured": len(set(catalog.labels())), "paper": 400},
    ]
    print_table("Sec. IV-A-1 — dataset assembly", rows,
                ["property", "measured", "paper"])

    assert images.shape == (32_000, 1, 8, 8)
    assert len(set(labels)) == 400
    assert class_counts.min() == 80 and class_counts.max() == 80
    assert len(set(catalog.labels())) == 400


def test_sec4a_subset_learnable(benchmark):
    # A 10-class subset must be learnable by a small classifier head —
    # evidence that class signatures carry signal at the paper scale.
    generator = SceneGenerator(image_size=8, num_classes=10, seed=1)
    images, labels = generator.classification_dataset(300, patch_size=8)

    def train():
        model = nn.Sequential(
            nn.Flatten(), nn.Linear(64, 64, rng=np.random.default_rng(0)),
            nn.ReLU(), nn.Linear(64, 10, rng=np.random.default_rng(1)))
        nn.fit(model, lambda rows: F.cross_entropy(
            model(Tensor(images[rows])), labels[rows]), len(labels), 60, 0.01)
        model.eval()
        test_images, test_labels = generator.classification_dataset(
            100, patch_size=8)
        return F.accuracy(model(Tensor(test_images)), test_labels)

    accuracy = benchmark.pedantic(train, rounds=1, iterations=1)
    print(f"\n  10-class held-out accuracy: {accuracy:.3f} "
          f"(chance: 0.100)")
    assert accuracy > 0.8
