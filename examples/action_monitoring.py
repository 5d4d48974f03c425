#!/usr/bin/env python
"""Suspicious-behaviour monitoring with the Fig. 7 architecture.

Trains the ResNet+LSTM two-exit model on synthetic behaviour clips, sweeps
the entropy threshold that gates server offload, then monitors a simulated
camera: confident clips are indexed locally, uncertain ones ship their
block-1 feature maps upstream, and suspicious recognitions are logged as
operator alerts in the document store — the paper's full operational loop.

Run:  python examples/action_monitoring.py
"""

from repro.apps.action import ActionRecognitionApp
from repro.data import build_dotd_registry
from repro.data.video import ACTION_CLASSES
from repro.fog.policies import EntropyThresholdPolicy, run_policy_batched
from repro.nosql import DocumentStore


def main() -> None:
    print("Training the two-exit ResNet+LSTM recognizer (Fig. 7)...")
    app = ActionRecognitionApp(image_size=16, frames=6, seed=0)
    losses = app.train(clips_per_class=8, epochs=25)
    print(f"  joint loss: {losses[0]:.3f} -> {losses[-1]:.3f}")
    accuracies = app.exit_accuracies(clips_per_class=6)
    print(f"  exit-1 (device) accuracy: {accuracies['local']:.2f}   "
          f"exit-2 (server) accuracy: {accuracies['remote']:.2f}")

    print("\n=== Entropy-threshold sweep (Fig. 7 rule) ===")
    print(f"  {'max entropy':>11} {'accuracy':>9} {'local%':>7} "
          f"{'KB shipped':>11}")
    for row in app.entropy_sweep([0.0, 0.3, 0.6, 1.0, 1.6],
                                 clips_per_class=6):
        print(f"  {row['max_entropy']:11.2f} {row['accuracy']:9.3f} "
              f"{100 * row['local_fraction']:6.1f}% "
              f"{row['bytes_shipped'] / 1024:11.1f}")

    print("\n=== Monitoring a street camera ===")
    registry = build_dotd_registry(seed=0)
    camera = registry.by_city("Baton Rouge")[0]
    store = DocumentStore()
    alerts_collection = store.collection("alerts")
    clips, labels = app.clips.dataset(clips_per_class=4)
    decisions = run_policy_batched(app.model, clips,
                                   EntropyThresholdPolicy(max_entropy=0.8))
    suspicious = [ACTION_CLASSES.index("fighting"),
                  ACTION_CLASSES.index("breaking_in")]
    alerts = app.index_alerts(alerts_collection, decisions,
                              camera_id=camera.camera_id,
                              suspicious_classes=suspicious)
    local = int(decisions.local_mask.sum())
    print(f"  camera: {camera.camera_id} on {camera.highway}")
    print(f"  clips processed: {len(decisions)} "
          f"({local} resolved on-device, {len(decisions) - local} on server)")
    print(f"  operator alerts raised: {alerts}")
    for doc in alerts_collection.find({}, limit=5):
        print(f"    clip {doc['clip_index']:2d}: {doc['activity']:12s} "
              f"(exit {doc['exit']}, entropy {doc['entropy']:.2f})")


if __name__ == "__main__":
    main()
