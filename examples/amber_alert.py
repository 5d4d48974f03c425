#!/usr/bin/env python
"""AMBER-Alert vehicle tracking (the Sec. IV-A-1 motivating use case).

"Identifying details of vehicles ... can be critical when tracking cars
that are involved in criminal activities (e.g., tracking cars described in
AMBER Alerts)."  This demo runs the whole loop: the early-exit detector
watches three Baton Rouge cameras, indexes every confident sighting into
the document store, and an analyst's alert query returns the vehicle's
cross-camera track plus the best cameras to stake out.

Run:  python examples/amber_alert.py
"""

from repro.apps.vehicle import AmberAlertSearch, VehicleDetectionApp
from repro.data import build_dotd_registry
from repro.fog.policies import ExitPolicy, run_policy_batched
from repro.nosql import DocumentStore
from repro.nn.models.yolo import detection_confidence


def main() -> None:
    print("Training the vehicle detector...")
    app = VehicleDetectionApp(num_classes=4, image_size=16, seed=0)
    losses = app.train(num_scenes=48, epochs=30)
    print(f"  joint loss: {losses[0]:.3f} -> {losses[-1]:.3f}")

    registry = build_dotd_registry(seed=0)
    cameras = registry.by_city("Baton Rouge")[:3]
    store = DocumentStore()
    search = AmberAlertSearch(store.collection("sightings"), min_score=0.25)

    print("\nMonitoring three cameras and indexing sightings...")
    # The Fig. 5 rule: a frame whose best detection score reaches 0.5
    # resolves on the device, the rest ship their stem feature map.
    policy = ExitPolicy(0.5, detection_confidence)
    clock = 0.0
    for camera in cameras:
        frames, _ = app.build_detection_dataset(num_scenes=10)
        decisions = run_policy_batched(app.model, frames, policy)
        indexed = 0
        for frame_index, detections in enumerate(
                app.model.detections(decisions)):
            for detection in detections:
                label = app.catalog.label(detection.class_id)
                search.index_sighting(
                    camera_id=camera.camera_id,
                    time=clock + frame_index / 15.0,  # 15 fps
                    label=label,
                    score=detection.score)
                indexed += 1
        print(f"  {camera.camera_id} ({camera.highway}): "
              f"{indexed} sightings indexed")
        clock += 60.0  # next camera's footage starts a minute later

    total = store.collection("sightings").count({})
    labels = store.collection("sightings").distinct("label")
    print(f"\nIndexed {total} sightings across {len(cameras)} cameras; "
          f"{len(labels)} distinct vehicle labels seen")

    # The alert: dispatch described a specific make/body style.
    description = labels[0].split(" ", 1)[1]  # e.g. "Ford Sedan"
    print(f"\n=== AMBER alert: locate '{description}' ===")
    track = search.search(description)
    print(f"  sightings: {len(track.sightings)}")
    if track.sightings:
        print(f"  first seen: t={track.first_seen:.1f}s   "
              f"last seen: t={track.last_seen:.1f}s")
        print(f"  camera path: {' -> '.join(track.cameras)}")
        for sighting in track.sightings[:5]:
            print(f"    t={sighting.time:7.1f}s  {sighting.camera_id:22s} "
                  f"{sighting.label:24s} score={sighting.score:.2f}")
    stakeout = search.cameras_to_stake_out(description)
    print(f"  cameras to stake out: {stakeout}")


if __name__ == "__main__":
    main()
