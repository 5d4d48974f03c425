"""Capstone integration: the whole paper in one scenario.

Train the Fig. 5 early-exit detector, deploy its weight halves to device
and server tiers, stream two cameras against shared machine queues using
the *trained model's real exit decisions*, index the confident sightings,
and resolve an AMBER alert — touching nn, fog (placement, deployment,
contention), data, nosql and apps in a single flow.
"""

import numpy as np
import pytest

from repro.apps.vehicle import AmberAlertSearch, VehicleDetectionApp
from repro.cluster import NetworkTopology, Tier
from repro.fog import TwoTierDeployment, simulate_shared_streams
from repro.fog.policies import ExitPolicy, run_policy_batched
from repro.nosql import DocumentStore
from repro.nn.models.yolo import EarlyExitDetector, detection_confidence


@pytest.fixture(scope="module")
def trained():
    app = VehicleDetectionApp(num_classes=3, image_size=16, seed=0)
    app.train(num_scenes=32, epochs=18)
    return app


def test_capstone_train_deploy_stream_search(trained):
    app = trained
    # --- deploy the trained weights to two tiers -------------------------
    deployment = TwoTierDeployment(
        lambda: EarlyExitDetector(1, app.image_size, app.num_classes,
                                  grid=app.grid,
                                  rng=np.random.default_rng(123)),
        local_modules=["local_stage", "local_head"],
        remote_modules=["remote_stage", "remote_head"])
    deployment.deploy(app.model)
    assert deployment.payload_bytes["device"] > 0

    # --- two cameras stream through shared fog/server queues -------------
    topology = NetworkTopology.build_fog_hierarchy(
        edges_per_fog=2, fogs_per_server=1, servers=1)
    edges = [m.name for m in topology.machines(Tier.EDGE)][:2]
    store = DocumentStore()
    search = AmberAlertSearch(store.collection("sightings"), min_score=0.2)

    # The deployed pair serves the frames; the monolith must agree.
    policy = ExitPolicy(0.5, detection_confidence)
    streams = []
    per_camera_decisions = {}
    for camera_index, edge in enumerate(edges):
        frames, _ = app.build_detection_dataset(num_scenes=10)
        decisions = deployment.serve_batched(frames, policy)
        direct = run_policy_batched(app.model, frames, policy)
        assert np.array_equal(decisions.exit_index, direct.exit_index)
        assert app.model.detections(decisions) == app.model.detections(direct)
        per_camera_decisions[edge] = decisions
        streams.append({
            "pipeline": app.fog_pipeline(topology, edge),
            "num_items": len(decisions),
            "arrival_interval_s": 0.05,
            # simulate_shared_streams draws exits from probabilities:
            # drive it with the model's measured local fraction.
            "exit_probabilities": {1: decisions.local_fraction},
        })
    stats = simulate_shared_streams(streams, seed=0)
    assert all(s.completed == 10 for s in stats)
    server_busy = stats[0].machine_busy_s.get("server-0", 0.0)
    assert server_busy >= 0.0

    # --- index sightings and answer an AMBER alert ------------------------
    for camera_index, edge in enumerate(edges):
        detections = app.model.detections(per_camera_decisions[edge])
        for frame_index, frame_detections in enumerate(detections):
            for detection in frame_detections:
                search.index_sighting(
                    camera_id=f"cam-{camera_index}",
                    time=60.0 * camera_index + frame_index,
                    label=app.catalog.label(detection.class_id),
                    score=detection.score)
    total = store.collection("sightings").count({})
    assert total > 0
    labels = store.collection("sightings").distinct("label")
    description = labels[0].split(" ", 1)[1]
    track = search.search(description)
    assert track.sightings
    times = [s.time for s in track.sightings]
    assert times == sorted(times)
    assert search.cameras_to_stake_out(description)
