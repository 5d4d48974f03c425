"""Tests for the action-recognition app (Fig. 7/8)."""

import numpy as np
import pytest

from repro.apps.action import ActionEarlyExitModel, ActionRecognitionApp
from repro.fog.policies import EntropyThresholdPolicy, run_policy_batched
from repro.nosql import Collection
from repro.nn.models.resnet import ResNetBlock
from repro.nn.tensor import Tensor
from repro.runtime import Runtime, using_runtime


def infer(app, data, max_entropy):
    return run_policy_batched(app.model, data,
                              EntropyThresholdPolicy(max_entropy))


@pytest.fixture(scope="module")
def trained_app():
    app = ActionRecognitionApp(image_size=16, frames=6, seed=0)
    app.train(clips_per_class=6, epochs=18, lr=0.01)
    return app


class TestModelShape:
    def test_forward_shapes(self):
        model = ActionEarlyExitModel(image_size=16, num_classes=5)
        clips = Tensor(np.zeros((3, 4, 1, 16, 16)))
        local, remote = model(clips)
        assert local.shape == (3, 5)
        assert remote.shape == (3, 5)

    def test_block1_feature_maps(self):
        model = ActionEarlyExitModel(image_size=16, num_classes=5)
        assert model.block1_channels == 4
        clips = Tensor(np.zeros((2, 3, 1, 16, 16)))
        features = model.local_stage(clips)
        assert features.shape == (2, 3, 4, 8, 8)

    def test_feature_map_bytes_formula(self):
        model = ActionEarlyExitModel(image_size=16)
        assert model.feature_map_bytes(frames=6) == 6 * 4 * 8 * 8 * 4
        assert model.raw_clip_bytes(frames=6) == 6 * 16 * 16

    def test_shortcut_ablation_constructible(self):
        # both arms of the Fig. 8 shortcut ablation build at block 1's
        # geometry; the model itself takes the conv arm
        width = ActionEarlyExitModel.block1_channels
        frames = Tensor(np.zeros((3, 1, 16, 16)))
        for shortcut in ("conv", "maxpool"):
            block = ResNetBlock(1, width, stride=2, shortcut=shortcut)
            assert block(frames).shape == (3, width, 8, 8)

    def test_conv_shortcut_has_more_parameters(self):
        # block 1's projection shortcut costs parameters a max-pool
        # shortcut would not
        width = ActionEarlyExitModel.block1_channels
        conv = ResNetBlock(1, width, stride=2, shortcut="conv")
        pool = ResNetBlock(1, width, stride=2, shortcut="maxpool")
        assert conv.num_parameters() > pool.num_parameters()


class TestTraining:
    def test_losses_decrease(self):
        app = ActionRecognitionApp(image_size=16, frames=6, seed=1)
        losses = app.train(clips_per_class=4, epochs=5)
        assert losses[-1] < losses[0]

    def test_both_exits_learn(self, trained_app):
        accuracies = trained_app.exit_accuracies(clips_per_class=4)
        chance = 1.0 / trained_app.clips.num_classes
        assert accuracies["local"] > 1.5 * chance
        assert accuracies["remote"] > 1.5 * chance

    def test_remote_at_least_matches_local(self, trained_app):
        accuracies = trained_app.exit_accuracies(clips_per_class=6)
        assert accuracies["remote"] >= accuracies["local"] - 0.15


class TestEarlyExit:
    def test_huge_entropy_budget_all_local(self, trained_app):
        data, _ = trained_app.clips.dataset(2)
        decisions = infer(trained_app, data, max_entropy=10.0)
        assert decisions.local_mask.all()
        assert decisions.remote_rows.size == 0

    def test_zero_entropy_budget_all_remote(self, trained_app):
        data, _ = trained_app.clips.dataset(2)
        decisions = infer(trained_app, data, max_entropy=0.0)
        assert not decisions.local_mask.any()
        assert decisions.remote_rows.size == len(data)
        rows = trained_app.entropy_sweep([0.0], clips_per_class=2)
        assert rows[0]["bytes_shipped"] == (
            len(data) * trained_app.model.feature_map_bytes(frames=6))

    def test_entropy_sweep_monotone(self, trained_app):
        rows = trained_app.entropy_sweep([0.0, 0.5, 1.0, 10.0],
                                         clips_per_class=3)
        fractions = [r["local_fraction"] for r in rows]
        assert fractions == sorted(fractions)
        assert fractions[0] == 0.0
        assert fractions[-1] == 1.0

    def test_results_contain_entropy(self, trained_app):
        data, _ = trained_app.clips.dataset(1)
        decisions = infer(trained_app, data, max_entropy=0.5)
        # The confidence column is the negated exit-1 entropy.
        assert (-decisions.confidence >= 0).all()
        assert (decisions.local_mask == (-decisions.confidence <= 0.5)).all()

    def test_exit_accuracies_restores_the_models_mode(self, trained_app):
        model = trained_app.model
        model.eval()
        try:
            trained_app.exit_accuracies(clips_per_class=1)
            assert not any(m.training for m in model.modules())
        finally:
            model.train()


class TestRuntimeInjection:
    def test_weights_follow_the_injected_runtime(self):
        def weights(seed):
            with using_runtime(Runtime(seed=seed)):
                app = ActionRecognitionApp(image_size=16, frames=4)
            return np.concatenate(
                [p.data.ravel() for p in app.model.parameters()])

        assert np.array_equal(weights(1), weights(1))
        assert not np.array_equal(weights(1), weights(2))

    def test_training_order_follows_the_injected_runtime(self):
        def losses(seed):
            with using_runtime(Runtime(seed=seed)):
                app = ActionRecognitionApp(image_size=16, frames=4)
            # Same weights on both sides: only the SGD shuffle may differ.
            app.model.load_state_dict(reference.model.state_dict())
            return app.train(clips_per_class=2, epochs=2, batch_size=4)

        reference = ActionRecognitionApp(image_size=16, frames=4)
        assert losses(1) == losses(1)
        assert losses(1) != losses(2)


class TestAlertIndexing:
    def test_suspicious_alerts_logged(self, trained_app):
        collection = Collection("alerts")
        data, _ = trained_app.clips.dataset(2)
        decisions = infer(trained_app, data, max_entropy=0.5)
        suspicious = [3, 4]  # fighting, breaking_in
        alerts = trained_app.index_alerts(collection, decisions,
                                          camera_id="cam-7",
                                          suspicious_classes=suspicious)
        assert collection.count({"needs_review": True}) == alerts
        for doc in collection.find({}):
            assert doc["camera_id"] == "cam-7"
            assert doc["activity"] in ("fighting", "breaking_in")

    def test_one_bulk_write_stores_what_the_per_document_loop_did(
            self, trained_app):
        data, _ = trained_app.clips.dataset(3)
        decisions = infer(trained_app, data, max_entropy=0.5)
        reference = Collection("reference")
        for row in range(len(decisions)):
            if decisions.predictions[row] in (1, 3, 4):
                reference.insert({
                    "camera_id": "cam-7",
                    "clip_index": row,
                    "activity": trained_app.class_names[
                        decisions.predictions[row]],
                    "exit": int(decisions.exit_index[row]),
                    "entropy": float(-decisions.confidence[row]),
                    "needs_review": True,
                })
        collection = Collection("alerts")
        alerts = trained_app.index_alerts(collection, decisions,
                                          camera_id="cam-7",
                                          suspicious_classes=[1, 3, 4])
        assert alerts == reference.count({}) > 0
        assert collection.find({}) == reference.find({})
