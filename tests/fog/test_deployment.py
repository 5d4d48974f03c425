"""Tests for two-tier deployment: split weights must reproduce the model."""

import numpy as np
import pytest

from repro.apps.action import ActionEarlyExitModel
from repro.fog import TwoTierDeployment, split_state_dict
from repro.fog.policies import EntropyThresholdPolicy, run_policy_batched
from repro.nn.models.yolo import EarlyExitDetector
from repro.nn.tensor import Tensor


class TestSplitStateDict:
    def test_partitions_by_prefix(self):
        state = {"stem.weight": np.zeros(1), "stem.bias": np.zeros(1),
                 "remote_branch.weight": np.zeros(1)}
        local, remote = split_state_dict(state, ["stem"], ["remote_branch"])
        assert set(local) == {"stem.weight", "stem.bias"}
        assert set(remote) == {"remote_branch.weight"}

    def test_unmatched_key_rejected(self):
        with pytest.raises(ValueError):
            split_state_dict({"orphan.weight": np.zeros(1)}, ["a"], ["b"])

    def test_doubly_matched_key_rejected(self):
        with pytest.raises(ValueError):
            split_state_dict({"a.weight": np.zeros(1)}, ["a"], ["a"])

    def test_prefix_is_segment_not_substring(self):
        state = {"stem.weight": np.zeros(1), "stemlike.weight": np.zeros(1)}
        with pytest.raises(ValueError):
            split_state_dict(state, ["stem"], ["remote"])


class TestDetectorDeployment:
    def make_trained(self):
        rng = np.random.default_rng(0)
        model = EarlyExitDetector(1, 16, num_classes=3, grid=4, rng=rng)
        # "Train" by randomizing weights away from the init of a fresh copy.
        for param in model.parameters():
            param.data += rng.normal(0, 0.1, param.data.shape)
        return model

    def deployment(self):
        return TwoTierDeployment(
            lambda: EarlyExitDetector(1, 16, num_classes=3, grid=4,
                                      rng=np.random.default_rng(99)),
            local_modules=["local_stage", "local_head"],
            remote_modules=["remote_stage", "remote_head"])

    def test_deployed_pair_matches_monolith(self):
        trained = self.make_trained()
        deployment = self.deployment()
        deployment.deploy(trained)
        trained.eval()
        deployment.device_model.eval()
        deployment.server_model.eval()
        x = Tensor(np.random.default_rng(1).normal(0, 1, (2, 1, 16, 16)))
        # Device side: stem, then the tiny branch + its grid head.
        mono_features = trained.local_stage(x)
        mono_local = trained.local_head(mono_features).data
        device = deployment.device_model
        dev_features = device.local_stage(x)
        dev_local = device.local_head(dev_features).data
        np.testing.assert_allclose(dev_local, mono_local, atol=1e-12)
        # Server side consumes the device's feature map.
        mono_remote = trained.remote_head(
            trained.remote_stage(mono_features)).data
        server = deployment.server_model
        srv_remote = server.remote_head(
            server.remote_stage(Tensor(dev_features.data))).data
        np.testing.assert_allclose(srv_remote, mono_remote, atol=1e-12)

    def test_payload_sizes_reported(self):
        deployment = self.deployment()
        deployment.deploy(self.make_trained())
        assert deployment.payload_bytes["device"] > 0
        assert deployment.payload_bytes["server"] > 0
        # The server half (wider branch) is the heavier payload.
        assert (deployment.payload_bytes["server"]
                > deployment.payload_bytes["device"])


class TestActionModelDeployment:
    def test_action_model_two_tier_split(self):
        rng = np.random.default_rng(3)
        trained = ActionEarlyExitModel(image_size=16, num_classes=5, rng=rng)
        for param in trained.parameters():
            param.data += rng.normal(0, 0.05, param.data.shape)
        deployment = TwoTierDeployment(
            lambda: ActionEarlyExitModel(
                image_size=16, num_classes=5,
                rng=np.random.default_rng(77)),
            local_modules=["local_stage", "local_head"],
            remote_modules=["remote_stage", "remote_head"])
        deployment.deploy(trained)
        trained.eval()
        deployment.device_model.eval()
        deployment.server_model.eval()
        clips = Tensor(np.random.default_rng(4).normal(0, 1, (2, 3, 1, 16, 16)))
        mono_local, mono_remote = trained(clips)
        # Recompute the device path on the deployed device model.
        device = deployment.device_model
        feature_maps = device.local_stage(clips)
        dev_local = device.local_head(feature_maps).data
        np.testing.assert_allclose(dev_local, mono_local.data, atol=1e-12)
        # Server path from the device's block-1 feature maps.
        server = deployment.server_model
        srv_remote = server.remote_head(
            server.remote_stage(Tensor(feature_maps.data))).data
        np.testing.assert_allclose(srv_remote, mono_remote.data, atol=1e-12)


class TestFusedDeployment:
    def make_trained(self):
        rng = np.random.default_rng(11)
        model = ActionEarlyExitModel(image_size=16, num_classes=5, rng=rng)
        for param in model.parameters():
            param.data += rng.normal(0, 0.05, param.data.shape)
        # Warm BN running stats so folding has something non-trivial to fold.
        clips = Tensor(rng.normal(0, 1, (2, 3, 1, 16, 16)))
        model.train()
        model.forward(clips)
        model.eval()
        return model

    def make_deployment(self, **kwargs):
        return TwoTierDeployment(
            lambda: ActionEarlyExitModel(
                image_size=16, num_classes=5,
                rng=np.random.default_rng(78)),
            local_modules=["local_stage", "local_head"],
            remote_modules=["remote_stage", "remote_head"],
            **kwargs)

    def test_fused_deploy_reports_folded_layers(self):
        deployment = self.make_deployment(fuse_inference=True)
        deployment.deploy(self.make_trained())
        # Each tier instance is the full architecture: two ResNetBlocks
        # (conv shortcut), each carrying bn1, bn2 and shortcut_bn.
        assert deployment.fused_layers == {"device": 6, "server": 6}
        from repro.nn.modules import BatchNorm2d
        for model in (deployment.device_model, deployment.server_model):
            assert not any(isinstance(m, BatchNorm2d) for m in model.modules())

    def test_fused_device_matches_unfused_local_logits(self):
        trained = self.make_trained()
        plain = self.make_deployment()
        fused = self.make_deployment(fuse_inference=True)
        plain.deploy(trained)
        fused.deploy(trained)
        clips = Tensor(np.random.default_rng(12).normal(0, 1, (2, 3, 1, 16, 16)))
        plain.device_model.eval()
        policy = EntropyThresholdPolicy(0.8)
        expected = run_policy_batched(plain.device_model, clips, policy)
        got = run_policy_batched(fused.device_model, clips, policy)
        np.testing.assert_array_equal(got.predictions, expected.predictions)
        np.testing.assert_allclose(got.local_logits, expected.local_logits,
                                   atol=1e-10)

    def test_inference_dtype_casts_deployed_models(self):
        deployment = self.make_deployment(fuse_inference=True,
                                          inference_dtype=np.float32)
        deployment.deploy(self.make_trained())
        for model in (deployment.device_model, deployment.server_model):
            assert all(p.data.dtype == np.float32 for p in model.parameters())

    def test_unfused_deploy_leaves_counters_at_zero(self):
        deployment = self.make_deployment()
        deployment.deploy(self.make_trained())
        assert deployment.fused_layers == {"device": 0, "server": 0}
