"""Activation codec + deployment fast-path knobs (plans, int8 edge, codec)."""

import numpy as np
import pytest

from repro import nn
from repro.fog import TwoTierDeployment
from repro.fog.codec import AutoencoderCodec
from repro.fog.policies import ScoreThresholdPolicy, run_policy_batched
from repro.nn.models.autoencoder import Autoencoder
from repro.nn.models.earlyexit import EarlyExitNetwork
from repro.nn.tensor import Tensor
from repro.runtime import Runtime, using_runtime

IMG = 12


def build_early_exit(rng):
    return EarlyExitNetwork(
        local_stage=nn.Sequential(
            nn.Conv2d(1, 4, 3, padding=1, rng=rng),
            nn.BatchNorm2d(4), nn.ReLU()),
        local_head=nn.Sequential(
            nn.GlobalAvgPool2d(), nn.Linear(4, 3, rng=rng)),
        remote_stage=nn.Sequential(
            nn.Conv2d(4, 8, 3, stride=2, padding=1, rng=rng),
            nn.BatchNorm2d(8), nn.ReLU()),
        remote_head=nn.Sequential(
            nn.GlobalAvgPool2d(), nn.Linear(8, 3, rng=rng)),
    )


def make_codec(rng, quantize_code=True):
    autoencoder = Autoencoder(4 * IMG * IMG, [32], 16,
                              rng=rng).astype(np.float32)
    return AutoencoderCodec(autoencoder, quantize_code=quantize_code)


class TestAutoencoderCodec:
    def test_transfer_shape_dtype_and_freshness(self):
        with using_runtime(Runtime(seed=0)):
            rng = np.random.default_rng(0)
            codec = make_codec(rng)
            feats = rng.normal(size=(5, 4, IMG, IMG)).astype(np.float32)
            out = codec.transfer(feats)
            assert out.shape == feats.shape
            assert out.dtype == feats.dtype
            assert not np.shares_memory(out, feats)

    def test_transfer_deterministic(self):
        with using_runtime(Runtime(seed=0)):
            rng = np.random.default_rng(0)
            codec = make_codec(rng)
            feats = rng.normal(size=(5, 4, IMG, IMG)).astype(np.float32)
            assert np.array_equal(codec.transfer(feats),
                                  codec.transfer(feats))

    def test_byte_accounting_int8_code(self):
        with using_runtime(Runtime(seed=0)) as rt:
            rng = np.random.default_rng(0)
            codec = make_codec(rng)
            feats = rng.normal(size=(5, 4, IMG, IMG)).astype(np.float32)
            codec.transfer(feats)
            assert codec.transfers == 1
            assert codec.bytes_raw == feats.nbytes
            assert codec.bytes_sent == 5 * 16 + 16  # int8 codes + qparams
            assert codec.bytes_saved == codec.bytes_raw - codec.bytes_sent
            names = set(rt.registry.names())
            assert "fog.deploy.offload_bytes_saved" in names
            assert "fog.deploy.offload_transfers" in names

    def test_float_code_accounting(self):
        with using_runtime(Runtime(seed=0)):
            rng = np.random.default_rng(0)
            codec = make_codec(rng, quantize_code=False)
            feats = rng.normal(size=(3, 4, IMG, IMG)).astype(np.float32)
            codec.transfer(feats)
            assert codec.bytes_sent == 3 * 16 * 4  # float32 codes

    def test_batch_innermost_and_row_major_maps_transfer_identically(self):
        with using_runtime(Runtime(seed=0)):
            rng = np.random.default_rng(0)
            codec = make_codec(rng)
            feats = rng.normal(size=(7, 4, IMG, IMG)).astype(np.float32)
            # stored (C, H, W, N), viewed NCHW: the no-grad layout
            innermost = np.ascontiguousarray(
                feats.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
            out = codec.transfer(innermost)
            assert np.array_equal(out, codec.transfer(feats))
            assert out.transpose(1, 2, 3, 0).flags["C_CONTIGUOUS"]

    def test_float_code_matches_the_float64_module_path(self):
        with using_runtime(Runtime(seed=0)):
            rng = np.random.default_rng(0)
            autoencoder = Autoencoder(4 * IMG * IMG, [32], 16, rng=rng)
            codec = AutoencoderCodec(autoencoder, quantize_code=False)
            feats = rng.normal(size=(5, 4, IMG, IMG)).astype(np.float32)
            out = codec.transfer(feats)
            with nn.no_grad():
                reference = autoencoder(
                    Tensor(feats.reshape(5, -1).astype(np.float64))).data
            assert out.dtype == np.float32
            np.testing.assert_allclose(out.reshape(5, -1), reference,
                                       rtol=1e-4, atol=1e-5)

    def test_geometry_mismatch_rejected(self):
        with using_runtime(Runtime(seed=0)):
            rng = np.random.default_rng(0)
            codec = make_codec(rng)
            bad = rng.normal(size=(2, 4, IMG, IMG + 1)).astype(np.float32)
            with pytest.raises(ValueError, match="input_dim"):
                codec.transfer(bad)

    def test_fidelity_is_relative_error(self):
        with using_runtime(Runtime(seed=0)):
            rng = np.random.default_rng(0)
            codec = make_codec(rng)
            feats = rng.normal(size=(4, 4, IMG, IMG)).astype(np.float32)
            fidelity = codec.fidelity(feats)
            assert np.isfinite(fidelity) and fidelity >= 0.0


class TestDeploymentKnobs:
    def deployment(self, **kwargs):
        return TwoTierDeployment(
            lambda: build_early_exit(np.random.default_rng(99)),
            local_modules=["local_stage", "local_head"],
            remote_modules=["remote_stage", "remote_head"],
            fuse_inference=True, inference_dtype=np.float32, **kwargs)

    def trained(self):
        rng = np.random.default_rng(0)
        model = build_early_exit(rng)
        for param in model.parameters():
            param.data += rng.normal(0, 0.1, param.data.shape)
        return model

    def frames(self, n=10):
        return np.random.default_rng(1).normal(0, 1, (n, 1, IMG, IMG))

    def test_capture_plans_matches_eager_decisions(self):
        with using_runtime(Runtime(seed=0)):
            trained = self.trained()
            plain = self.deployment()
            planned = self.deployment(capture_plans=True)
            plain.deploy(trained)
            planned.deploy(trained)
            policy = ScoreThresholdPolicy(0.6)
            x = self.frames()
            # 10 rows in chunks of 4: the plan serves a ragged tail too
            a = run_policy_batched(plain.served_model(), x, policy,
                                   batch_size=4)
            b = run_policy_batched(planned.served_model(), x, policy,
                                   batch_size=4)
            assert np.array_equal(a.predictions, b.predictions)
            assert np.array_equal(a.exit_index, b.exit_index)
            assert np.array_equal(a.confidence, b.confidence)
            stats = planned.plan_stats()
            assert stats["local_stage"]["plans"] >= 1

    def test_plan_stats_empty_before_deploy(self):
        with using_runtime(Runtime(seed=0)):
            assert self.deployment(capture_plans=True).plan_stats() == {}

    def test_quantize_edge_requires_calibration(self):
        with pytest.raises(ValueError, match="calibration"):
            self.deployment(quantize_edge=True)

    def test_quantize_edge_reports_savings_and_serves(self):
        with using_runtime(Runtime(seed=0)) as rt:
            deployment = self.deployment(quantize_edge=True,
                                         calibration=self.frames(8))
            deployment.deploy(self.trained())
            report = deployment.edge_quantization
            assert report["layers"] == 2  # local conv + local head linear
            assert 0 < report["int8_bytes"] < report["float_bytes"]
            names = set(rt.registry.names())
            assert "fog.deploy.quantized_layers" in names
            assert "fog.deploy.edge_int8_bytes_saved" in names
            decisions = deployment.serve_batched(
                self.frames(), ScoreThresholdPolicy(0.6))
            assert decisions.predictions.shape == (10,)

    def test_activation_codec_wired_and_metered(self):
        with using_runtime(Runtime(seed=0)):
            rng = np.random.default_rng(5)
            codec = make_codec(rng)
            deployment = self.deployment(capture_plans=True,
                                         activation_codec=codec)
            deployment.deploy(self.trained())
            # threshold 0.99: everything escalates through the codec
            deployment.serve_batched(self.frames(), ScoreThresholdPolicy(0.99))
            assert codec.transfers >= 1
            assert codec.bytes_saved > 0

    def test_codec_changes_remote_logits_not_shapes(self):
        with using_runtime(Runtime(seed=0)):
            rng = np.random.default_rng(6)
            plain = self.deployment()
            coded = self.deployment(activation_codec=make_codec(rng))
            trained = self.trained()
            plain.deploy(trained)
            coded.deploy(trained)
            policy = ScoreThresholdPolicy(0.99)
            x = self.frames()
            a = plain.serve_batched(x, policy)
            b = coded.serve_batched(x, policy)
            # local exit identical; escalated logits differ (lossy wire)
            assert np.array_equal(a.local_logits, b.local_logits)
            assert a.remote_logits is not None
            assert a.remote_logits.shape == b.remote_logits.shape
            assert not np.array_equal(a.remote_logits, b.remote_logits)
