"""Tests for the paper's model families."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.models import (
    Autoencoder,
    CCA,
    EarlyExitNetwork,
    LSTMClassifier,
    MultimodalAutoencoder,
    ResNetBlock,
    SimpleCNN,
    SmallResNet,
    entropy_confidence,
    score_confidence,
)
from repro.nn.tensor import Tensor
from repro.runtime.rng import resolve_rng


class TestSimpleCNN:
    def test_forward_shape(self):
        model = SimpleCNN(1, 16, num_classes=5)
        assert model(Tensor(np.zeros((2, 1, 16, 16)))).shape == (2, 5)

    def test_invalid_image_size(self):
        with pytest.raises(ValueError):
            SimpleCNN(1, 15, num_classes=5)

    def test_flops_estimable(self):
        model = SimpleCNN(1, 16, num_classes=5)
        flops, shape = model.estimate_flops((1, 16, 16))
        assert flops > 0
        assert shape == (5,)


class TestResNetBlock:
    def test_conv_shortcut_shape(self):
        block = ResNetBlock(4, 8, stride=2, shortcut="conv")
        assert block(Tensor(np.zeros((2, 4, 8, 8)))).shape == (2, 8, 4, 4)

    def test_maxpool_shortcut_shape(self):
        block = ResNetBlock(4, 8, stride=2, shortcut="maxpool")
        assert block(Tensor(np.zeros((2, 4, 8, 8)))).shape == (2, 8, 4, 4)

    def test_identity_shortcut_shape(self):
        block = ResNetBlock(4, 4, stride=1, shortcut="identity")
        assert block(Tensor(np.zeros((2, 4, 8, 8)))).shape == (2, 4, 8, 8)

    def test_identity_requires_matching_shapes(self):
        with pytest.raises(ValueError):
            ResNetBlock(4, 8, stride=1, shortcut="identity")
        with pytest.raises(ValueError):
            ResNetBlock(4, 4, stride=2, shortcut="identity")

    def test_unknown_shortcut_rejected(self):
        with pytest.raises(ValueError):
            ResNetBlock(4, 4, shortcut="teleport")

    def test_maxpool_shortcut_cannot_shrink_channels(self):
        block = ResNetBlock(8, 4, stride=1, shortcut="maxpool")
        with pytest.raises(ValueError):
            block(Tensor(np.zeros((1, 8, 4, 4))))

    def test_conv_shortcut_has_more_parameters(self):
        conv = ResNetBlock(4, 8, stride=2, shortcut="conv")
        pool = ResNetBlock(4, 8, stride=2, shortcut="maxpool")
        assert conv.num_parameters() > pool.num_parameters()

    def test_residual_path_contributes(self):
        # Output differs from main path alone: shortcut adds the input back.
        rng = np.random.default_rng(0)
        block = ResNetBlock(4, 4, shortcut="identity", rng=rng)
        x = Tensor(rng.normal(0, 1, (1, 4, 4, 4)))
        with_shortcut = block(x).data
        main_only = block.bn2(block.conv2(
            block.bn1(block.conv1(x)).relu())).relu().data
        assert not np.allclose(with_shortcut, main_only)

    def test_gradients_flow_through_both_paths(self):
        block = ResNetBlock(2, 4, stride=2, shortcut="conv")
        x = Tensor(np.random.default_rng(1).normal(0, 1, (2, 2, 4, 4)),
                   requires_grad=True)
        block(x).sum().backward()
        assert x.grad is not None
        assert block.shortcut_conv.weight.grad is not None
        assert block.conv1.weight.grad is not None

    def test_flops_conv_exceeds_maxpool(self):
        conv = ResNetBlock(4, 8, stride=2, shortcut="conv")
        pool = ResNetBlock(4, 8, stride=2, shortcut="maxpool")
        conv_flops, _ = conv.estimate_flops((4, 8, 8))
        pool_flops, _ = pool.estimate_flops((4, 8, 8))
        assert conv_flops > pool_flops


class TestSmallResNet:
    def test_forward_shape(self):
        model = SmallResNet(1, num_classes=3, widths=(4, 8))
        assert model(Tensor(np.zeros((2, 1, 8, 8)))).shape == (2, 3)

    def test_features_shape(self):
        model = SmallResNet(1, num_classes=3, widths=(4, 8))
        assert model.features(Tensor(np.zeros((2, 1, 8, 8)))).shape == (2, 8)

    def test_empty_widths_rejected(self):
        with pytest.raises(ValueError):
            SmallResNet(1, num_classes=3, widths=())

    def test_flops_estimable(self):
        model = SmallResNet(1, num_classes=3, widths=(4, 8))
        flops, shape = model.estimate_flops((1, 8, 8))
        assert flops > 0
        assert shape == (3,)

    def test_learns_simple_task(self):
        rng = np.random.default_rng(0)
        n = 32
        x = rng.normal(0, 0.1, (n, 1, 8, 8))
        y = np.arange(n) % 2
        x[y == 1, 0, 2:6, 2:6] += 2.0  # bright square = class 1
        model = SmallResNet(1, num_classes=2, widths=(4,), rng=rng)
        opt = nn.Adam(model.parameters(), lr=0.02)
        for _ in range(30):
            opt.zero_grad()
            loss = F.cross_entropy(model(Tensor(x)), y)
            loss.backward()
            opt.step()
        model.eval()
        assert F.accuracy(model(Tensor(x)), y) >= 0.9


class TestLSTMClassifier:
    def test_forward_shape(self):
        model = LSTMClassifier(4, 8, num_classes=3)
        assert model(Tensor(np.zeros((2, 6, 4)))).shape == (2, 3)

    def test_learns_temporal_pattern(self):
        # class = whether the sequence is increasing or decreasing
        rng = np.random.default_rng(0)
        n, t = 40, 6
        x = np.zeros((n, t, 1))
        y = np.arange(n) % 2
        for i in range(n):
            base = np.linspace(0, 1, t) if y[i] else np.linspace(1, 0, t)
            x[i, :, 0] = base + rng.normal(0, 0.05, t)
        model = LSTMClassifier(1, 8, num_classes=2, rng=rng)
        opt = nn.Adam(model.parameters(), lr=0.02)
        for _ in range(60):
            opt.zero_grad()
            loss = F.cross_entropy(model(Tensor(x)), y)
            loss.backward()
            opt.step()
        assert F.accuracy(model(Tensor(x)), y) >= 0.95


class TestConfidenceFunctions:
    def test_score_confidence_range(self):
        logits = np.array([[10.0, -10.0], [0.0, 0.0]])
        conf = score_confidence(logits)
        assert conf[0] > 0.99
        assert conf[1] == pytest.approx(0.5)

    def test_entropy_confidence_ordering(self):
        peaked = np.array([[10.0, -10.0]])
        flat = np.array([[0.0, 0.0]])
        assert entropy_confidence(peaked)[0] > entropy_confidence(flat)[0]

    def test_entropy_confidence_is_nonpositive(self):
        logits = np.random.default_rng(0).normal(0, 1, (5, 4))
        assert (entropy_confidence(logits) <= 1e-12).all()


def _build_earlyexit(rng=None):
    rng = resolve_rng(rng, "tests.earlyexit")
    local_stage = nn.Sequential(
        nn.Conv2d(1, 4, 3, padding=1, rng=rng), nn.ReLU(), nn.MaxPool2d(2))
    local_head = nn.Sequential(nn.Flatten(), nn.Linear(4 * 4 * 4, 2, rng=rng))
    remote_stage = nn.Sequential(
        nn.Conv2d(4, 8, 3, padding=1, rng=rng), nn.ReLU(), nn.MaxPool2d(2))
    remote_head = nn.Sequential(nn.Flatten(), nn.Linear(8 * 2 * 2, 2, rng=rng))
    return EarlyExitNetwork(local_stage, local_head, remote_stage, remote_head)


def _earlyexit_data(n=24, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 0.2, (n, 1, 8, 8))
    y = np.arange(n) % 2
    x[y == 1, 0, :4, :] += 1.5
    return x, y


class TestEarlyExitNetwork:
    def test_forward_returns_both_exits(self):
        model = _build_earlyexit()
        local, remote = model(Tensor(np.zeros((3, 1, 8, 8))))
        assert local.shape == (3, 2)
        assert remote.shape == (3, 2)

    def test_joint_loss_validates_weight(self):
        model = _build_earlyexit()
        with pytest.raises(ValueError):
            model.joint_loss(Tensor(np.zeros((2, 1, 8, 8))),
                             np.zeros(2, dtype=int), local_weight=1.5)

    def test_joint_training_improves_both_exits(self):
        model = _build_earlyexit()
        x, y = _earlyexit_data()
        opt = nn.Adam(model.parameters(), lr=0.02)
        for _ in range(40):
            opt.zero_grad()
            loss = model.joint_loss(Tensor(x), y)
            loss.backward()
            opt.step()
        model.eval()
        local, remote = model(Tensor(x))
        assert F.accuracy(local, y) >= 0.9
        assert F.accuracy(remote, y) >= 0.9

    def test_threshold_zero_all_local(self):
        model = _build_earlyexit()
        x, _ = _earlyexit_data(8)
        decisions = model.infer_batch(Tensor(x), threshold=0.0)
        assert decisions.local_mask.all()
        assert decisions.remote_logits is None
        assert decisions.remote_rows.size == 0

    def test_threshold_above_one_all_remote(self):
        model = _build_earlyexit()
        x, _ = _earlyexit_data(8)
        decisions = model.infer_batch(Tensor(x), threshold=1.01)
        assert not decisions.local_mask.any()
        np.testing.assert_array_equal(decisions.remote_rows, np.arange(8))
        assert decisions.remote_logits.shape == (8, 2)

    def test_decision_count_matches_batch(self):
        model = _build_earlyexit()
        x, _ = _earlyexit_data(10)
        assert len(model.infer_batch(Tensor(x), threshold=0.7)) == 10

    def test_entropy_confidence_usable(self):
        model = _build_earlyexit()
        x, _ = _earlyexit_data(6)
        decisions = model.infer_batch(Tensor(x), threshold=-0.3,
                                      confidence=entropy_confidence)
        assert len(decisions) == 6
        assert (decisions.confidence <= 0).all()


class TestAutoencoder:
    def test_reconstruction_shape(self):
        model = Autoencoder(10, [8], code_dim=3)
        out = model(Tensor(np.zeros((4, 10))))
        assert out.shape == (4, 10)

    def test_code_dim(self):
        model = Autoencoder(10, [8], code_dim=3)
        assert model.encode(Tensor(np.zeros((4, 10)))).shape == (4, 3)

    def test_validates_code_dim(self):
        with pytest.raises(ValueError):
            Autoencoder(10, [8], code_dim=0)

    def test_training_reduces_reconstruction_error(self):
        rng = np.random.default_rng(0)
        # Data on a 2-D manifold in 10-D space — compressible to code_dim 2.
        latent = rng.normal(0, 1, (64, 2))
        mix = rng.normal(0, 1, (2, 10))
        x = latent @ mix
        model = Autoencoder(10, [16], code_dim=2, rng=rng)
        opt = nn.Adam(model.parameters(), lr=0.01)
        first = model.reconstruction_loss(Tensor(x)).item()
        for _ in range(250):
            opt.zero_grad()
            loss = model.reconstruction_loss(Tensor(x))
            loss.backward()
            opt.step()
        assert loss.item() < 0.5 * first


class TestMultimodalAutoencoder:
    def test_forward_shapes(self):
        model = MultimodalAutoencoder(6, 4)
        a, b = model(Tensor(np.zeros((3, 6))), Tensor(np.zeros((3, 4))))
        assert a.shape == (3, 6)
        assert b.shape == (3, 4)

    def test_fuse_shape(self):
        model = MultimodalAutoencoder(6, 4, code_dim=5)
        assert model.fuse(Tensor(np.zeros((3, 6))),
                          Tensor(np.zeros((3, 4)))).shape == (3, 5)

    def test_fuse_partial_single_modality(self):
        model = MultimodalAutoencoder(6, 4, code_dim=5)
        code = model.fuse_partial(a=Tensor(np.zeros((2, 6))))
        assert code.shape == (2, 5)
        code = model.fuse_partial(b=Tensor(np.zeros((2, 4))))
        assert code.shape == (2, 5)

    def test_fuse_partial_requires_a_modality(self):
        model = MultimodalAutoencoder(6, 4)
        with pytest.raises(ValueError):
            model.fuse_partial()

    def test_joint_training_reduces_loss(self):
        rng = np.random.default_rng(1)
        shared = rng.normal(0, 1, (48, 3))
        a = shared @ rng.normal(0, 1, (3, 6))
        b = shared @ rng.normal(0, 1, (3, 4))
        model = MultimodalAutoencoder(6, 4, encoder_dim=12, code_dim=3, rng=rng)
        opt = nn.Adam(model.parameters(), lr=0.01)
        first = model.reconstruction_loss(Tensor(a), Tensor(b)).item()
        for _ in range(200):
            opt.zero_grad()
            loss = model.reconstruction_loss(Tensor(a), Tensor(b))
            loss.backward()
            opt.step()
        assert loss.item() < 0.5 * first


class TestCCA:
    def test_recovers_shared_signal(self):
        rng = np.random.default_rng(0)
        n = 400
        shared = rng.normal(0, 1, n)
        x = np.column_stack([shared + 0.1 * rng.normal(0, 1, n),
                             rng.normal(0, 1, n)])
        y = np.column_stack([rng.normal(0, 1, n),
                             shared + 0.1 * rng.normal(0, 1, n)])
        cca = CCA(n_components=1).fit(x, y)
        assert cca.correlations[0] > 0.9

    def test_uncorrelated_views_score_low(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, (300, 3))
        y = rng.normal(0, 1, (300, 3))
        cca = CCA(n_components=1).fit(x, y)
        assert cca.correlations[0] < 0.35

    def test_transform_shapes(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(0, 1, (50, 4)), rng.normal(0, 1, (50, 3))
        cca = CCA(n_components=2).fit(x, y)
        px, py = cca.transform(x, y)
        assert px.shape == (50, 2)
        assert py.shape == (50, 2)

    def test_fused_features_concatenate(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(0, 1, (50, 4)), rng.normal(0, 1, (50, 3))
        cca = CCA(n_components=2).fit(x, y)
        assert cca.fused_features(x, y).shape == (50, 4)

    def test_transform_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            CCA().transform(np.zeros((2, 2)))

    def test_sample_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CCA().fit(np.zeros((5, 2)), np.zeros((4, 2)))

    def test_component_cap(self):
        rng = np.random.default_rng(4)
        x, y = rng.normal(0, 1, (50, 2)), rng.normal(0, 1, (50, 5))
        cca = CCA(n_components=10).fit(x, y)
        assert cca.weights_x.shape[1] == 2  # capped by min dimension

    def test_holdout_score(self):
        rng = np.random.default_rng(5)
        n = 400
        shared = rng.normal(0, 1, n)
        x = np.column_stack([shared, rng.normal(0, 1, n)])
        y = np.column_stack([shared, rng.normal(0, 1, n)])
        cca = CCA(n_components=1).fit(x[:300], y[:300])
        held = cca.score(x[300:], y[300:])
        assert held[0] > 0.8

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            CCA(n_components=0)
        with pytest.raises(ValueError):
            CCA(regularization=-1)
