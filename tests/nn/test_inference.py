"""Inference fast-path tests: grad mode, dtype policy, fusion, batching."""

import numpy as np
import pytest

from repro import nn
from repro.nn.dtypes import ensure_float
from repro.nn.fuse import fuse_for_inference
from repro.nn.inference import batched_forward, eval_mode, observe_inference
from repro.nn.models.earlyexit import EarlyExitNetwork, score_confidence
from repro.nn.models.resnet import SmallResNet
from repro.nn.tensor import Tensor
from repro.runtime import Runtime, using_runtime
from repro.runtime.metrics import LATENCY_SAMPLES
from repro.serving.gateway import split_decisions


def make_early_exit(rng):
    return EarlyExitNetwork(
        local_stage=nn.Sequential(
            nn.Conv2d(1, 4, 3, padding=1, rng=rng),
            nn.BatchNorm2d(4),
            nn.ReLU(),
        ),
        local_head=nn.Sequential(
            nn.GlobalAvgPool2d(), nn.Linear(4, 3, rng=rng)),
        remote_stage=nn.Sequential(
            nn.Conv2d(4, 8, 3, stride=2, padding=1, rng=rng),
            nn.BatchNorm2d(8),
            nn.ReLU(),
        ),
        remote_head=nn.Sequential(
            nn.GlobalAvgPool2d(), nn.Linear(8, 3, rng=rng)),
    )


def warm_batchnorm(model, x):
    """Run a couple of training forwards so BN running stats are non-trivial."""
    model.train()
    for _ in range(3):
        model(Tensor(x))
    model.eval()


class TestGradMode:
    def test_no_grad_records_no_closures(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with nn.no_grad():
            y = (x * 2.0 + 1.0).relu()
        assert not y.requires_grad
        assert y._backward is None
        assert y._parents == ()

    def test_grad_mode_restored_after_exception(self):
        assert nn.is_grad_enabled()
        with pytest.raises(RuntimeError):
            with nn.no_grad():
                assert not nn.is_grad_enabled()
                raise RuntimeError("boom")
        assert nn.is_grad_enabled()

    def test_enable_grad_nested_inside_no_grad(self):
        x = Tensor([1.0], requires_grad=True)
        with nn.no_grad():
            with nn.enable_grad():
                y = x * 2.0
            z = x * 2.0
        assert y.requires_grad
        assert not z.requires_grad

    def test_decorator_form(self):
        @nn.no_grad()
        def forward(t):
            return t * 3.0

        y = forward(Tensor([1.0], requires_grad=True))
        assert not y.requires_grad
        assert nn.is_grad_enabled()

    def test_backward_still_works_after_no_grad_region(self):
        x = Tensor([2.0], requires_grad=True)
        with nn.no_grad():
            x * 5.0
        y = x * 5.0
        y.backward()
        np.testing.assert_allclose(x.grad, [5.0])


class TestDtypePolicy:
    def test_ensure_float_preserves_float32(self):
        x = np.ones(3, dtype=np.float32)
        assert ensure_float(x).dtype == np.float32
        assert ensure_float([1, 2]).dtype == np.float64

    def test_explicit_dtype_wins(self):
        t = Tensor(np.ones(2, dtype=np.float32), dtype=np.float64)
        assert t.data.dtype == np.float64

    def test_ops_preserve_float32(self):
        x = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        w = Tensor(np.ones((3, 2), dtype=np.float32))
        y = ((x @ w) * 2.0 + 1.0).relu().leaky_relu().exp().log()
        assert y.data.dtype == np.float32
        assert (x / 3.0).data.dtype == np.float32
        assert x.mean().data.dtype == np.float32

    def test_astype_detaches(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x.astype(np.float32)
        assert y.data.dtype == np.float32
        assert not y.requires_grad

    def test_item_multi_element_raises_value_error(self):
        with pytest.raises(ValueError, match="exactly one element"):
            Tensor([1.0, 2.0]).item()

    def test_module_astype(self):
        rng = np.random.default_rng(0)
        model = SmallResNet(1, num_classes=3, widths=(4,), rng=rng)
        model.astype(np.float32)
        assert all(p.data.dtype == np.float32 for p in model.parameters())
        x = Tensor(rng.normal(0, 1, (2, 1, 8, 8)).astype(np.float32))
        assert model(x).data.dtype == np.float32


class TestFusion:
    def test_resnet_fusion_parity_float64(self):
        rng = np.random.default_rng(1)
        model = SmallResNet(1, num_classes=4, widths=(4, 8), rng=rng)
        x = rng.normal(0, 1, (4, 1, 8, 8))
        warm_batchnorm(model, x)
        fused = fuse_for_inference(model)
        with nn.no_grad():
            expected = model(Tensor(x)).data
            got = fused(Tensor(x)).data
        np.testing.assert_allclose(got, expected, atol=1e-5)

    def test_resnet_fusion_parity_float32(self):
        rng = np.random.default_rng(2)
        model = SmallResNet(1, num_classes=4, widths=(4,), rng=rng)
        x = rng.normal(0, 1, (4, 1, 8, 8))
        warm_batchnorm(model, x)
        fused = fuse_for_inference(model, dtype=np.float32)
        with nn.no_grad():
            expected = model(Tensor(x)).data
            got = fused(Tensor(x.astype(np.float32))).data
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, expected, atol=1e-4)

    def test_fused_layer_count_and_identities(self):
        rng = np.random.default_rng(3)
        # widths=(4, 8): stem_bn + 2 blocks x (bn1, bn2, shortcut_bn) = 7.
        model = SmallResNet(1, num_classes=4, widths=(4, 8), rng=rng)
        fused = fuse_for_inference(model)
        assert fused.fused_layers == 7
        assert isinstance(fused.stem_bn, nn.Identity)
        assert isinstance(fused.block0.bn1, nn.Identity)
        assert isinstance(fused.block1.shortcut_bn, nn.Identity)

    def test_original_model_untouched(self):
        rng = np.random.default_rng(4)
        model = SmallResNet(1, num_classes=3, widths=(4,), rng=rng)
        x = rng.normal(0, 1, (2, 1, 8, 8))
        warm_batchnorm(model, x)
        before = model(Tensor(x)).data.copy()
        fuse_for_inference(model, dtype=np.float32)
        assert isinstance(model.stem_bn, nn.BatchNorm2d)
        assert model.stem.weight.data.dtype == np.float64
        np.testing.assert_array_equal(model(Tensor(x)).data, before)

    def test_fused_early_exit_parity(self):
        rng = np.random.default_rng(5)
        model = make_early_exit(rng)
        x = rng.normal(0, 1, (6, 1, 8, 8))
        warm_batchnorm(model, x)
        fused = fuse_for_inference(model)
        assert fused.fused_layers == 2
        batch = model.infer_batch(x, threshold=0.5)
        fused_batch = fused.infer_batch(x, threshold=0.5)
        np.testing.assert_array_equal(fused_batch.predictions,
                                      batch.predictions)
        np.testing.assert_array_equal(fused_batch.exit_index, batch.exit_index)
        np.testing.assert_allclose(fused_batch.local_logits,
                                   batch.local_logits, atol=1e-5)


class TestBatchedEarlyExitParity:
    def reference_decisions(self, model, x, threshold):
        """The pre-batching semantics: one sample at a time, by hand."""
        rows = []
        with eval_mode(model), nn.no_grad():
            for index in range(x.shape[0]):
                features = model.local_stage(Tensor(x[index:index + 1]))
                local = model.local_head(features).data
                conf = float(score_confidence(local)[0])
                if conf >= threshold:
                    rows.append((int(local.argmax()), 1, conf))
                else:
                    remote = model.remote_head(
                        model.remote_stage(features)).data
                    rows.append((int(remote.argmax()), 2, conf))
        return rows

    @pytest.mark.parametrize("batch_size", [None, 1, 3, 100])
    def test_batched_matches_per_sample(self, batch_size):
        # One call over the first ``batch_size`` rows (all when None or
        # more than there are) matches the per-sample reference.
        rng = np.random.default_rng(6)
        model = make_early_exit(rng)
        x = rng.normal(0, 1, (10, 1, 8, 8))
        warm_batchnorm(model, x)
        # Pick a threshold at the median confidence so both exits are used.
        probe = model.infer_batch(x, threshold=0.0)
        threshold = float(np.median(probe.confidence))
        assert 0 < model.infer_batch(x, threshold).local_fraction < 1
        x = x[:batch_size]
        reference = self.reference_decisions(model, x, threshold)
        batch = model.infer_batch(x, threshold)
        assert len(batch) == len(reference)
        for row, (prediction, exit_index, conf) in enumerate(reference):
            assert batch.predictions[row] == prediction
            assert batch.exit_index[row] == exit_index
            assert batch.confidence[row] == pytest.approx(conf, abs=1e-12)

    def test_infer_matches_infer_batch(self):
        # Rows are independent: each slice's own call decides exactly what
        # the whole batch decided for those rows (the gateway's split).
        rng = np.random.default_rng(8)
        model = make_early_exit(rng)
        x = rng.normal(0, 1, (5, 1, 8, 8))
        warm_batchnorm(model, x)
        threshold = float(np.median(model.infer_batch(x, 0.0).confidence))
        whole = model.infer_batch(x, threshold)
        assert 0 < whole.remote_rows.size < 5
        parts = split_decisions(whole, [2, 2, 1])
        for start, part in zip((0, 2, 4), parts):
            alone = model.infer_batch(x[start:start + len(part)], threshold)
            np.testing.assert_array_equal(part.predictions, alone.predictions)
            np.testing.assert_array_equal(part.exit_index, alone.exit_index)
            np.testing.assert_array_equal(part.remote_rows, alone.remote_rows)
            if part.remote_rows.size:
                np.testing.assert_allclose(part.remote_logits,
                                           alone.remote_logits, atol=1e-12)


class TestInferenceHelpers:
    def test_eval_mode_restores_training_flags(self):
        rng = np.random.default_rng(9)
        model = make_early_exit(rng)
        model.train()
        with eval_mode(model):
            assert all(not m.training for m in model.modules())
        assert all(m.training for m in model.modules())

    def test_eval_mode_restores_on_exception(self):
        rng = np.random.default_rng(10)
        model = make_early_exit(rng)
        model.train()
        with pytest.raises(RuntimeError):
            with eval_mode(model):
                raise RuntimeError("boom")
        assert all(m.training for m in model.modules())

    def test_eval_mode_undoes_mode_changes_made_inside_the_block(self):
        # Flags are written only where they differ, on entry and on exit;
        # "differ" is judged against the flag's value at exit, so a
        # train() (or a child's eval()) inside the block is still undone.
        rng = np.random.default_rng(14)
        model = make_early_exit(rng)
        model.eval()
        model.local_head.train()
        expected = [m.training for m in model.modules()]
        with eval_mode(model):
            assert all(not m.training for m in model.modules())
            model.train()
            model.remote_stage.eval()
        assert [m.training for m in model.modules()] == expected

    def test_batched_forward_matches_full(self):
        rng = np.random.default_rng(11)
        model = SmallResNet(1, num_classes=3, widths=(4,), rng=rng)
        x = rng.normal(0, 1, (7, 1, 8, 8))
        warm_batchnorm(model, x)
        with eval_mode(model), nn.no_grad():
            expected = model(Tensor(x)).data
        got = batched_forward(model, x)
        np.testing.assert_allclose(got.data, expected, atol=1e-12)

    def test_latency_histogram_is_bounded_with_exact_count(self):
        rt = Runtime()
        with using_runtime(rt):
            for _ in range(1100):
                with observe_inference("m", 1):
                    pass
        latency = rt.registry.get("nn.infer.latency_s")
        assert LATENCY_SAMPLES == 1024
        assert len(latency.values(model="m")) == LATENCY_SAMPLES
        assert latency.count(model="m") == 1100
        assert rt.registry.counter("nn.infer.items").value(model="m") == 1100


class TestZeroRowBatches:
    """A gateway draining an empty coalescing window sends zero rows."""

    def test_batched_forward_empty_batch_returns_empty_array(self):
        rng = np.random.default_rng(12)
        model = nn.Sequential(nn.Linear(8, 4, rng=rng), nn.ReLU(),
                              nn.Linear(4, 3, rng=rng))
        out = batched_forward(model, np.zeros((0, 8)))
        assert out.shape == (0, 3)

    def test_batched_forward_empty_conv_batch(self):
        rng = np.random.default_rng(13)
        model = SmallResNet(1, num_classes=3, widths=(4,), rng=rng)
        out = batched_forward(model, np.zeros((0, 1, 8, 8)))
        assert out.shape == (0, 3)

    def test_infer_batch_empty(self):
        rng = np.random.default_rng(14)
        model = make_early_exit(rng)
        decisions = model.infer_batch(np.zeros((0, 1, 8, 8)), threshold=0.5)
        assert len(decisions) == 0
        assert decisions.predictions.shape == (0,)
        assert decisions.local_logits.shape == (0, 3)
        assert decisions.remote_rows.size == 0
        assert decisions.local_fraction == 0.0
