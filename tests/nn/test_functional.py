"""Tests for conv/pool primitives, softmax family and losses."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.grad_mode import no_grad
from repro.nn.tensor import Tensor
from tests.nn.gradcheck import check_grad


class TestIm2col:
    def test_shapes(self):
        x = np.arange(2 * 3 * 5 * 5, dtype=float).reshape(2, 3, 5, 5)
        cols, out_h, out_w = F.im2col(x, kernel=3, stride=1, padding=0)
        assert (out_h, out_w) == (3, 3)
        assert cols.shape == (2 * 9, 3 * 9)

    def test_stride_and_padding(self):
        x = np.ones((1, 1, 4, 4))
        cols, out_h, out_w = F.im2col(x, kernel=2, stride=2, padding=1)
        assert (out_h, out_w) == (3, 3)

    def test_collapsed_output_rejected(self):
        x = np.ones((1, 1, 2, 2))
        with pytest.raises(ValueError):
            F.im2col(x, kernel=5, stride=1, padding=0)

    def test_col2im_inverts_counts(self):
        # col2im(im2col(x)) with ones equals the overlap count per pixel.
        x = np.ones((1, 1, 4, 4))
        cols, _, _ = F.im2col(x, kernel=2, stride=1, padding=0)
        back = F.col2im(cols, x.shape, kernel=2, stride=1, padding=0)
        # Corner pixels appear in 1 window, center pixels in 4.
        assert back[0, 0, 0, 0] == 1.0
        assert back[0, 0, 1, 1] == 4.0


class TestConv2d:
    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (1, 1, 4, 4))
        w = rng.normal(0, 1, (1, 1, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w)).data
        expected = np.zeros((1, 1, 2, 2))
        for i in range(2):
            for j in range(2):
                expected[0, 0, i, j] = (x[0, 0, i:i + 3, j:j + 3] * w[0, 0]).sum()
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_output_shape_with_padding_stride(self):
        x = Tensor(np.zeros((2, 3, 8, 8)))
        w = Tensor(np.zeros((5, 3, 3, 3)))
        out = F.conv2d(x, w, stride=2, padding=1)
        assert out.shape == (2, 5, 4, 4)

    def test_bias_added_per_channel(self):
        x = Tensor(np.zeros((1, 1, 3, 3)))
        w = Tensor(np.zeros((2, 1, 3, 3)))
        b = Tensor(np.array([1.5, -2.0]))
        out = F.conv2d(x, w, b).data
        np.testing.assert_allclose(out[0, 0], 1.5)
        np.testing.assert_allclose(out[0, 1], -2.0)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((1, 2, 3, 3))))

    def test_input_gradient(self):
        rng = np.random.default_rng(1)
        w = Tensor(rng.normal(0, 1, (2, 1, 3, 3)))
        check_grad(lambda x: (F.conv2d(x, w, padding=1) ** 2).sum(),
                   (1, 1, 4, 4), rng=rng)

    def test_weight_gradient(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(0, 1, (2, 2, 5, 5)))
        check_grad(lambda w: (F.conv2d(x, w, stride=2) ** 2).sum(),
                   (3, 2, 3, 3), rng=rng)

    def test_bias_gradient(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(0, 1, (2, 1, 4, 4)))
        w = Tensor(rng.normal(0, 1, (2, 1, 3, 3)))
        check_grad(lambda b: (F.conv2d(x, w, b) ** 2).sum(), (2,), rng=rng)


class TestConvBands:
    """The inference conv's bands: exact tiling within the L2 budget."""

    #: (C, K, F, H', W', rows, itemsize) -> band count
    GEOMETRIES = {
        (1, 3, 8, 16, 16, 256, 4): 6,     # Fig. 5 local conv, camera-drain
        (8, 3, 16, 8, 8, 89, 4): 2,       # Fig. 5 remote convs, 89 escalated
        (16, 3, 16, 8, 8, 89, 4): 4,
        (16, 3, 16, 8, 8, 16, 4): 1,      # a camera-paced batch fits one band
        (16, 5, 16, 20, 20, 512, 8): 20,  # one output row exceeds the budget
        (3, 3, 4, 7, 7, 0, 4): 1,         # zero rows
    }

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_bands_tile_the_output_once_in_order_within_budget(self, geometry):
        c, k, f, out_h, out_w, rows, itemsize = geometry
        spans = F.conv_bands(*geometry)
        assert len(spans) == self.GEOMETRIES[geometry]
        assert [first for first, _ in spans] == [0] + [s for _, s in spans[:-1]]
        assert spans[-1][1] == out_h
        row_bytes = (c * k * k + f) * out_w * rows * itemsize
        for first, stop in spans:
            assert stop > first
            assert (stop - first) * row_bytes <= F.CONV_BAND_BYTES \
                or stop - first == 1
        # every band but the last is as tall as the budget allows
        for first, stop in spans[:-1]:
            assert (stop - first + 1) * row_bytes > F.CONV_BAND_BYTES

    def test_views_tile_the_result_and_reuse_one_band_of_scratch(self):
        c, k, f, size, rows = 1, 3, 8, 16, 256
        spans = F.conv_bands(c, k, f, size, size, rows, 4)
        x_t = np.zeros((c, size + 2, size + 2, rows), np.float32)  # padded
        out = np.empty((f, size * size * rows), np.float32)
        cols = np.empty(c * k * k * spans[0][1] * size * rows, np.float32)
        views = F.conv_band_views(x_t, cols, out, k, 1)
        assert len(views) == len(spans) > 1
        covered = 0
        for (dst, src, operand, block), (first, stop) in zip(views, spans):
            assert dst.shape == src.shape == (c, k, k, stop - first, size, rows)
            assert dst.ctypes.data == operand.ctypes.data == cols.ctypes.data
            assert operand.flags["C_CONTIGUOUS"]
            assert operand.shape == (c * k * k, (stop - first) * size * rows)
            assert block.shape == (f, operand.shape[1])
            assert block.ctypes.data == out.ctypes.data + covered * out.itemsize
            covered += block.shape[1]
        assert covered == out.shape[1]

    def test_multi_band_no_grad_conv_matches_the_training_forward(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, (256, 1, 16, 16)).astype(np.float32)  # 6 bands
        w = rng.normal(0, 1, (8, 1, 3, 3)).astype(np.float32)
        b = rng.normal(0, 1, 8).astype(np.float32)
        with no_grad():
            fast = F.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=1).data
            empty = F.conv2d(Tensor(x[:0]), Tensor(w), Tensor(b), padding=1)
        slow = F.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=1).data
        np.testing.assert_allclose(fast, slow, rtol=1e-5, atol=1e-5)
        assert empty.shape == (0, 8, 16, 16)


class TestPooling:
    def test_max_pool_values(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        out = F.max_pool2d(Tensor(x), kernel=2)
        assert out.data.reshape(-1)[0] == 4.0

    def test_max_pool_shape(self):
        out = F.max_pool2d(Tensor(np.zeros((2, 3, 8, 8))), kernel=2)
        assert out.shape == (2, 3, 4, 4)

    def test_max_pool_gradient_routes_to_max(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        t = Tensor(x, requires_grad=True)
        F.max_pool2d(t, kernel=2).sum().backward()
        expected = np.array([[0.0, 0.0], [0.0, 1.0]]).reshape(1, 1, 2, 2)
        np.testing.assert_allclose(t.grad, expected)

    def test_max_pool_gradcheck(self):
        rng = np.random.default_rng(4)
        check_grad(lambda x: (F.max_pool2d(x, 2) ** 2).sum(), (1, 2, 4, 4), rng=rng)

    def test_avg_pool_values(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        out = F.avg_pool2d(Tensor(x), kernel=2)
        assert out.data.reshape(-1)[0] == 2.5

    def test_avg_pool_gradcheck(self):
        rng = np.random.default_rng(5)
        check_grad(lambda x: (F.avg_pool2d(x, 2) ** 2).sum(), (1, 2, 4, 4), rng=rng)

    def test_global_avg_pool(self):
        x = Tensor(np.ones((2, 3, 4, 4)) * 5)
        out = F.global_avg_pool2d(x)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.data, 5.0)


class TestSoftmaxFamily:
    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(0, 5, (4, 7)))
        probs = F.softmax(x).data
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)
        assert (probs >= 0).all()

    def test_log_softmax_stability_with_large_logits(self):
        x = Tensor(np.array([[1000.0, 1000.0]]))
        out = F.log_softmax(x).data
        np.testing.assert_allclose(out, np.log(0.5), atol=1e-9)

    def test_log_softmax_gradcheck(self):
        rng = np.random.default_rng(7)
        check_grad(lambda x: (F.log_softmax(x) ** 2).sum(), (3, 5), rng=rng)

    def test_entropy_uniform_is_max(self):
        uniform = np.full((1, 4), 0.25)
        peaked = np.array([[0.97, 0.01, 0.01, 0.01]])
        assert F.entropy(uniform)[0] > F.entropy(peaked)[0]
        np.testing.assert_allclose(F.entropy(uniform)[0], np.log(4), rtol=1e-9)

    def test_entropy_handles_zero_probabilities(self):
        assert np.isfinite(F.entropy(np.array([[1.0, 0.0]])))[()]


class TestLosses:
    def test_cross_entropy_perfect_prediction_is_small(self):
        logits = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]))
        loss = F.cross_entropy(logits, np.array([0, 1]))
        assert loss.item() < 1e-6

    def test_cross_entropy_uniform_is_log_c(self):
        logits = Tensor(np.zeros((5, 10)))
        loss = F.cross_entropy(logits, np.zeros(5, dtype=int))
        np.testing.assert_allclose(loss.item(), np.log(10), rtol=1e-9)

    def test_cross_entropy_gradcheck(self):
        rng = np.random.default_rng(8)
        targets = np.array([0, 2, 1])
        check_grad(lambda x: F.cross_entropy(x, targets), (3, 4), rng=rng)

    def test_cross_entropy_validates_shapes(self):
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros((2, 3))), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros((2, 3))), np.zeros(5, dtype=int))

    def test_mse_zero_for_identical(self):
        x = Tensor(np.ones((3, 2)))
        assert F.mse_loss(x, x).item() == 0.0

    def test_mse_gradcheck(self):
        rng = np.random.default_rng(9)
        target = Tensor(rng.normal(0, 1, (4, 2)))
        check_grad(lambda x: F.mse_loss(x, target), (4, 2), rng=rng)

    def test_accuracy(self):
        logits = Tensor(np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.3]]))
        assert F.accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)
