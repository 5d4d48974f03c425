"""Autograd correctness tests: every op checked against central differences."""

import numpy as np
import pytest

from repro.nn.tensor import Tensor, concatenate, stack
from tests.nn.gradcheck import check_grad


class TestBasics:
    def test_construction_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.data.dtype == np.float64

    def test_item_scalar(self):
        assert Tensor(3.5).item() == 3.5

    def test_item_single_element_array(self):
        assert Tensor([[4.0]]).item() == 4.0

    def test_item_multi_element_raises(self):
        with pytest.raises(ValueError, match="exactly one element"):
            Tensor([1.0, 2.0]).item()

    def test_detach_cuts_graph(self):
        x = Tensor([1.0], requires_grad=True)
        y = (x * 2).detach()
        assert not y.requires_grad

    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward()

    def test_backward_on_non_grad_tensor(self):
        with pytest.raises(ValueError):
            Tensor([1.0]).backward()

    def test_grad_accumulates_across_backwards(self):
        x = Tensor([2.0], requires_grad=True)
        (x * 3).sum().backward()
        (x * 3).sum().backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_zero_grad(self):
        x = Tensor([2.0], requires_grad=True)
        (x * 3).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_repr(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))


class TestArithmeticGradients:
    def test_add(self):
        check_grad(lambda x: (x + 3.0).sum(), (4, 3))

    def test_add_broadcast(self):
        rng = np.random.default_rng(1)
        other = Tensor(rng.normal(0, 1, (3,)))
        check_grad(lambda x: (x + other).sum(), (4, 3))

    def test_broadcast_gradient_of_small_operand(self):
        a = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.ones((3,)), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(b.grad, [4.0, 4.0, 4.0])

    def test_sub(self):
        check_grad(lambda x: (10.0 - x).sum(), (5,))

    def test_mul(self):
        rng = np.random.default_rng(2)
        other = Tensor(rng.normal(0, 1, (4, 3)))
        check_grad(lambda x: (x * other).sum(), (4, 3))

    def test_div(self):
        rng = np.random.default_rng(3)
        other = Tensor(rng.normal(0, 1, (4,)) + 3.0)
        check_grad(lambda x: (x / other).sum(), (4,))

    def test_rdiv(self):
        check_grad(lambda x: (1.0 / (x + 5.0)).sum(), (4,))

    def test_pow(self):
        check_grad(lambda x: ((x + 5.0) ** 3).sum(), (4,))

    def test_neg(self):
        check_grad(lambda x: (-x).sum(), (3, 2))

    def test_matmul_2d(self):
        rng = np.random.default_rng(4)
        other = Tensor(rng.normal(0, 1, (3, 5)))
        check_grad(lambda x: (x @ other).sum(), (4, 3))

    def test_matmul_grad_of_right_operand(self):
        rng = np.random.default_rng(5)
        left = rng.normal(0, 1, (4, 3))

        def fn(x):
            return (Tensor(left) @ x).sum()

        check_grad(fn, (3, 5))

    def test_matmul_batched(self):
        rng = np.random.default_rng(6)
        other = Tensor(rng.normal(0, 1, (2, 3, 5)))
        check_grad(lambda x: (x @ other).sum(), (2, 4, 3))

    def test_matmul_vector(self):
        rng = np.random.default_rng(7)
        other = Tensor(rng.normal(0, 1, (3,)))
        check_grad(lambda x: (x @ other).sum(), (4, 3))


class TestNonlinearityGradients:
    def test_exp(self):
        check_grad(lambda x: x.exp().sum(), (4,))

    def test_log(self):
        check_grad(lambda x: (x.abs() + 1.0).log().sum(), (4,))

    def test_tanh(self):
        check_grad(lambda x: x.tanh().sum(), (4, 3))

    def test_sigmoid(self):
        check_grad(lambda x: x.sigmoid().sum(), (4, 3))

    def test_relu(self):
        rng = np.random.default_rng(8)
        # Keep values away from the kink.
        value = rng.normal(0, 1, (10,))
        value[np.abs(value) < 0.1] = 0.5
        x = Tensor(value, requires_grad=True)
        x.relu().sum().backward()
        np.testing.assert_allclose(x.grad, (value > 0).astype(float))

    def test_leaky_relu(self):
        value = np.array([-2.0, 3.0])
        x = Tensor(value, requires_grad=True)
        x.leaky_relu(0.1).sum().backward()
        np.testing.assert_allclose(x.grad, [0.1, 1.0])

    def test_abs(self):
        check_grad(lambda x: (x + 10.0).abs().sum(), (4,))

    def test_clip(self):
        value = np.array([-5.0, 0.5, 5.0])
        x = Tensor(value, requires_grad=True)
        x.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_sqrt(self):
        check_grad(lambda x: (x.abs() + 1.0).sqrt().sum(), (4,))


class TestReductionGradients:
    def test_sum_all(self):
        check_grad(lambda x: x.sum(), (3, 4))

    def test_sum_axis(self):
        check_grad(lambda x: (x.sum(axis=1) ** 2).sum(), (3, 4))

    def test_sum_axis_keepdims(self):
        check_grad(lambda x: (x.sum(axis=0, keepdims=True) ** 2).sum(), (3, 4))

    def test_sum_tuple_axes(self):
        check_grad(lambda x: (x.sum(axis=(1, 2)) ** 2).sum(), (2, 3, 4))

    def test_mean(self):
        check_grad(lambda x: (x.mean(axis=1) ** 2).sum(), (3, 4))

    def test_mean_all(self):
        check_grad(lambda x: x.mean() * 7.0, (3, 4))

    def test_var(self):
        check_grad(lambda x: x.var(axis=0).sum(), (5, 3))

    def test_max_axis(self):
        rng = np.random.default_rng(9)
        value = rng.normal(0, 1, (3, 4))
        x = Tensor(value, requires_grad=True)
        x.max(axis=1).sum().backward()
        expected = np.zeros_like(value)
        expected[np.arange(3), value.argmax(axis=1)] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_max_all(self):
        value = np.array([1.0, 5.0, 3.0])
        x = Tensor(value, requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])


class TestShapeGradients:
    def test_reshape(self):
        check_grad(lambda x: (x.reshape(6) ** 2).sum(), (2, 3))

    def test_reshape_tuple_arg(self):
        check_grad(lambda x: (x.reshape((3, 2)) ** 2).sum(), (2, 3))

    def test_transpose_default(self):
        check_grad(lambda x: (x.T ** 2).sum(), (2, 3))

    def test_transpose_axes(self):
        check_grad(lambda x: (x.transpose(1, 0, 2) ** 2).sum(), (2, 3, 4))

    def test_getitem_slice(self):
        check_grad(lambda x: (x[1:3] ** 2).sum(), (5, 2))

    def test_getitem_fancy(self):
        idx = np.array([0, 2, 2])

        def fn(x):
            return (x[idx] ** 2).sum()

        value = np.random.default_rng(10).normal(0, 1, (4, 3))
        x = Tensor(value.copy(), requires_grad=True)
        fn(x).backward()
        expected = np.zeros_like(value)
        expected[0] = 2 * value[0]
        expected[2] = 2 * 2 * value[2]  # selected twice -> grads accumulate
        np.testing.assert_allclose(x.grad, expected)


class TestCombinators:
    def test_concatenate_gradients(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((4, 3)), requires_grad=True)
        out = concatenate([a, b], axis=0)
        assert out.shape == (6, 3)
        (out * 2).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3), 2.0))
        np.testing.assert_allclose(b.grad, np.full((4, 3), 2.0))

    def test_stack_gradients(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 3)
        (out[0] * 5).sum().backward()
        np.testing.assert_allclose(a.grad, [5.0, 5.0, 5.0])
        np.testing.assert_allclose(b.grad, [0.0, 0.0, 0.0])


class TestGraphStructure:
    def test_diamond_graph(self):
        # x feeds two paths that rejoin: gradient must accumulate once each.
        x = Tensor([3.0], requires_grad=True)
        y = x * 2
        z = x * 5
        (y + z).sum().backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_reused_node(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x  # d/dx = 2x
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_deep_chain(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(50):
            y = y * 1.1
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.1 ** 50], rtol=1e-10)

    def test_no_grad_inputs_skip_backward(self):
        x = Tensor([1.0])
        y = Tensor([2.0], requires_grad=True)
        out = (x * y).sum()
        out.backward()
        assert x.grad is None
        np.testing.assert_allclose(y.grad, [1.0])

    def test_comparison_returns_plain_array(self):
        x = Tensor([1.0, 3.0])
        mask = x > 2.0
        assert isinstance(mask, np.ndarray)
        np.testing.assert_array_equal(mask, [False, True])
