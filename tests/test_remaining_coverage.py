"""Targeted tests for code paths the main suites exercise only indirectly."""

import numpy as np
import pytest

from repro import nn
from repro.cluster import Environment, SimulationError, Store
from repro.nn import init
from repro.nn.tensor import Tensor


class TestInitializers:
    def test_fans_dense(self):
        assert init._fans((8, 4)) == (4, 8)

    def test_fans_conv(self):
        fan_in, fan_out = init._fans((16, 3, 5, 5))
        assert fan_in == 3 * 25
        assert fan_out == 16 * 25

    def test_fans_other_shapes(self):
        fan_in, fan_out = init._fans((7,))
        assert fan_in == fan_out == 7

    def test_kaiming_bound(self):
        rng = np.random.default_rng(0)
        weights = init.kaiming_uniform((64, 16), rng)
        bound = np.sqrt(6.0 / 16)
        assert np.abs(weights).max() <= bound
        assert np.abs(weights).max() > 0.5 * bound  # actually spread out

    def test_xavier_bound(self):
        rng = np.random.default_rng(1)
        weights = init.xavier_uniform((32, 32), rng)
        bound = np.sqrt(6.0 / 64)
        assert np.abs(weights).max() <= bound

    def test_zeros_ones(self):
        assert init.zeros((2, 2)).sum() == 0
        assert init.ones((2, 2)).sum() == 4


class TestSimKernelCorners:
    def test_all_of_propagates_failure(self):
        env = Environment()
        bad = env.event()
        caught = []

        def proc(env):
            try:
                yield env.all_of([env.timeout(10.0), bad])
            except RuntimeError as exc:
                caught.append((env.now, str(exc)))

        def failer(env):
            yield env.timeout(1.0)
            bad.fail(RuntimeError("dead sensor"))

        env.process(proc(env))
        env.process(failer(env))
        env.run()
        assert caught == [(1.0, "dead sensor")]

    def test_all_of_with_pretriggered_events(self):
        env = Environment()
        done = env.event()
        done.succeed("x")
        values = []

        def proc(env):
            result = yield env.all_of([done])
            values.append(result)

        env.process(proc(env))
        env.run()
        assert values == [["x"]]

    def test_any_of_with_pretriggered_event(self):
        env = Environment()
        done = env.event()
        done.succeed("quick")
        values = []

        def proc(env):
            value = yield env.any_of([done, env.timeout(100.0)])
            values.append((env.now, value))

        env.process(proc(env))
        env.run(until=1.0)
        assert values == [(0.0, "quick")]

    def test_store_multiple_waiting_getters_fifo(self):
        env = Environment()
        store = Store(env)
        order = []

        def getter(env, name):
            item = yield store.get()
            order.append((name, item))

        def putter(env):
            yield env.timeout(1.0)
            yield store.put("a")
            yield store.put("b")

        env.process(getter(env, "first"))
        env.process(getter(env, "second"))
        env.process(putter(env))
        env.run()
        assert order == [("first", "a"), ("second", "b")]

    def test_fail_requires_exception_instance(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.event().fail("not an exception")

    def test_process_target_must_be_generator(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.process(lambda: None)


class TestMiscLayers:
    def test_leaky_relu_layer(self):
        layer = nn.LeakyReLU(0.2)
        out = layer(Tensor(np.array([-1.0, 2.0])))
        np.testing.assert_allclose(out.data, [-0.2, 2.0])

    def test_tanh_sigmoid_layers(self):
        x = Tensor(np.array([0.0]))
        assert nn.Tanh()(x).data[0] == 0.0
        assert nn.Sigmoid()(x).data[0] == 0.5

    def test_avg_pool_layer(self):
        layer = nn.AvgPool2d(2)
        x = Tensor(np.arange(4, dtype=float).reshape(1, 1, 2, 2))
        assert layer(x).data.reshape(-1)[0] == 1.5

    def test_sequential_iteration_and_len(self):
        model = nn.Sequential(nn.ReLU(), nn.Tanh())
        assert len(model) == 2
        assert isinstance(list(model)[0], nn.ReLU)

    def test_embedding_empty_batch(self):
        emb = nn.Embedding(5, 3)
        out = emb(np.array([], dtype=int))
        assert out.shape == (0, 3)


class TestTensorMatmulCorners:
    def test_vector_vector_dot(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        out = a @ b
        assert out.item() == 11.0
        out.backward(np.array(1.0))
        np.testing.assert_allclose(a.grad, [3.0, 4.0])
        np.testing.assert_allclose(b.grad, [1.0, 2.0])

    def test_vector_matrix(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        m = Tensor(np.ones((2, 3)), requires_grad=True)
        out = (a @ m).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, [3.0, 3.0])
        np.testing.assert_allclose(m.grad, [[1.0] * 3, [2.0] * 3])

    def test_matrix_vector(self):
        m = Tensor(np.ones((3, 2)), requires_grad=True)
        v = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        out = (m @ v).sum()
        out.backward()
        np.testing.assert_allclose(v.grad, [3.0, 3.0])
        np.testing.assert_allclose(m.grad, [[1.0, 2.0]] * 3)
