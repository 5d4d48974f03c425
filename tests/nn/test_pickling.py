"""Pickle round-trips for tensors and the model zoo (worker transport)."""

import pickle

import numpy as np
import pytest

from repro import nn
from repro.nn.models.autoencoder import Autoencoder
from repro.nn.models.cnn import SimpleCNN
from repro.nn.models.earlyexit import EarlyExitNetwork
from repro.nn.models.lstm import LSTMClassifier
from repro.nn.models.resnet import SmallResNet
from repro.nn.models.yolo import EarlyExitDetector
from repro.nn.tensor import Tensor
from repro.runtime import Runtime, using_runtime


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


class TestTensorPickling:
    def test_values_dtype_and_flags_preserved(self):
        for dtype in (np.float32, np.float64):
            t = Tensor(np.arange(6, dtype=dtype).reshape(2, 3),
                       requires_grad=True)
            back = roundtrip(t)
            assert np.array_equal(back.data, t.data)
            assert back.dtype == dtype
            assert back.requires_grad is True

    def test_accumulated_grad_preserved(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        (t * 3.0).sum().backward()
        back = roundtrip(t)
        assert np.array_equal(back.grad, t.grad)

    def test_grad_closures_dropped(self):
        # A tensor mid-graph carries a backward closure over its parents;
        # the round-trip must detach it rather than fail to pickle.
        a = Tensor([1.0, 2.0], requires_grad=True)
        out = (a * a).sum()
        assert out._backward is not None
        back = roundtrip(out)
        assert back._backward is None
        assert back._parents == ()
        assert np.array_equal(back.data, out.data)

    def test_parameter_roundtrip_stays_parameter(self):
        p = nn.Parameter(np.ones((2, 2)))
        back = roundtrip(p)
        assert isinstance(back, nn.Parameter)
        assert np.array_equal(back.data, p.data)


def zoo(rng):
    return {
        "linear_stack": nn.Sequential(
            nn.Linear(6, 8, rng=rng), nn.ReLU(),
            nn.Identity(), nn.Linear(8, 3, rng=rng)),
        "cnn": SimpleCNN(1, 12, num_classes=3, rng=rng),
        "resnet": SmallResNet(1, num_classes=3, widths=(4, 8), rng=rng),
        "lstm": LSTMClassifier(5, 7, 3, rng=rng),
        "autoencoder": Autoencoder(10, (6,), 4, rng=rng),
        "yolo": EarlyExitDetector(3, 16, num_classes=3, rng=rng),
    }


def sample_input(name, rng):
    if name == "linear_stack":
        return Tensor(rng.normal(0.0, 1.0, (4, 6)))
    if name in ("cnn", "resnet"):
        return Tensor(rng.normal(0.0, 1.0, (2, 1, 12, 12)))
    if name == "lstm":
        return Tensor(rng.normal(0.0, 1.0, (2, 6, 5)))
    if name == "autoencoder":
        return Tensor(rng.normal(0.0, 1.0, (4, 10)))
    if name == "yolo":
        return Tensor(rng.normal(0.0, 1.0, (2, 3, 16, 16)))
    raise AssertionError(name)


class TestModulePickling:
    @pytest.mark.parametrize("name", ["linear_stack", "cnn", "resnet",
                                      "lstm", "autoencoder", "yolo"])
    def test_zoo_roundtrip_preserves_state_and_forward(self, name):
        with using_runtime(Runtime(seed=2)) as rt:
            rng = rt.rng.np_child("test.pickling", name)
            model = zoo(rng)[name]
            back = roundtrip(model)
            state, state_back = model.state_dict(), back.state_dict()
            assert sorted(state) == sorted(state_back)
            for key in state:
                assert np.array_equal(state[key], state_back[key]), key
                assert state[key].dtype == state_back[key].dtype, key
            x = sample_input(name, rt.rng.np_child("test.pickling.x", name))
            with nn.no_grad():
                model.eval()
                back.eval()
                expected = model(x)
                actual = back(x)
            expected = expected[0] if isinstance(expected, tuple) else expected
            actual = actual[0] if isinstance(actual, tuple) else actual
            assert np.array_equal(expected.data, actual.data)

    def test_early_exit_roundtrip_preserves_decisions(self):
        with using_runtime(Runtime(seed=3)) as rt:
            rng = rt.rng.np_child("test.pickling.ee")
            model = EarlyExitNetwork(
                local_stage=nn.Sequential(
                    nn.Conv2d(1, 4, 3, padding=1, rng=rng), nn.ReLU()),
                local_head=nn.Sequential(
                    nn.GlobalAvgPool2d(), nn.Linear(4, 3, rng=rng)),
                remote_stage=nn.Sequential(
                    nn.Conv2d(4, 8, 3, padding=1, rng=rng), nn.ReLU()),
                remote_head=nn.Sequential(
                    nn.GlobalAvgPool2d(), nn.Linear(8, 3, rng=rng)))
            x = rt.rng.np_child("test.pickling.ee.x").normal(
                0.0, 1.0, (6, 1, 8, 8))
            before = model.infer_batch(x, threshold=0.5)
            after = roundtrip(model).infer_batch(x, threshold=0.5)
            assert np.array_equal(before.predictions, after.predictions)
            assert np.array_equal(before.exit_index, after.exit_index)

    def test_trained_module_with_graph_still_pickles(self):
        # A module whose parameters hold gradients (and whose forward
        # just built a graph) must round-trip: closures drop, grads stay.
        with using_runtime(Runtime(seed=4)) as rt:
            rng = rt.rng.np_child("test.pickling.grad")
            model = nn.Linear(4, 2, rng=rng)
            out = model(Tensor(rng.normal(0.0, 1.0, (3, 4)))).sum()
            out.backward()
            assert model.weight.grad is not None
            back = roundtrip(model)
            assert np.array_equal(back.weight.grad, model.weight.grad)
            assert back.weight._backward is None
