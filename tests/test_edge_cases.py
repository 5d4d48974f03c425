"""Cross-cutting edge-case tests that don't belong to one module suite."""

import numpy as np
import pytest

from repro import nn
from repro.dfs import DistributedFileSystem
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.nosql import Collection, HTable


class TestNNEdgeCases:
    def test_conv_one_by_one_kernel(self):
        layer = nn.Conv2d(3, 5, kernel_size=1)
        out = layer(Tensor(np.zeros((2, 3, 4, 4))))
        assert out.shape == (2, 5, 4, 4)

    def test_conv_stride_larger_than_kernel(self):
        layer = nn.Conv2d(1, 1, kernel_size=1, stride=2)
        out = layer(Tensor(np.zeros((1, 1, 4, 4))))
        assert out.shape == (1, 1, 2, 2)

    def test_batch_of_one(self):
        model = nn.Sequential(nn.Conv2d(1, 2, 3, padding=1),
                              nn.BatchNorm2d(2), nn.ReLU(),
                              nn.Flatten(), nn.Linear(2 * 4 * 4, 2))
        out = model(Tensor(np.zeros((1, 1, 4, 4))))
        assert out.shape == (1, 2)

    def test_single_class_cross_entropy(self):
        logits = Tensor(np.zeros((3, 1)))
        loss = F.cross_entropy(logits, np.zeros(3, dtype=int))
        assert loss.item() == pytest.approx(0.0)

    def test_lstm_single_timestep(self):
        lstm = nn.LSTM(2, 4)
        out = lstm(Tensor(np.zeros((2, 1, 2))))
        assert out.shape == (2, 1, 4)

    def test_dropout_grad_flows_through_mask(self):
        layer = nn.Dropout(0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones((10, 10)), requires_grad=True)
        layer(x).sum().backward()
        # kept positions have grad 2.0 (inverted scaling), dropped 0.0
        unique = set(np.unique(x.grad).tolist())
        assert unique <= {0.0, 2.0}

    def test_adam_handles_zero_gradient(self):
        param = nn.Parameter(np.array([1.0]))
        optimizer = nn.Adam([param], lr=0.1)
        (param * 0.0).sum().backward()
        optimizer.step()
        assert np.isfinite(param.data).all()

    def test_sgd_on_parameter_without_any_backward(self):
        param = nn.Parameter(np.array([1.0]))
        nn.SGD([param], lr=0.1).step()  # no grad at all: no-op
        assert param.data[0] == 1.0


class TestStorageEdgeCases:
    def test_dfs_block_size_one(self):
        dfs = DistributedFileSystem.with_datanodes(3, replication=2,
                                                   block_size=1)
        dfs.create("/tiny", b"abc")
        assert dfs.read("/tiny") == b"abc"
        assert len(dfs.stat("/tiny").block_ids) == 3

    def test_dfs_exact_block_multiple(self):
        dfs = DistributedFileSystem.with_datanodes(3, replication=2,
                                                   block_size=4)
        dfs.create("/even", b"12345678")
        assert len(dfs.stat("/even").block_ids) == 2
        assert dfs.read("/even") == b"12345678"

    def test_htable_empty_value(self):
        dfs = DistributedFileSystem.with_datanodes(3, replication=2)
        table = HTable("t", dfs, families=("d",))
        table.put("r", "d", "q", b"")
        assert table.get_value("r", "d", "q") == b""

    def test_htable_binary_values(self):
        dfs = DistributedFileSystem.with_datanodes(3, replication=2)
        table = HTable("t", dfs, families=("d",))
        payload = bytes(range(256))
        table.put("r", "d", "q", payload)
        table.flush()
        table._hfile_cache.clear()
        assert table.get_value("r", "d", "q") == payload

    def test_mongo_none_values_queryable(self):
        collection = Collection("c")
        collection.insert({"field": None})
        collection.insert({"field": 1})
        # None equality matches the stored None AND the missing-field doc
        # semantics of _get_path; $exists distinguishes them.
        assert collection.count({"field": {"$exists": True}}) == 1

    def test_mongo_nested_and_with_geo(self):
        collection = Collection("c")
        collection.insert({"location": [0.5, 0.5], "kind": "crime"})
        collection.insert({"location": [0.5, 0.5], "kind": "traffic"})
        hits = collection.find({"$and": [
            {"kind": "crime"},
            {"location": {"$near": [0.5, 0.5], "$maxDistance": 0.1}},
        ]})
        assert len(hits) == 1

    def test_mongo_sort_with_missing_field_last(self):
        collection = Collection("c")
        collection.insert({"a": 2})
        collection.insert({"b": 1})
        collection.insert({"a": 1})
        docs = collection.find({}, sort="a")
        values = [d.get("a") for d in docs]
        assert values == [1, 2, None]


class TestDeterminism:
    """Seeded components must be bit-reproducible across runs."""

    def test_scene_generator_reproducible(self):
        from repro.data import SceneGenerator
        a = SceneGenerator(image_size=16, num_classes=3, seed=5)
        b = SceneGenerator(image_size=16, num_classes=3, seed=5)
        frame_a, boxes_a = a.generate_scene(2)
        frame_b, boxes_b = b.generate_scene(2)
        np.testing.assert_array_equal(frame_a, frame_b)
        assert boxes_a == boxes_b

    def test_model_init_reproducible(self):
        a = nn.Linear(4, 3, rng=np.random.default_rng(11))
        b = nn.Linear(4, 3, rng=np.random.default_rng(11))
        np.testing.assert_array_equal(a.weight.data, b.weight.data)

    def test_training_reproducible(self):
        def run():
            rng = np.random.default_rng(0)
            x = rng.normal(0, 1, (20, 2))
            y = (x.sum(axis=1) > 0).astype(int)
            model = nn.Sequential(
                nn.Linear(2, 4, rng=np.random.default_rng(1)),
                nn.ReLU(),
                nn.Linear(4, 2, rng=np.random.default_rng(2)))
            optimizer = nn.Adam(model.parameters(), lr=0.05)
            for _ in range(10):
                optimizer.zero_grad()
                loss = F.cross_entropy(model(Tensor(x)), y)
                loss.backward()
                optimizer.step()
            return loss.item()

        assert run() == run()

    def test_city_data_reproducible(self):
        from repro.data import OpenCityData
        a = OpenCityData(seed=9).crime_incidents(days=5)
        b = OpenCityData(seed=9).crime_incidents(days=5)
        assert a == b
