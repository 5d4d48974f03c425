"""Tests for optimizers, datasets, loaders, ``fit`` and trainers."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.tensor import Tensor


def quadratic_param(start=5.0):
    return nn.Parameter(np.array([start]))


class TestSGD:
    def test_descends_quadratic(self):
        p = quadratic_param()
        opt = nn.SGD([p], lr=0.1)
        for _ in range(100):
            opt.zero_grad()
            (p * p).sum().backward()
            opt.step()
        assert abs(p.data[0]) < 1e-3

    def test_validations(self):
        with pytest.raises(ValueError):
            nn.SGD([], lr=0.1)
        with pytest.raises(ValueError):
            nn.SGD([quadratic_param()], lr=-1)

    def test_skips_parameters_without_grad(self):
        p, q = quadratic_param(), quadratic_param()
        opt = nn.SGD([p, q], lr=0.1)
        (p * p).sum().backward()
        opt.step()  # q has no grad; must not crash
        assert q.data[0] == 5.0


class TestAdam:
    def test_descends_quadratic(self):
        p = quadratic_param()
        opt = nn.Adam([p], lr=0.3)
        for _ in range(200):
            opt.zero_grad()
            (p * p).sum().backward()
            opt.step()
        assert abs(p.data[0]) < 1e-2

    def test_bias_correction_first_step(self):
        # First Adam step should move by ~lr regardless of gradient scale.
        p = quadratic_param(100.0)
        opt = nn.Adam([p], lr=0.1)
        opt.zero_grad()
        (p * p).sum().backward()
        opt.step()
        np.testing.assert_allclose(p.data[0], 100.0 - 0.1, rtol=1e-5)


class TestGradClipping:
    def test_clip_reduces_norm(self):
        p = nn.Parameter(np.array([3.0, 4.0]))
        opt = nn.SGD([p], lr=0.1)
        (p * p).sum().backward()  # grad = (6, 8), norm 10
        norm = opt.clip_grad_norm(1.0)
        assert norm == pytest.approx(10.0)
        np.testing.assert_allclose(np.sqrt((p.grad ** 2).sum()), 1.0)

    def test_no_clip_below_threshold(self):
        p = nn.Parameter(np.array([0.1]))
        opt = nn.SGD([p], lr=0.1)
        (p * p).sum().backward()
        grad_before = p.grad.copy()
        opt.clip_grad_norm(100.0)
        np.testing.assert_allclose(p.grad, grad_before)


class TestArrayDataset:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            nn.ArrayDataset(np.zeros((3, 2)), np.zeros(4))

    def test_indexing(self):
        ds = nn.ArrayDataset(np.arange(6).reshape(3, 2), np.arange(3))
        x, y = ds[1]
        np.testing.assert_array_equal(x, [2, 3])
        assert y == 1

    def test_split_partitions_everything(self):
        ds = nn.ArrayDataset(np.arange(10).reshape(10, 1), np.arange(10))
        train, test = ds.split(0.7)
        assert len(train) == 7
        assert len(test) == 3
        combined = sorted(train.targets.tolist() + test.targets.tolist())
        assert combined == list(range(10))

    def test_split_validates_fraction(self):
        ds = nn.ArrayDataset(np.zeros((4, 1)), np.zeros(4))
        with pytest.raises(ValueError):
            ds.split(1.0)


class TestDataLoader:
    def test_batches_cover_dataset(self):
        ds = nn.ArrayDataset(np.arange(10).reshape(10, 1), np.arange(10))
        loader = nn.DataLoader(ds, batch_size=3)
        seen = []
        for x, y in loader:
            seen.extend(y.tolist())
        assert sorted(seen) == list(range(10))
        assert len(loader) == 4

    def test_shuffle_changes_order(self):
        ds = nn.ArrayDataset(np.arange(100).reshape(100, 1), np.arange(100))
        loader = nn.DataLoader(ds, batch_size=100, shuffle=True,
                               rng=np.random.default_rng(0))
        (_, y), = list(loader)
        assert y.tolist() != list(range(100))
        assert sorted(y.tolist()) == list(range(100))

    def test_invalid_batch_size(self):
        ds = nn.ArrayDataset(np.zeros((4, 1)), np.zeros(4))
        with pytest.raises(ValueError):
            nn.DataLoader(ds, batch_size=0)

    def test_shuffled_epochs_draw_the_permutations_of_an_equal_seeded_rng(self):
        # fit's byte-identity with the loops it replaced rests on this
        loader = nn.DataLoader(np.arange(10), batch_size=10, shuffle=True,
                               rng=np.random.default_rng(7))
        oracle = np.random.default_rng(7)
        for _ in range(3):
            (order,) = list(loader)
            np.testing.assert_array_equal(order, oracle.permutation(10))

    def test_a_plain_array_is_a_dataset_of_its_rows(self):
        batches = list(nn.DataLoader(np.arange(5) * 10, batch_size=2))
        assert [b.tolist() for b in batches] == [[0, 10], [20, 30], [40]]


def _fit_problem():
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, (10, 3))
    y = (x.sum(axis=1) > 0).astype(int)
    model = nn.Sequential(nn.Linear(3, 4, rng=np.random.default_rng(1)),
                          nn.ReLU(),
                          nn.Linear(4, 2, rng=np.random.default_rng(2)))
    return x, y, model


def _loss(model, x, y):
    return lambda rows: F.cross_entropy(model(Tensor(x[rows])), y[rows])


class TestFit:
    """``fit`` against the hand-written loops it replaced."""

    def test_shuffled_minibatches_match_the_hand_loop(self):
        x, y, model = _fit_problem()
        optimizer = nn.Adam(model.parameters(), lr=0.05)
        rng = np.random.default_rng(3)
        expected = []
        for _ in range(4):
            order = rng.permutation(len(y))
            epoch = []
            for start in range(0, len(y), 4):
                batch = order[start:start + 4]
                optimizer.zero_grad()
                loss = F.cross_entropy(model(Tensor(x[batch])), y[batch])
                loss.backward()
                optimizer.step()
                epoch.append(loss.item())
            expected.append(float(np.mean(epoch)))
        _, _, fitted = _fit_problem()
        losses = nn.fit(fitted, _loss(fitted, x, y), len(y), 4, 0.05,
                        batch_size=4, rng=np.random.default_rng(3))
        assert losses == expected
        for mine, theirs in zip(fitted.parameters(), model.parameters()):
            assert np.array_equal(mine.data, theirs.data)

    def test_one_full_batch_matches_the_hand_loop(self):
        x, y, model = _fit_problem()
        optimizer = nn.Adam(model.parameters(), lr=0.05)
        expected = []
        for _ in range(5):
            optimizer.zero_grad()
            loss = F.cross_entropy(model(Tensor(x)), y)
            loss.backward()
            optimizer.step()
            expected.append(loss.item())
        _, _, fitted = _fit_problem()
        losses = nn.fit(fitted, _loss(fitted, x, y), len(y), 5, 0.05)
        assert losses == expected
        for mine, theirs in zip(fitted.parameters(), model.parameters()):
            assert np.array_equal(mine.data, theirs.data)


class TestDataParallelTrainer:
    def test_matches_single_worker_numerics(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (16, 3))
        y = (x.sum(axis=1) > 0).astype(int)

        def build():
            return nn.Sequential(
                nn.Linear(3, 4, rng=np.random.default_rng(42)),
                nn.ReLU(),
                nn.Linear(4, 2, rng=np.random.default_rng(43)))

        single = build()
        multi = build()
        opt_s = nn.SGD(single.parameters(), lr=0.1)
        opt_m = nn.SGD(multi.parameters(), lr=0.1)
        trainer_s = nn.DataParallelTrainer(single, opt_s, F.cross_entropy, num_workers=1)
        trainer_m = nn.DataParallelTrainer(multi, opt_m, F.cross_entropy, num_workers=4)
        for _ in range(5):
            trainer_s.step(x, y)
            trainer_m.step(x, y)
        for ps, pm in zip(single.parameters(), multi.parameters()):
            np.testing.assert_allclose(ps.data, pm.data, rtol=1e-8, atol=1e-10)

    def test_loss_returned(self):
        model = nn.Sequential(nn.Linear(2, 2))
        trainer = nn.DataParallelTrainer(
            model, nn.SGD(model.parameters(), lr=0.01), F.cross_entropy,
            num_workers=2)
        loss = trainer.step(np.zeros((4, 2)), np.zeros(4, dtype=int))
        assert loss == pytest.approx(np.log(2), rel=1e-6)

    def test_more_workers_than_samples(self):
        model = nn.Sequential(nn.Linear(2, 2))
        trainer = nn.DataParallelTrainer(
            model, nn.SGD(model.parameters(), lr=0.01), F.cross_entropy,
            num_workers=8)
        trainer.step(np.zeros((3, 2)), np.zeros(3, dtype=int))  # no crash

    def test_validates_workers(self):
        model = nn.Sequential(nn.Linear(2, 2))
        with pytest.raises(ValueError):
            nn.DataParallelTrainer(
                model, nn.SGD(model.parameters(), lr=0.01),
                F.cross_entropy, num_workers=0)
