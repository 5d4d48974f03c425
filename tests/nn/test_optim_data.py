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


def _rows_seen(num_rows, epochs, batch_size=None, rng=None):
    """The row array each ``loss(rows)`` call of one ``fit`` receives."""
    model = nn.Linear(1, 1)
    x = np.zeros((num_rows, 1))
    seen = []

    def loss(rows):
        seen.append(rows.tolist())
        return F.mse_loss(model(Tensor(x[rows])), Tensor(x[rows]))

    nn.fit(model, loss, num_rows, epochs, 0.01, batch_size=batch_size,
           rng=rng)
    return seen


class TestFit:
    """``fit`` against the hand-written loops it replaced, and the rows
    its ``loss(rows)`` closure is handed."""

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_every_row_is_seen_once_per_epoch(self, shuffled):
        rng = np.random.default_rng(0) if shuffled else None
        seen = _rows_seen(10, 2, batch_size=3, rng=rng)
        assert [len(rows) for rows in seen] == [3, 3, 3, 1] * 2
        for epoch in (seen[:4], seen[4:]):
            assert sorted(sum(epoch, [])) == list(range(10))

    def test_unshuffled_batches_take_rows_in_order(self):
        assert _rows_seen(5, 2, batch_size=2) \
            == [[0, 1], [2, 3], [4]] * 2

    def test_shuffle_changes_order(self):
        (rows,) = _rows_seen(100, 1, rng=np.random.default_rng(0))
        assert rows != list(range(100))
        assert sorted(rows) == list(range(100))

    def test_shuffled_epochs_draw_the_permutations_of_an_equal_seeded_rng(
            self):
        # fit's byte-identity with the loops it replaced rests on this:
        # each epoch is a fresh draw, never a re-shuffle of the last one
        seen = _rows_seen(10, 3, rng=np.random.default_rng(7))
        oracle = np.random.default_rng(7)
        assert seen == [oracle.permutation(10).tolist() for _ in range(3)]

    @pytest.mark.parametrize("num_rows, batch_size, bad", [
        (4, 0, "batch_size must be >= 1: 0"),
        (4, -2, "batch_size must be >= 1: -2"),
        (0, None, "num_rows must be >= 1: 0"),
        (0, 2, "num_rows must be >= 1: 0"),
    ], ids=["no-batch", "negative-batch", "no-rows", "no-rows-batched"])
    def test_invalid_arguments_name_the_bad_one(self, num_rows, batch_size,
                                                bad):
        with pytest.raises(ValueError, match=bad):
            _rows_seen(num_rows, 1, batch_size=batch_size)

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
