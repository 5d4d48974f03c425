"""Tests for spatial CNN analysis (Sec. III-A) and temporal forecasting
(Sec. III-B)."""

import numpy as np
import pytest

from repro import nn
from repro.apps.forecast import CrimeForecaster, LSTMRegressor
from repro.apps.forecast.crime import seasonal_series, windows
from repro.apps.geospatial import HotspotCnnApp
from repro.nn.tensor import Tensor


class TestHotspotCnn:
    def test_sample_day_is_valid_density(self):
        app = HotspotCnnApp(grid=8, seed=0)
        day = app.sample_day(2)
        assert day.shape == (8, 8)
        assert 0.0 <= day.min() and day.max() == 1.0

    def test_sample_day_validates(self):
        with pytest.raises(ValueError):
            HotspotCnnApp(seed=0).sample_day(4)
        with pytest.raises(ValueError):
            HotspotCnnApp(grid=7)

    def test_hot_quadrant_carries_most_mass_in_easy_regime(self):
        # summed over days the background evens out and the cluster shows
        app = HotspotCnnApp(grid=8, seed=0)
        days = sum(app.sample_day(0) for _ in range(20))  # low x, low y
        assert days[:4, :4].sum() > days[4:, 4:].sum()

    def test_dataset_balanced(self):
        app = HotspotCnnApp(seed=0)
        images, labels = app.dataset(days_per_quadrant=5)
        assert images.shape == (20, 1, 8, 8)
        assert np.bincount(labels).tolist() == [5, 5, 5, 5]
        with pytest.raises(ValueError):
            app.dataset(0)

    def test_training_reduces_loss(self):
        app = HotspotCnnApp(seed=0)
        losses = app.train(days_per_quadrant=10, epochs=10)
        assert losses[-1] < losses[0]

    def test_cnn_beats_quadrant_count_baseline(self):
        # The Sec. III-A claim: spatial structure beats aggregate counts
        # in the noisy regime.
        app = HotspotCnnApp(grid=8, seed=0)
        app.train(days_per_quadrant=25, epochs=40)
        cnn = app.evaluate(days_per_quadrant=15)
        baseline = app.quadrant_count_baseline(train_days=25, test_days=15)
        assert cnn > baseline
        assert cnn > 0.6  # far above the 25% chance level


class TestWindows:
    def test_window_shapes(self):
        inputs, targets = windows([1, 2, 3, 4, 5], length=2)
        assert inputs.shape == (3, 2, 1)
        np.testing.assert_allclose(targets, [3, 4, 5])
        np.testing.assert_allclose(inputs[0, :, 0], [1, 2])

    def test_window_validates(self):
        with pytest.raises(ValueError):
            windows([1, 2], length=0)
        with pytest.raises(ValueError):
            windows([1, 2], length=2)


class TestSeasonalSeries:
    def test_nonnegative_and_seasonal(self):
        series = seasonal_series(70, seed=0)
        assert (series >= 0).all()
        # weekly autocorrelation: day t correlates with day t+7
        a, b = series[:-7], series[7:]
        corr = np.corrcoef(a, b)[0, 1]
        assert corr > 0.5

    def test_deterministic(self):
        np.testing.assert_allclose(seasonal_series(30, seed=3),
                                   seasonal_series(30, seed=3))


class TestLSTMRegressor:
    def test_output_shape(self):
        model = LSTMRegressor()
        out = model(Tensor(np.zeros((4, 7, 1))))
        assert out.shape == (4, 1)


class TestCrimeForecaster:
    @pytest.fixture(scope="class")
    def fitted(self):
        forecaster = CrimeForecaster(window=7, seed=0)
        forecaster.fit(seasonal_series(120, seed=0), epochs=120)
        return forecaster

    def test_fit_reduces_loss(self):
        forecaster = CrimeForecaster(window=7, seed=1)
        losses = forecaster.fit(seasonal_series(60, seed=0), epochs=30)
        assert losses[-1] < losses[0]

    def test_predictions_have_right_length(self, fitted):
        series = seasonal_series(40, seed=2)
        assert len(fitted.predict(series)) == 40 - 7

    def test_lstm_beats_naive_baselines(self, fitted):
        # Sec. III-B: LSTMs discover the (weekly) long-range correlation
        # that persistence and moving averages cannot exploit.
        report = fitted.compare(seasonal_series(60, seed=9))
        assert report["lstm"] < report["persistence"]
        assert report["lstm"] < report["moving_average"]

    def test_predictions_track_seasonality(self, fitted):
        series = seasonal_series(60, seed=5)
        predictions = fitted.predict(series)
        # the weekly component the series is built on, without its noise
        t = np.arange(7, 60)
        seasonal = 12.0 + 5.0 * np.sin(2 * np.pi * t / 7.0)
        corr = np.corrcoef(predictions, seasonal)[0, 1]
        assert corr > 0.9



def _failing_forward(model, seen):
    """Make ``model``'s forward record the mode it runs in, then raise."""
    def forward(*args):
        seen.append((model.training, nn.is_grad_enabled()))
        raise RuntimeError("forward failed")
    model.forward = forward


@pytest.mark.parametrize("build, predict", [
    (lambda: HotspotCnnApp(seed=0),
     lambda app: app.evaluate(days_per_quadrant=1)),
    (lambda: CrimeForecaster(window=7, seed=0),
     lambda app: app.predict(seasonal_series(20, seed=0))),
], ids=["hotspot_evaluate", "forecaster_predict"])
def test_a_failing_prediction_ran_in_eval_without_grad_and_restores_training(
        build, predict):
    app = build()
    seen = []
    _failing_forward(app.model, seen)
    with pytest.raises(RuntimeError, match="forward failed"):
        predict(app)
    assert seen == [(False, False)]
    assert app.model.training
