from __future__ import annotations

import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from tradecontest.engine import _current_features
from tradecontest.errors import (
    InsufficientCrossSectionError,
    InsufficientHistoryError,
    TrainingError,
    UndefinedCorrelationError,
)
from tradecontest.gbdt import GradientBoostedRegressor
from tradecontest.market import business_days
from tradecontest.prediction import (
    PredictorModel,
    PredictorSpec,
    ar1_score_panel,
    baseline_model,
    clipped_utility,
    features_from_window,
    rank_ic,
    train,
    validate_momentum,
)
from tradecontest.scoring import ScoreSeries


def series_from(values, start=dt.date(2025, 1, 2)):
    s = ScoreSeries("a")
    for d, v in zip(business_days(start, len(values)), values):
        s.append(d, float(v))
    return s


def window(values):
    return np.asarray(values, dtype=np.float64)


class TestExtractFeatures:
    # features are (mean, population std, last, slope)
    def test_linear_window(self):
        mean, std, last, slope = features_from_window(window([1, 2, 3, 4, 5]))
        assert mean == pytest.approx(3.0)
        assert std == pytest.approx(math.sqrt(2.0))
        assert last == 5.0
        assert slope == pytest.approx(1.0)

    def test_constant_window(self):
        mean, std, _, slope = features_from_window(window([7.5] * 6))
        assert (mean, std, slope) == (7.5, 0.0, 0.0)

    def test_two_point_window(self):
        mean, _, _, slope = features_from_window(window([0, 1]))
        assert mean == pytest.approx(0.5)
        assert slope == pytest.approx(1.0)

    def test_insufficient_history(self):
        s = series_from([1, 2, 3])
        assert _current_features(s, None, 5, s.dates[-1]) is None

    def test_window_ends_at_t(self):
        s = series_from([1, 2, 3, 4, 100])
        assert _current_features(s, None, 3, s.dates[3])[2] == 4.0


def toy_history(n=60, seed=3):
    """(feature rows, (mean, std) targets) for ``train``."""
    rng = np.random.default_rng(seed)
    rows, targets = [], []
    for _ in range(n):
        x = rng.normal(size=4)
        rows.append([x[0], abs(x[1]), x[2], x[3]])
        targets.append((float(x[0]), float(abs(x[1]))))
    return np.array(rows), targets


def utility(model, features):
    mu, sigma = model.predict_batch(np.array([features], dtype=np.float64))
    return clipped_utility(float(mu[0]), float(sigma[0]))


class TestTrainPredict:
    def test_baseline_is_closed_form(self):
        assert utility(baseline_model(), [-1.0, 0.5, 0.0, 0.0]) == pytest.approx(-2.0)

    def test_baseline_sigma_floor_and_clip(self):
        model = PredictorModel(kind="baseline")
        # sigma 0 is floored at 1e-4: 2e-5 / 1e-4 = 0.2
        assert utility(model, [2e-5, 0.0, 2e-5, 0.0]) == pytest.approx(0.2)
        assert utility(model, [2.0, 0.0, 2.0, 0.0]) == 10.0

    def test_baseline_zero_mean(self):
        model = PredictorModel(kind="baseline")
        assert utility(model, [0.0, 1.0, 0.0, 0.0]) == 0.0

    def test_utility_sign_matches_mu(self):
        model = PredictorModel(kind="baseline")
        for mu in (-3.0, -0.001, 0.0, 0.5, 40.0):
            assert np.sign(utility(model, [mu, 0.2, 0.0, 0.0])) == np.sign(mu)

    def test_too_few_pairs(self):
        with pytest.raises(TrainingError):
            train(PredictorSpec(kind="gbdt"), *toy_history(10))

    def test_gbdt_fits_identity_map(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 4))
        y = X[:, 0].copy()
        model = GradientBoostedRegressor(n_trees=50, max_depth=3,
                                         learning_rate=0.1).fit(X, y)
        rmse = float(np.sqrt(np.mean((model.predict(X) - y) ** 2)))
        assert rmse <= 0.1 * float(y.std())

    def test_gbdt_deterministic(self):
        rows, targets = toy_history(80)
        spec = PredictorSpec(kind="gbdt")
        a = train(spec, rows, targets)
        b = train(spec, rows, targets)
        x = [0.3, 0.4, 0.1, 0.0]
        assert utility(a, x) == utility(b, x)

    def test_tree_limits_enforced(self):
        with pytest.raises(ValueError):
            PredictorSpec(kind="gbdt", n_trees=51)
        with pytest.raises(ValueError):
            PredictorSpec(kind="gbdt", max_depth=4)


class TestRankIc:
    def test_identical(self):
        assert rank_ic([1, 5, 9], [1, 5, 9]) == pytest.approx(1.0)

    def test_reversed(self):
        assert rank_ic([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_four_point_example(self):
        assert rank_ic([1, 2, 3, 4], [1, 2, 4, 3]) == pytest.approx(0.8)

    def test_constant_input_undefined(self):
        with pytest.raises(UndefinedCorrelationError):
            rank_ic([1, 1, 1], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rank_ic([1, 2], [1, 2, 3])

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(3, 30))
            xs = np.round(rng.normal(size=n), 1)  # coarse grid forces ties
            ys = np.round(rng.normal(size=n), 1)
            if np.all(xs == xs[0]) or np.all(ys == ys[0]):
                continue
            expected = stats.spearmanr(xs, ys).statistic
            assert rank_ic(xs, ys) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=30),
           st.data())
    def test_bounds_and_monotone_invariance(self, xs, data):
        # quantize so the exp transform below stays strictly monotone in floats
        xs = [round(x, 3) for x in xs]
        ys = data.draw(st.lists(st.floats(-100, 100), min_size=len(xs),
                                max_size=len(xs)))
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            return
        value = rank_ic(xs, ys)
        assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12
        transformed = [math.exp(0.01 * x) for x in xs]
        assert rank_ic(transformed, ys) == pytest.approx(value, abs=1e-12)


class TestValidateMomentum:
    def test_ar1_short_beats_long(self):
        panel = ar1_score_panel(16, 300, 0.6, seed=0)
        report = validate_momentum(panel, 5, 3, 60, 30)
        assert report.ric_short > report.ric_long
        assert report.difference == pytest.approx(report.ric_short - report.ric_long)

    def test_iid_noise_near_zero(self):
        shorts, longs = [], []
        for seed in range(50):
            panel = ar1_score_panel(16, 300, 0.0, seed=seed)
            report = validate_momentum(panel, 5, 3, 60, 30)
            shorts.append(report.ric_short)
            longs.append(report.ric_long)
        assert abs(float(np.mean(shorts))) < 0.1
        assert abs(float(np.mean(longs))) < 0.1

    def test_single_series_rejected(self):
        panel = ar1_score_panel(1, 100, 0.5, seed=1)
        with pytest.raises(InsufficientCrossSectionError):
            validate_momentum(panel, 5, 3, 60, 30)

    def test_short_history_rejected(self):
        panel = ar1_score_panel(4, 20, 0.5, seed=1)
        with pytest.raises(InsufficientHistoryError):
            validate_momentum(panel, 5, 3, 60, 30)
