from __future__ import annotations

import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from tradecontest.errors import (
    InsufficientCrossSectionError,
    InsufficientHistoryError,
    TrainingError,
    UndefinedCorrelationError,
)
from tradecontest.gbdt import GradientBoostedRegressor
from tradecontest.market import business_days
from tradecontest.prediction import (
    FeatureVector,
    PredictorModel,
    PredictorSpec,
    ar1_score_panel,
    extract_features,
    predict_utility,
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


class TestExtractFeatures:
    def test_linear_window(self):
        s = series_from([1, 2, 3, 4, 5])
        f = extract_features(s, s.entries[-1][0], 5)
        assert f.mean_m == pytest.approx(3.0)
        assert f.std_m == pytest.approx(math.sqrt(2.0))
        assert f.last == 5.0
        assert f.slope == pytest.approx(1.0)

    def test_constant_window(self):
        s = series_from([7.5] * 6)
        f = extract_features(s, s.entries[-1][0], 6)
        assert (f.mean_m, f.std_m, f.slope) == (7.5, 0.0, 0.0)

    def test_two_point_window(self):
        s = series_from([0, 1])
        f = extract_features(s, s.entries[-1][0], 2)
        assert f.mean_m == pytest.approx(0.5)
        assert f.slope == pytest.approx(1.0)

    def test_insufficient_history(self):
        s = series_from([1, 2, 3])
        with pytest.raises(InsufficientHistoryError):
            extract_features(s, s.entries[-1][0], 5)

    def test_window_ends_at_t(self):
        s = series_from([1, 2, 3, 4, 100])
        f = extract_features(s, s.entries[3][0], 3)
        assert f.last == 4.0


def toy_history(n=60, seed=3):
    """(feature rows, (mean, std) targets) for ``train``."""
    rng = np.random.default_rng(seed)
    rows, targets = [], []
    for _ in range(n):
        x = rng.normal(size=4)
        rows.append([x[0], abs(x[1]), x[2], x[3]])
        targets.append((float(x[0]), float(abs(x[1]))))
    return np.array(rows), targets


class TestTrainPredict:
    def test_baseline_is_closed_form(self):
        model = train(PredictorSpec(kind="baseline"), *toy_history())
        pred = predict_utility(model, FeatureVector(mean_m=-1.0, std_m=0.5,
                                                    last=0.0, slope=0.0))
        assert pred.utility == pytest.approx(-2.0)

    def test_baseline_sigma_floor_and_clip(self):
        model = PredictorModel(kind="baseline")
        pred = predict_utility(model, FeatureVector(mean_m=2.0, std_m=0.0,
                                                    last=2.0, slope=0.0))
        assert pred.sigma_hat == pytest.approx(1e-4)
        assert pred.utility == 10.0

    def test_baseline_zero_mean(self):
        model = PredictorModel(kind="baseline")
        pred = predict_utility(model, FeatureVector(mean_m=0.0, std_m=1.0,
                                                    last=0.0, slope=0.0))
        assert pred.utility == 0.0

    def test_utility_sign_matches_mu(self):
        model = PredictorModel(kind="baseline")
        for mu in (-3.0, -0.001, 0.0, 0.5, 40.0):
            pred = predict_utility(model, FeatureVector(mean_m=mu, std_m=0.2,
                                                        last=0.0, slope=0.0))
            assert np.sign(pred.utility) == np.sign(mu)

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
        spec = PredictorSpec(kind="gbdt", seed=5)
        a = train(spec, rows, targets)
        b = train(spec, rows, targets)
        x = FeatureVector(mean_m=0.3, std_m=0.4, last=0.1, slope=0.0)
        assert predict_utility(a, x) == predict_utility(b, x)

    def test_gbdt_serialization_round_trip(self):
        model = train(PredictorSpec(kind="gbdt"), *toy_history(60))
        again = PredictorModel.from_json(model.to_json())
        x = FeatureVector(mean_m=0.3, std_m=0.4, last=0.1, slope=0.2)
        assert predict_utility(again, x) == predict_utility(model, x)

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
