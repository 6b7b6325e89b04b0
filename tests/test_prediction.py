from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from tradecontest.engine import ContestConfig, ContestRules, _Contest
from tradecontest.errors import (
    InsufficientCrossSectionError,
    InsufficientHistoryError,
    TrainingError,
    UndefinedCorrelationError,
)
from tradecontest.gbdt import GradientBoostedRegressor
from tradecontest.prediction import (
    PredictorModel,
    ar1_score_panel,
    baseline_model,
    clipped_utility,
    features_from_window,
    rank_ic,
    train,
    validate_momentum,
)


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
        contest = contest_with({"short": [1, 2, 3], "long": [1, 2, 3, 4, 5]})
        utilities, kind = contest.utilities(ContestConfig(m=5, predictor="baseline"), {})
        assert kind == "baseline" and set(utilities) == {"long"}

    def test_window_ends_at_t(self, monkeypatch):
        # serving reads the latest m scores, and the extra columns after them
        served = []
        monkeypatch.setattr(PredictorModel, "predict_batch",
                            lambda model, X: served.append(X) or (X[:, 0], X[:, 1]))
        contest = contest_with({"a": [1, 2, 3, 4, 100], "b": [5, 6, 7]})
        contest.utilities(ContestConfig(m=3, predictor="baseline"),
                          {"a": (0.5, 1.0), "b": (0.25, 0.75)})
        [X] = served
        assert X.tolist() == [[*features_from_window([3.0, 4.0, 100.0]), 0.5, 1.0],
                              [*features_from_window([5.0, 6.0, 7.0]), 0.25, 0.75]]


def contest_with(scores: dict[str, list[float]]) -> _Contest:
    contest = _Contest(sorted(scores), m=3, n=2, keep_rows=False)
    for agent_id, values in scores.items():
        for v in values:
            contest.resolve(agent_id, float(v), None)
    return contest


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
            train(ContestRules(), *toy_history(10))

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
        rules = ContestRules()
        a = train(rules, rows, targets)
        b = train(rules, rows, targets)
        x = [0.3, 0.4, 0.1, 0.0]
        assert utility(a, x) == utility(b, x)

    def test_tree_limits_enforced(self):
        with pytest.raises(ValueError):
            ContestRules(n_trees=51)
        with pytest.raises(ValueError):
            ContestRules(max_depth=4)


class ReferenceTree:
    """The exact greedy split search in its plain form, kept as the
    reference for ``RegressionTree``: the sorted values gathered again at
    every node, the SSE as one expression, ``ndarray.mean`` and ``np.sum``."""

    def __init__(self, max_depth):
        self.max_depth = max_depth
        self.feature, self.threshold, self.left, self.right, self.value = [], [], [], [], []

    def _new_node(self, value):
        for field, init in ((self.feature, -1), (self.threshold, 0.0), (self.left, -1),
                            (self.right, -1), (self.value, value)):
            field.append(init)
        return len(self.value) - 1

    def _best_split(self, X, y, order):
        d, n = order.shape
        if n < 2:
            return None
        Xs = np.take_along_axis(X.T, order, axis=1)
        ys = y[order]
        csum = np.cumsum(ys, axis=1)
        csq = np.cumsum(ys * ys, axis=1)
        total_sum = csum[:, -1:]
        total_sq = csq[:, -1:]
        ks = np.arange(1, n, dtype=np.float64)
        left_sum = csum[:, :-1]
        left_sq = csq[:, :-1]
        sse = (left_sq - left_sum * left_sum / ks) + (
            (total_sq - left_sq) - (total_sum - left_sum) ** 2 / (n - ks)
        )
        valid = Xs[:, :-1] < Xs[:, 1:]
        if not valid.any():
            return None
        sse = np.where(valid, sse, np.inf)
        flat = int(np.argmin(sse))
        j, pos = divmod(flat, sse.shape[1])
        thr = 0.5 * (float(Xs[j, pos]) + float(Xs[j, pos + 1]))
        return float(sse[j, pos]), int(j), thr

    def fit(self, X, y, base_order):
        self._train_pred = np.empty(y.size)
        self._grow(X, y, base_order, depth=0)
        return self._train_pred

    def _grow(self, X, y, order, depth):
        rows = order[0]
        n = rows.size
        mean = float(y[rows].mean()) if n else 0.0
        node = self._new_node(mean)
        if depth >= self.max_depth or n < 2:
            self._train_pred[rows] = mean
            return node
        split = self._best_split(X, y, order)
        if split is None:
            self._train_pred[rows] = mean
            return node
        sse, j, thr = split
        node_sse = float(np.sum((y[rows] - mean) ** 2))
        if not sse < node_sse - 1e-12:
            self._train_pred[rows] = mean
            return node
        mask = (X[:, j] <= thr)[order]
        n_left = int(mask[0].sum())
        left_order = order[mask].reshape(order.shape[0], n_left)
        right_order = order[~mask].reshape(order.shape[0], n - n_left)
        self.feature[node] = j
        self.threshold[node] = thr
        self.left[node] = self._grow(X, y, left_order, depth + 1)
        self.right[node] = self._grow(X, y, right_order, depth + 1)
        return node


def reference_boost(X, y, n_trees, max_depth, learning_rate=0.1):
    base = float(y.mean())
    order = np.argsort(X, axis=0, kind="mergesort").T
    pred = np.full(y.shape, base)
    trees = []
    for _ in range(n_trees):
        residual = y - pred
        if float(np.max(np.abs(residual))) < 1e-14:
            break
        tree = ReferenceTree(max_depth)
        pred = pred + learning_rate * tree.fit(X, residual, order)
        trees.append(tree)
    return base, trees


def assert_same_ensemble(X, y, n_trees, max_depth):
    model = GradientBoostedRegressor(n_trees=n_trees, max_depth=max_depth).fit(X, y)
    base, trees = reference_boost(X, y, n_trees, max_depth)
    assert model.base == base
    assert len(model.trees) == len(trees)
    for got, want in zip(model.trees, trees):
        for field in ("feature", "threshold", "value", "left", "right"):
            assert getattr(got, field) == getattr(want, field), field


def shaped_rows(kind, n, rng):
    """(X, y) with n rows and 4 features, shaped to stress one case of the search."""
    X = rng.normal(size=(n, 4))
    if kind == "duplicates":
        X = rng.integers(0, 3, size=(n, 4)).astype(np.float64)
    elif kind == "constant-column":
        X[:, 1] = 7.0
    elif kind == "mirrored":
        # two features that order the rows the same way tie on every partition
        X[:, 1] = -X[:, 0]
        X[:, 2] = X[:, 0]
    return X, rng.normal(size=n) + X[:, 0]


class TestExactSplitSearch:
    @pytest.mark.parametrize("max_depth", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 31, 500])
    @pytest.mark.parametrize("kind", ["normal", "duplicates", "constant-column", "mirrored"])
    def test_same_trees_as_reference(self, kind, n, max_depth):
        X, y = shaped_rows(kind, n, np.random.default_rng(n * 10 + max_depth))
        assert_same_ensemble(X, y, n_trees=8, max_depth=max_depth)

    def test_constant_features_grow_no_split(self):
        X = np.ones((20, 3))
        y = np.arange(20, dtype=np.float64)
        assert_same_ensemble(X, y, n_trees=3, max_depth=3)
        model = GradientBoostedRegressor(n_trees=3, max_depth=3).fit(X, y)
        assert all(tree.feature == [-1] for tree in model.trees)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 4), st.integers(1, 3), st.data())
    def test_same_trees_on_random_rows(self, n, d, max_depth, data):
        # a coarse grid of values makes ties between rows and features common
        grid = st.sampled_from([-1.5, -0.5, 0.0, 0.25, 1.0, 3.0])
        values = st.one_of(grid, st.floats(-1e3, 1e3))
        X = np.array(data.draw(st.lists(values, min_size=n * d, max_size=n * d)),
                     dtype=np.float64).reshape(n, d)
        y = np.array(data.draw(st.lists(values, min_size=n, max_size=n)), dtype=np.float64)
        assert_same_ensemble(X, y, n_trees=4, max_depth=max_depth)


def reference_predict(model, X):
    """The ensemble's prediction in its plain form, kept as the reference for
    ``GradientBoostedRegressor.predict``: each tree walked on its own node
    lists, its leaf values added to the running sum one tree at a time."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    rows = np.arange(X.shape[0])
    pred = np.full(X.shape[0], model.base)
    for tree in model.trees:
        feature, threshold, left, right, value = (
            np.asarray(a) for a in (tree.feature, tree.threshold, tree.left, tree.right,
                                    tree.value))
        node = np.zeros(X.shape[0], dtype=np.intp)
        for _ in range(tree.max_depth):
            f = feature[node]
            internal = f != -1
            if not internal.any():
                break
            go_left = X[rows, np.where(internal, f, 0)] <= threshold[node]
            node = np.where(internal, np.where(go_left, left[node], right[node]), node)
        pred = pred + model.learning_rate * value[node]
    return pred


class TestEnsemblePredict:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("max_depth", [1, 2, 3])
    @pytest.mark.parametrize("n_rows", [1, 2, 16, 300])
    def test_same_bits_as_per_tree_loop(self, seed, max_depth, n_rows):
        rng = np.random.default_rng(seed)
        kind = ("normal", "duplicates", "constant-column", "mirrored")[seed]
        X, y = shaped_rows(kind, 120, rng)
        model = GradientBoostedRegressor(n_trees=50, max_depth=max_depth,
                                         learning_rate=0.1).fit(X, y)
        Xp = rng.normal(size=(n_rows, 4))
        # rows that sit exactly on thresholds and rows of the training set
        thresholds = [t for tree in model.trees for f, t in zip(tree.feature, tree.threshold)
                      if f != -1]
        Xp[::2, 0] = thresholds[0] if thresholds else 0.0
        Xp[1::3] = X[:Xp[1::3].shape[0]]
        assert np.array_equal(model.predict(Xp), reference_predict(model, Xp))
        assert np.array_equal(model.predict(X), reference_predict(model, X))

    def test_leaves_at_every_depth(self):
        # a few rows give trees whose leaves sit at depth 1, 2 and 3
        X = np.array([[0.0], [1.0], [2.0], [2.0], [3.0]])
        y = np.array([0.0, 5.0, 1.0, 1.0, 9.0])
        model = GradientBoostedRegressor(n_trees=10, max_depth=3).fit(X, y)
        Xp = np.linspace(-1.0, 4.0, 41)[:, None]
        assert np.array_equal(model.predict(Xp), reference_predict(model, Xp))

    def test_no_trees_predicts_base(self):
        X = np.ones((5, 2))
        y = np.full(5, 2.5)
        model = GradientBoostedRegressor(n_trees=5).fit(X, y)
        assert model.trees == []
        assert np.array_equal(model.predict(np.zeros((3, 2))), np.full(3, 2.5))

    def test_nan_features_take_the_same_branch(self):
        X, y = shaped_rows("normal", 60, np.random.default_rng(9))
        model = GradientBoostedRegressor(n_trees=20, max_depth=3).fit(X, y)
        Xp = np.random.default_rng(10).normal(size=(12, 4))
        Xp[::3, 0] = np.nan
        Xp[1::4, 2] = np.inf
        assert np.array_equal(model.predict(Xp), reference_predict(model, Xp))


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
