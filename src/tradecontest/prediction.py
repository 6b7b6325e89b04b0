"""Prediction stage: window features, utility forecasts, rank IC tooling.

Features are summary statistics of an agent's recent score window. A
predictor maps them to the expected mean and dispersion of the score over
the next few days; utility is the clipped ratio of the two. The module
also houses Spearman rank correlation and the short-versus-long window
momentum validation used to justify the whole approach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientCrossSectionError,
    InsufficientHistoryError,
    TrainingError,
    UndefinedCorrelationError,
)
from .forked import Forked
from .gbdt import GradientBoostedRegressor
from .seeding import stream

SIGMA_FLOOR = 1e-4
UTILITY_CLIP = 10.0
MIN_TRAIN_PAIRS = 30


def clipped_utility(mu_hat: float, sigma_hat: float) -> float:
    """Predicted mean over predicted dispersion (floored), clipped."""
    return max(-UTILITY_CLIP, min(UTILITY_CLIP, mu_hat / max(sigma_hat, SIGMA_FLOOR)))


def features_from_window(window) -> tuple[float, float, float, float]:
    """Mean, population std, last value and least-squares slope of a score
    window, from plain float sums taken in window order. Training rows and
    serving both call it, so no batch size or BLAS build can change a bit."""
    m = len(window)
    mean = 0.0
    for v in window:  # not sum(): from Python 3.12 it compensates rounding
        mean += v
    mean /= m
    ss = sxy = sxx = 0.0
    for k, v in enumerate(window):
        d, x = v - mean, k - (m - 1) / 2
        ss += d * d
        sxy += x * d
        sxx += x * x
    return mean, math.sqrt(ss / m), window[-1], sxy / sxx


@dataclass
class PredictorModel:
    """Trained utility predictor.

    ``baseline`` is the closed-form window-momentum rule (mu = window
    mean, sigma = window std); ``gbdt`` holds two boosted ensembles, one
    per target. The optional extra feature columns beyond the four window
    statistics are passed straight to the ensembles and ignored by the
    baseline.
    """

    kind: str
    mu_model: GradientBoostedRegressor | None = None
    sigma_model: GradientBoostedRegressor | None = None

    def predict_batch(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if self.kind == "baseline":
            return X[:, 0].copy(), X[:, 1].copy()
        return self.mu_model.predict(X), self.sigma_model.predict(X)


def baseline_model() -> PredictorModel:
    """The untrained closed-form predictor (no fitting required)."""
    return PredictorModel(kind="baseline")


def fits(jobs):
    """A ``forked.Forked`` serve: the ensemble of each ``(settings, X, y)``
    job, ``GradientBoostedRegressor(**settings)`` fitted to ``(X, y)``. It
    runs the caller's numpy code on the caller's inputs, so a tree fitted
    here has the bits of one fitted by the caller."""
    for settings, X, y in jobs:
        yield GradientBoostedRegressor(**settings).fit(X, y)


def train(rules, X, targets, worker: Forked | None = None) -> PredictorModel:
    """Fit the gbdt predictor, one ensemble per target, on feature rows
    ``X`` and their (future mean, future std) ``targets``, with the tree
    settings of ``rules`` (an ``engine.ContestRules``). With a ``worker``
    serving ``fits``, it fits the std ensemble meanwhile; without one, or
    when it cannot fork or fails, the caller fits both."""
    X = np.asarray(X, dtype=np.float64)
    if len(X) < MIN_TRAIN_PAIRS:
        raise TrainingError(f"need >= {MIN_TRAIN_PAIRS} training pairs, got {len(X)}")
    settings = {"n_trees": rules.n_trees, "max_depth": rules.max_depth,
                "learning_rate": rules.learning_rate}
    y_mu, y_sigma = np.array(targets, dtype=np.float64).T.copy()
    sent = worker is not None and worker.send((settings, X, y_sigma))
    mu_model = GradientBoostedRegressor(**settings).fit(X, y_mu)
    sigma_model = worker.receive(GradientBoostedRegressor) if sent else None
    if sigma_model is None:
        sigma_model = GradientBoostedRegressor(**settings).fit(X, y_sigma)
    return PredictorModel(kind="gbdt", mu_model=mu_model, sigma_model=sigma_model)


# --- rank IC ----------------------------------------------------------------


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the average of their positions."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size, dtype=np.float64)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i: j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def rank_ic(xs, ys) -> float:
    """Spearman rank correlation with average-rank tie handling."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise ValueError("need at least 2 points")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise UndefinedCorrelationError("rank correlation undefined for constant input")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    return float(np.dot(rx, ry) / math.sqrt(np.dot(rx, rx) * np.dot(ry, ry)))


@dataclass(frozen=True)
class MomentumReport:
    """Cross-sectional rank IC of trailing versus forward window means."""

    m: int
    n: int
    M: int
    N: int
    ric_short: float
    ric_long: float
    difference: float
    days_short: int
    days_long: int
    skipped_undefined: int


def _window_ric(scores: np.ndarray, m: int, n: int) -> tuple[list[float], int]:
    """Per-day cross-sectional rank ICs between trailing-m and forward-n
    mean scores. ``scores`` is (agents, days)."""
    n_agents, n_days = scores.shape
    ics: list[float] = []
    skipped = 0
    for i in range(m, n_days - n + 1):
        trailing = scores[:, i - m: i].mean(axis=1)
        forward = scores[:, i: i + n].mean(axis=1)
        try:
            ics.append(rank_ic(trailing, forward))
        except UndefinedCorrelationError:
            skipped += 1
    return ics, skipped


def validate_momentum(panel: np.ndarray, m: int, n: int, M: int, N: int) -> MomentumReport:
    """Compare short-window and long-window score predictability.

    ``panel`` holds one row of daily scores per agent, on the days every
    agent has a score. Computes the mean cross-sectional rank IC between
    trailing and forward window means for (m, n) and for (M, N), and
    reports both plus the gap.
    """
    if len(panel) < 2:
        raise InsufficientCrossSectionError(
            f"need >= 2 score series for cross-sectional ranks, got {len(panel)}"
        )
    if not panel.shape[1]:
        raise InsufficientHistoryError("score series share no dates")
    if panel.shape[1] < max(m + n, M + N):
        raise InsufficientHistoryError(
            f"need {max(m + n, M + N)} common days, have {panel.shape[1]}"
        )
    short_ics, short_skip = _window_ric(panel, m, n)
    long_ics, long_skip = _window_ric(panel, M, N)
    if not short_ics or not long_ics:
        raise InsufficientHistoryError("no valid rank IC days in one of the windows")
    ric_short = float(np.mean(short_ics))
    ric_long = float(np.mean(long_ics))
    return MomentumReport(
        m=m, n=n, M=M, N=N,
        ric_short=ric_short, ric_long=ric_long,
        difference=ric_short - ric_long,
        days_short=len(short_ics), days_long=len(long_ics),
        skipped_undefined=short_skip + long_skip,
    )


def ar1_score_panel(n_agents: int, n_days: int, phi: float, seed: int) -> np.ndarray:
    """Independent AR(1) score series, one row per agent, for momentum validation."""
    panel = np.empty((n_agents, n_days))
    for a in range(n_agents):
        eps = stream(seed, "panel", a).standard_normal(n_days)
        q = 0.0
        for i in range(n_days):
            q = phi * q + eps[i]
            panel[a, i] = q
    return panel
