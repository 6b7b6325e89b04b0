from __future__ import annotations

import datetime as dt
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradecontest.agents import Observation, TextualFactor, TradingSignal
from tradecontest.backtest import ordered_sum
from tradecontest.errors import InsufficientHistoryError, MissingDataError
from tradecontest.market import Bar, MarketStore
from tradecontest.scoring import (
    JudgerScore,
    factor_score,
    realized_sharpe,
    researcher_score,
    stub_judger,
    zi_trade,
)

from conftest import store_of

D = dt.date
T0, T1 = D(2025, 1, 2), D(2025, 1, 3)


def two_day_store(closes0: dict, closes1: dict) -> MarketStore:
    bars = []
    for day, closes in ((T0, closes0), (T1, closes1)):
        for sym, c in closes.items():
            bars.append(Bar(date=day, symbol=sym, open=c, high=c * 1.001,
                            low=c * 0.999, close=c, volume=1))
    return store_of(bars)


def obs(*rated):
    return Observation(text="t", rated_symbols=tuple(rated))


def factor(observations, date=T0, agent_id="a"):
    return TextualFactor(agent_id=agent_id, date=date,
                         observations=tuple(observations),
                         token_length=max(1, len(observations)))


class TestZiTrade:
    def test_single_positive(self):
        store = two_day_store({"A": 10.0}, {"A": 10.3})
        assert zi_trade(obs(("A", 2)), store, T0) == pytest.approx(0.06, abs=1e-12)

    def test_zero_rating(self):
        store = two_day_store({"A": 10.0}, {"A": 12.0})
        assert zi_trade(obs(("A", 0)), store, T0) == 0.0

    def test_two_terms_cancel(self):
        store = two_day_store({"A": 100.0, "B": 100.0}, {"A": 102.0, "B": 101.0})
        value = zi_trade(obs(("A", 1), ("B", -2)), store, T0)
        assert value == pytest.approx(0.02 - 0.02, abs=1e-12)

    def test_empty_rated_symbols(self):
        store = two_day_store({"A": 10.0}, {"A": 11.0})
        assert zi_trade(obs(), store, T0) == 0.0

    def test_missing_symbol_names_it(self):
        store = two_day_store({"A": 10.0}, {"A": 11.0})
        with pytest.raises(MissingDataError, match="ZZZ"):
            zi_trade(obs(("ZZZ", 1)), store, T0)


class TestFactorScore:
    def test_sums_observations(self):
        store = two_day_store({"A": 10.0, "B": 100.0}, {"A": 10.3, "B": 101.0})
        f = factor([obs(("A", 2)), obs(("A", 0)), obs(("A", 1), ("B", -2)),
                    obs()])
        # 0.06 + 0 + (0.03 - 0.02) + 0
        assert factor_score(f, store) == pytest.approx(0.07, abs=1e-12)

    def test_empty_factor(self):
        store = two_day_store({"A": 10.0}, {"A": 10.5})
        f = TextualFactor(agent_id="a", date=T0, observations=(), token_length=0)
        assert factor_score(f, store) == 0.0

    def test_duplicated_observation_scales(self):
        store = two_day_store({"A": 10.0}, {"A": 10.4})
        one = factor([obs(("A", 2))])
        five = factor([obs(("A", 2))] * 5)
        assert factor_score(five, store) == pytest.approx(5 * factor_score(one, store), abs=1e-12)


@st.composite
def random_factor_pair(draw):
    symbols = ["A", "B", "C", "D"]
    closes0 = {s: draw(st.floats(1.0, 100.0)) for s in symbols}
    closes1 = {s: closes0[s] * (1 + draw(st.floats(-0.1, 0.1))) for s in symbols}
    n_obs = draw(st.integers(0, 5))
    observations = []
    for _ in range(n_obs):
        k = draw(st.integers(0, 3))
        rated = tuple(
            (draw(st.sampled_from(symbols)), draw(st.sampled_from([-2, -1, 0, 1, 2])))
            for _ in range(k)
        )
        observations.append(Observation(text="o", rated_symbols=rated))
    return closes0, closes1, observations


class TestScoreProperties:
    @settings(max_examples=120, deadline=None)
    @given(random_factor_pair(), random_factor_pair())
    def test_linearity_of_concatenation(self, pair_a, pair_b):
        closes0, closes1, obs_a = pair_a
        _, _, obs_b = pair_b
        store = two_day_store(closes0, closes1)
        fa = factor(obs_a)
        fb = factor(obs_b)
        fab = factor(obs_a + obs_b)
        assert factor_score(fab, store) == pytest.approx(
            factor_score(fa, store) + factor_score(fb, store), abs=1e-12)

    @settings(max_examples=120, deadline=None)
    @given(random_factor_pair())
    def test_sign_symmetry(self, pair):
        closes0, closes1, observations = pair
        store = two_day_store(closes0, closes1)
        f = factor(observations)
        negated = factor([
            Observation(text=o.text,
                        rated_symbols=tuple((s, -r) for s, r in o.rated_symbols))
            for o in observations
        ])
        assert factor_score(negated, store) == -factor_score(f, store)


class TestResearcherScore:
    def test_constant_returns_hit_std_floor(self):
        judger = JudgerScore(0.5, 0.5)
        hybrid = researcher_score([], [0.01] * 5, judger)
        assert hybrid.realized_sharpe_m == pytest.approx(0.01 / 1e-4 * math.sqrt(252))

    def test_all_zero_returns(self):
        hybrid = researcher_score([], [0.0, 0.0, 0.0], JudgerScore(0.2, 0.4))
        assert hybrid.realized_sharpe_m == 0.0

    def test_judger_passthrough(self):
        judger = JudgerScore(0.8, 0.6)
        hybrid = researcher_score([], [0.01, -0.02, 0.005], judger)
        assert hybrid.judger == judger

    def test_short_window_errors(self):
        with pytest.raises(InsufficientHistoryError):
            researcher_score([], [0.01], JudgerScore(0.5, 0.5))

    def test_permutation_invariance(self):
        returns = [0.01, -0.03, 0.02, 0.0, 0.015]
        a = realized_sharpe(returns)
        b = realized_sharpe(list(reversed(returns)))
        assert a == pytest.approx(b, abs=1e-12)

    def test_sums_add_left_to_right(self):
        # 1e16 + 1.0 rounds back to 1e16, so the mean is 0.0; a compensated
        # sum, as the builtin is from Python 3.12, would keep the 1.0
        returns = [1e16, 1.0, -1e16]
        mean = 0.0
        for r in returns:
            mean += r
        mean /= len(returns)
        var = 0.0
        for r in returns:
            var += (r - mean) ** 2
        var /= len(returns)
        expected = mean / max(math.sqrt(var), 1e-4) * math.sqrt(252)
        assert realized_sharpe(returns) == expected == 0.0
        assert ordered_sum([]) == 0 and type(ordered_sum([])) is int


class TestStubJudger:
    def _signal(self, evidence, limitation):
        action = "buy" if evidence else "hold"
        return TradingSignal(agent_id="r", date=T0, symbol="A", action=action,
                             evidence=tuple(evidence), limitation=limitation)

    def test_saturated(self):
        j = stub_judger(self._signal(["a", "b", "c"], "bounded sample"))
        assert j == JudgerScore(1.0, 1.0)

    def test_floor(self):
        j = stub_judger(self._signal([], ""))
        assert j == JudgerScore(0.0, 0.5)

    def test_two_evidence(self):
        j = stub_judger(self._signal(["a", "b"], ""))
        assert j.logical_soundness == pytest.approx(2 / 3)

    def test_judger_bounds(self):
        with pytest.raises(ValueError):
            JudgerScore(1.2, 0.5)
