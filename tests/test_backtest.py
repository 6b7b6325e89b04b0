from __future__ import annotations

import datetime as dt

import numpy as np
import pytest

from tradecontest.agents import TradingSignal
from tradecontest.allocation import CapitalWeights
from tradecontest.backtest import (
    BacktestRules,
    PortfolioState,
    apply_day,
    compute_metrics,
    max_drawdown,
    new_state,
    rank_ic_summary,
    signals_to_weights,
)
from tradecontest.cli import _metrics_dict
from tradecontest.config import RunConfig
from tradecontest.errors import InvariantError

D = dt.date
DAYS = [D(2025, 1, 2), D(2025, 1, 3), D(2025, 1, 6), D(2025, 1, 7)]


class TestApplyDay:
    def test_buy_fills_and_charges_cost(self):
        state = new_state(10_000.0)
        apply_day(state, {"AAA": 1.0}, {"AAA": 10.0}, DAYS[0])
        fill = state.fills[0]
        assert fill.side == "buy"
        assert fill.cost == pytest.approx(0.001 * fill.value)
        # cash fully deployed: value + cost = initial cash
        assert fill.value + fill.cost == pytest.approx(10_000.0)
        assert state.cash == pytest.approx(0.0, abs=1e-9)

    def test_cost_example_10000_trade(self):
        state = new_state(1_000_000.0)
        # target exactly 10k of trade value: weight = 10_000 / nav... buy to
        # a fixed value by weight on known nav
        apply_day(state, {"AAA": 0.01}, {"AAA": 100.0}, DAYS[0])
        fill = state.fills[0]
        assert fill.value == pytest.approx(10_000.0)
        assert fill.cost == pytest.approx(10.0)

    def test_same_day_sell_rejected_t_plus_1(self):
        state = new_state(10_000.0)
        closes = {"AAA": 10.0}
        apply_day(state, {"AAA": 1.0}, closes, DAYS[0])
        shares_before = state.shares("AAA")
        assert shares_before > 0
        apply_day(state, {}, closes, DAYS[0])
        assert state.shares("AAA") == shares_before  # position intact
        assert any("T+1" in r for r in state.days[-1].rejected)

    def test_next_day_sell_allowed(self):
        state = new_state(10_000.0)
        apply_day(state, {"AAA": 1.0}, {"AAA": 10.0}, DAYS[0])
        apply_day(state, {}, {"AAA": 10.1}, DAYS[1])
        assert state.shares("AAA") == 0.0
        assert state.fills[-1].side == "sell"

    def test_buy_rejected_at_limit_up(self):
        state = new_state(10_000.0)
        apply_day(state, {}, {"AAA": 10.0}, DAYS[0])
        apply_day(state, {"AAA": 1.0}, {"AAA": 11.0}, DAYS[1])  # exactly +10%
        assert state.shares("AAA") == 0.0
        assert any("limit-up" in r for r in state.days[-1].rejected)

    def test_sell_rejected_at_limit_down(self):
        state = new_state(10_000.0)
        apply_day(state, {"AAA": 1.0}, {"AAA": 10.0}, DAYS[0])
        apply_day(state, {"AAA": 1.0}, {"AAA": 10.0}, DAYS[1])
        apply_day(state, {}, {"AAA": 9.0}, DAYS[2])  # exactly -10%
        assert state.shares("AAA") > 0
        assert any("limit-down" in r for r in state.days[-1].rejected)

    def test_near_limit_fill_allowed(self):
        state = new_state(10_000.0)
        apply_day(state, {}, {"AAA": 10.0}, DAYS[0])
        apply_day(state, {"AAA": 0.5}, {"AAA": 10.9}, DAYS[1])  # +9%, below limit
        assert state.shares("AAA") > 0

    def test_stale_mark_flagged(self):
        state = new_state(10_000.0)
        apply_day(state, {"AAA": 1.0}, {"AAA": 10.0}, DAYS[0])
        apply_day(state, {"AAA": 1.0}, {}, DAYS[1])  # no bar for held symbol
        assert any("stale mark" in f for f in state.flags)
        assert state.days[-1].nav_post == pytest.approx(state.days[-2].nav_post)

    def test_no_stale_mark_for_a_symbol_not_held(self):
        state = new_state(10_000.0)
        apply_day(state, {}, {"AAA": 10.0}, DAYS[0])
        apply_day(state, {"AAA": 1.0}, {"AAA": 11.0}, DAYS[1])  # limit-up: nothing bought
        apply_day(state, {"AAA": 1.0}, {}, DAYS[2])
        assert state.held_symbols() == [] and state.flags == []

    def test_stale_marks_flagged_in_symbol_order(self):
        symbols = [f"S{i:02d}" for i in range(12)]
        state = new_state(10_000.0)
        apply_day(state, dict.fromkeys(symbols, 1 / 12), dict.fromkeys(symbols, 10.0), DAYS[0])
        apply_day(state, {}, {}, DAYS[1])
        assert state.flags == [f"{DAYS[1]}: stale mark for {s}" for s in symbols]

    def test_weights_must_be_substochastic(self):
        state = new_state(1000.0)
        with pytest.raises(ValueError):
            apply_day(state, {"AAA": 0.7, "BBB": 0.5}, {"AAA": 1.0}, DAYS[0])

    def test_no_shorting_under_random_streams(self):
        rng = np.random.default_rng(2)
        symbols = ["AAA", "BBB", "CCC"]
        state = new_state(50_000.0)
        closes = {s: 10.0 for s in symbols}
        for i in range(120):
            date = D(2025, 1, 2) + dt.timedelta(days=i)
            for s in symbols:
                closes[s] *= float(1 + rng.uniform(-0.09, 0.09))
            raw = rng.uniform(0, 1, len(symbols))
            raw = raw / raw.sum() * float(rng.uniform(0, 1))
            targets = {s: float(w) for s, w in zip(symbols, raw)}
            apply_day(state, targets, dict(closes), date)
            assert all(v >= 0 for v in state.settled.values())
            assert state.cash >= -1e-9
            ledger = state.days[-1]
            assert abs(ledger.nav_post - (ledger.nav_pre - ledger.costs)) \
                <= 1e-9 * max(1.0, ledger.nav_post)

    def test_scaled_buys_at_a_nav_of_3_2e6_leave_no_negative_cash(self):
        # the state before 2024-11-04 of configs/demo.yaml under seed 2,
        # daily_vol 0.0075, the baseline predictor and budget 256: one sell
        # and two buys scaled to the cash, whose roundings at this NAV went
        # 2.4 ulps below zero, past an absolute 1e-9 bound
        t = D(2024, 11, 4)
        state = PortfolioState(
            cash=467718.2086625956,
            unsettled={"SYM003": {D(2024, 11, 1): 25619.020142486508}},
            prev_closes={"SYM003": 106.3813315233217, "SYM011": 102.56779852267275,
                         "SYM000": 631.4171647731059})
        closes = {"SYM003": 105.1176476103122, "SYM011": 102.9621770844245,
                  "SYM000": 640.9851495359454}
        targets = {"SYM000": 0.852066751632419, "SYM011": 0.14793324836758098}
        apply_day(state, targets, closes, t, BacktestRules())
        day = state.days[-1]
        assert 3.1e6 < day.nav_pre < 3.2e6
        assert [(f.side, f.symbol) for f in state.fills] == \
            [("sell", "SYM003"), ("buy", "SYM000"), ("buy", "SYM011")]
        assert state.cash == 0.0
        assert abs(day.nav_post - (day.nav_pre - day.costs)) <= 1e-9 * day.nav_post

    def test_negative_cash_is_an_invariant_error_naming_the_day(self):
        state = PortfolioState(cash=-1.0)
        with pytest.raises(InvariantError, match="^2025-01-02: cash went negative: -1.0$"):
            apply_day(state, {}, {"AAA": 10.0}, DAYS[0])


class TestSignalsToWeights:
    def _sig(self, agent, action, symbol="S"):
        ev = ("e",) if action in ("buy", "sell") else ()
        return TradingSignal(agent_id=agent, date=DAYS[0], symbol=symbol,
                             action=action, evidence=ev)

    def test_two_buyers_sum(self):
        cw = CapitalWeights(date=DAYS[0], weights={"a": 0.6, "b": 0.4})
        out = signals_to_weights([self._sig("a", "buy"), self._sig("b", "buy")], cw)
        assert out == pytest.approx({"S": 1.0})

    def test_hold_is_cash(self):
        cw = CapitalWeights(date=DAYS[0], weights={"a": 1.0})
        assert signals_to_weights([self._sig("a", "hold")], cw) == {}

    def test_sell_contributes_nothing(self):
        cw = CapitalWeights(date=DAYS[0], weights={"a": 0.5, "b": 0.5})
        out = signals_to_weights(
            [self._sig("a", "buy", "A"), self._sig("b", "sell", "B")], cw)
        assert out == pytest.approx({"A": 0.5})

    def test_no_weights_means_cash(self):
        assert signals_to_weights([self._sig("a", "buy")], None) == {}


class TestComputeMetrics:
    def test_cr_compounding(self):
        navs = [(DAYS[0], 1.0), (DAYS[1], 1.1), (DAYS[2], 1.1 * 0.9)]
        report = compute_metrics(navs)
        assert report.cumulative_return == pytest.approx(-0.01, abs=1e-12)

    def test_mdd_peak_to_trough(self):
        navs = list(zip(DAYS, [1.0, 1.2, 0.9, 1.1]))
        report = compute_metrics(navs)
        assert report.max_drawdown == pytest.approx(0.25)

    def test_flat_nav_flagging(self):
        navs = list(zip(DAYS, [1.0, 1.0, 1.0, 1.0]))
        report = compute_metrics(navs)
        assert report.cumulative_return == 0.0
        assert report.max_drawdown == 0.0
        assert report.sharpe == 0.0
        assert "sr_undefined_constant_nav" in report.flags

    def test_mdd_matches_quadratic_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            navs = np.cumprod(1 + rng.uniform(-0.05, 0.05, 100)) * 100
            slow = max(
                (navs[i] - navs[j]) / navs[i]
                for i in range(len(navs)) for j in range(i, len(navs))
            )
            assert max_drawdown(navs) == slow

    def test_perfect_foresight_ic(self):
        days = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        _, mean_ic, _, _ = rank_ic_summary(days, days)
        assert mean_ic == pytest.approx(1.0)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            compute_metrics([(DAYS[0], 1.0)])

    def test_report_dict_keys(self):
        navs = list(zip(DAYS, [1.0, 1.1, 1.05, 1.2]))
        d = _metrics_dict(RunConfig(), navs, [])
        assert {"CR", "SR", "MDD", "RankIC", "ICIR"} <= set(d)
