"""Quantification: ZI-trader factor scoring and researcher hybrid scores.

The zero-intelligence trader converts an observation's ratings into a
next-day-return-weighted reward with no further reasoning; a factor's
score is the sum over its observations. Researcher quality combines a
trailing realized Sharpe with a deterministic judger stand-in.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

from .agents import Observation, TextualFactor, TradingSignal
from .backtest import ANNUALIZATION, ordered_sum
from .errors import InsufficientHistoryError
from .market import MarketStore, price_change

STD_FLOOR = 1e-4


@dataclass(frozen=True)
class JudgerScore:
    logical_soundness: float
    evidence_quality: float

    def __post_init__(self):
        if not (0.0 <= self.logical_soundness <= 1.0):
            raise ValueError("logical_soundness must be in [0, 1]")
        if not (0.0 <= self.evidence_quality <= 1.0):
            raise ValueError("evidence_quality must be in [0, 1]")


@dataclass(frozen=True)
class HybridScore:
    """Researcher quality: realized trailing Sharpe plus judger vector."""

    realized_sharpe_m: float
    judger: JudgerScore


def zi_trade(obs: Observation, store: MarketStore, t: dt.date) -> float:
    """Reward of one observation: sum of rating times next-day return."""
    reward = 0.0
    for symbol, rating in obs.rated_symbols:
        reward += rating * price_change(store, symbol, t)
    return reward


def factor_score(factor: TextualFactor, store: MarketStore) -> float:
    """Factor value proxy: total ZI reward over its observations."""
    return ordered_sum(zi_trade(obs, store, factor.date) for obs in factor.observations)


def realized_sharpe(returns) -> float:
    """Annualized mean over std of a daily return window, std floored at 1e-4."""
    n = len(returns)
    if n < 2:
        raise InsufficientHistoryError(f"need >= 2 returns, got {n}")
    mean = ordered_sum(returns) / n
    var = ordered_sum((r - mean) ** 2 for r in returns) / n
    std = max(math.sqrt(var), STD_FLOOR)
    return mean / std * ANNUALIZATION


def researcher_score(
    signal_history: list[TradingSignal],
    returns,
    judger: JudgerScore,
) -> HybridScore:
    """Hybrid researcher quantification over a trailing return window.

    ``signal_history`` is carried for protocol parity with judger panels
    that inspect past signals; the deterministic stand-in scores only the
    realized window and passes the judger vector through unchanged.
    """
    return HybridScore(realized_sharpe_m=realized_sharpe(returns), judger=judger)


def stub_judger(signal: TradingSignal) -> JudgerScore:
    """Deterministic judger: evidence count drives soundness, a stated
    limitation earns full evidence quality."""
    soundness = min(1.0, len(signal.evidence) / 3.0)
    quality = 1.0 if signal.limitation else 0.5
    return JudgerScore(logical_soundness=soundness, evidence_quality=quality)
