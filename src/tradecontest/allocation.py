"""Allocation stage: knapsack factor selection and capital weighting.

Factor selection is an exact 0/1 knapsack over predicted utilities under
a token budget; items with non-positive utility are pre-excluded since
they can only lower the objective. Capital weights are proportional to
positive predicted utilities, with an all-cash fallback when nothing is
positive.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .agents import TextualFactor
from .backtest import ordered_sum


@dataclass(frozen=True)
class KnapsackItem:
    agent_id: str
    utility: float
    tokens: int
    factor: TextualFactor | None = None

    def __post_init__(self):
        if self.tokens < 1:
            raise ValueError(f"{self.agent_id}: item length must be >= 1 token")


@dataclass(frozen=True)
class FactorPortfolio:
    """The selected factor set for one rebalance period."""

    date: dt.date | None
    selected: tuple[tuple[str, TextualFactor | None], ...]
    total_tokens: int
    total_utility: float

    # Every research agent of a day reads the same portfolio, and a portfolio
    # stands until the next data rebalance: each is derived on first read and
    # kept in the instance's __dict__, which a frozen dataclass leaves open
    # (and pickles with it, so both stay picklable types).

    @cached_property
    def sentiment(self) -> dict[str, int]:
        """Net rating per symbol across all observations, shared by every
        reader: read it, never write it."""
        sentiment: dict[str, int] = {}
        for _, factor in self.selected:
            if factor is None:
                continue
            for obs in factor.observations:
                for sym, rating in obs.rated_symbols:
                    sentiment[sym] = sentiment.get(sym, 0) + rating
        return sentiment

    @cached_property
    def text(self) -> str:
        """The observations as one line each, ``agent_id: text [SYM:+r] ...``."""
        lines = []
        for agent_id, factor in self.selected:
            if factor is None:
                continue
            for obs in factor.observations:
                tags = " ".join(f"[{s}:{r:+d}]" for s, r in obs.rated_symbols)
                lines.append(f"{agent_id}: {obs.text} {tags}".rstrip())
        return "\n".join(lines)


def empty_portfolio(date: dt.date | None = None) -> FactorPortfolio:
    return FactorPortfolio(date=date, selected=(), total_tokens=0, total_utility=0.0)


def knapsack_select(items, budget: int, date: dt.date | None = None) -> FactorPortfolio:
    """Exact utility-maximizing subset under the token budget.

    Non-positive-utility items are dropped up front. The dynamic program
    runs over capacity quantized at one token, up to the budget or the
    candidates' total tokens, whichever is less: every capacity past that
    total makes the same picks. When subsets tie, denser items (higher
    utility per token, then lower agent id) win, so replays are
    bit-identical.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    items = list(items)
    ids = [it.agent_id for it in items]
    if len(set(ids)) != len(ids):
        raise ValueError("item agent_ids must be distinct")
    cand = [it for it in items if it.utility > 0 and it.tokens <= budget]
    cand.sort(key=lambda it: (-(it.utility / it.tokens), it.agent_id))
    if not cand:
        return empty_portfolio(date)

    capacity = min(budget, sum(it.tokens for it in cand))
    dp = np.zeros(capacity + 1)
    keep = np.zeros((len(cand), capacity + 1), dtype=bool)
    neg_inf = -np.inf
    for i, it in enumerate(cand):
        shifted = np.concatenate([np.full(it.tokens, neg_inf), dp[: capacity + 1 - it.tokens]])
        take = shifted + it.utility
        better = take > dp  # skip on ties: denser, earlier items stand
        keep[i] = better
        dp = np.where(better, take, dp)

    chosen: list[KnapsackItem] = []
    w = capacity
    for i in range(len(cand) - 1, -1, -1):
        if keep[i, w]:
            chosen.append(cand[i])
            w -= cand[i].tokens
    chosen.sort(key=lambda it: it.agent_id)
    return FactorPortfolio(
        date=date,
        selected=tuple((it.agent_id, it.factor) for it in chosen),
        total_tokens=sum(it.tokens for it in chosen),
        total_utility=float(ordered_sum(it.utility for it in chosen)),
    )


@dataclass(frozen=True)
class CapitalWeights:
    """Per-agent capital fractions; all-zero means fully in cash."""

    date: dt.date | None
    weights: dict[str, float]

    def __post_init__(self):
        total = sum(self.weights.values())
        if any(w < 0 for w in self.weights.values()):
            raise ValueError("weights must be nonnegative")
        if self.weights and total > 0 and abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1 or 0, got {total}")


def sharpe_weights(utilities: dict[str, float], date: dt.date | None = None) -> CapitalWeights:
    """Capital proportional to positive predicted utility; cash if none."""
    if not utilities:
        raise ValueError("utilities must be nonempty")
    clipped = {a: max(0.0, u) for a, u in sorted(utilities.items())}
    total = ordered_sum(clipped.values())
    if total <= 0.0:
        return CapitalWeights(date=date, weights={a: 0.0 for a in clipped})
    return CapitalWeights(date=date, weights={a: v / total for a, v in clipped.items()})
