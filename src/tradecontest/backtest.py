"""Daily portfolio evolution under T+1 settlement, move limits, and costs.

Orders fill at the day's close. Shares bought today are unsettled until
the next trading day and cannot be sold today. A buy is blocked when the
close-to-close move has already reached the upper limit (and a sell at
the lower limit), since the queue at a locked limit never reaches a
passive participant. Costs are proportional on both sides. No shorting:
a sell means exit to cash.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantError, UndefinedCorrelationError
from .prediction import rank_ic

DEFAULT_FEE = 0.001
DEFAULT_LIMIT_PCT = 0.10
LIMIT_EPS = 5e-4
ANNUALIZATION = math.sqrt(252.0)


def ordered_sum(values):
    """``sum(values)`` added strictly left to right from int 0. From Python
    3.12 the builtin compensates float rounding, so its last bits would
    depend on the Python version."""
    total = 0
    for value in values:
        total += value
    return total


@dataclass
class Fill:
    date: dt.date
    symbol: str
    side: str  # "buy" | "sell"
    shares: float
    price: float
    value: float
    cost: float


@dataclass
class DayLedger:
    date: dt.date
    nav_pre: float
    costs: float
    nav_post: float
    rejected: list[str] = field(default_factory=list)


@dataclass
class PortfolioState:
    """Cash, settled/unsettled long positions and each symbol's last close
    on record; evolves day by day, each day's NAV in its ``DayLedger``."""

    cash: float
    settled: dict[str, float] = field(default_factory=dict)
    unsettled: dict[str, dict[dt.date, float]] = field(default_factory=dict)
    prev_closes: dict[str, float] = field(default_factory=dict)
    fills: list[Fill] = field(default_factory=list)
    days: list[DayLedger] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)

    def shares(self, symbol: str) -> float:
        pending = ordered_sum(self.unsettled.get(symbol, {}).values())
        return self.settled.get(symbol, 0.0) + pending

    def held_symbols(self) -> list[str]:
        held = {s for s, v in self.settled.items() if v > 0}
        held |= {s for s, lots in self.unsettled.items() if sum(lots.values()) > 0}
        return sorted(held)

    def nav(self, marks: dict[str, float]) -> float:
        return self.cash + ordered_sum(self.shares(s) * marks[s]
                                       for s in self.held_symbols())


@dataclass(frozen=True)
class BacktestRules:
    """The ``backtest`` section of a run config: starting cash, the
    proportional fee on each side, and the daily move limit."""

    initial_cash: float = 1_000_000.0
    fee: float = DEFAULT_FEE
    limit_pct: float = DEFAULT_LIMIT_PCT

    def __post_init__(self):
        if not (math.isfinite(self.fee) and self.fee >= 0):
            raise ValueError(f"fee must be a finite number >= 0, got {self.fee!r}")
        if not 0 < self.limit_pct <= 1:
            raise ValueError(f"limit_pct must be in (0, 1], got {self.limit_pct!r}")


def new_state(initial_cash: float) -> PortfolioState:
    if not (math.isfinite(initial_cash) and initial_cash > 0):
        raise ValueError(f"initial cash must be positive and finite, got {initial_cash!r}")
    return PortfolioState(cash=float(initial_cash))


def _settle(state: PortfolioState, t: dt.date) -> None:
    for symbol in list(state.unsettled):
        lots = state.unsettled[symbol]
        ready = [d for d in lots if d < t]
        for d in ready:
            state.settled[symbol] = state.settled.get(symbol, 0.0) + lots.pop(d)
        if not lots:
            del state.unsettled[symbol]


def _move(state: PortfolioState, symbol: str, close: float) -> float | None:
    """Move from the symbol's last close on record, for the limit check;
    None when there is none."""
    prev = state.prev_closes.get(symbol)
    if prev is None or prev <= 0:
        return None
    return close / prev - 1.0


def apply_day(state: PortfolioState, target_weights: dict[str, float],
              closes: dict[str, float], t: dt.date,
              rules: BacktestRules = BacktestRules()) -> PortfolioState:
    """Advance the portfolio one day toward ``target_weights``.

    ``closes`` holds day ``t``'s close of every symbol with a bar that day.
    Sequence: settle yesterday's buys, mark positions at today's close (a
    held symbol without a bar at its last close on record, flagged in symbol
    order), then trade toward the targets subject to T+1, move limits, and
    cash. Returns the same state object, updated in place.
    """
    total_w = ordered_sum(target_weights.values())
    if total_w > 1.0 + 1e-9:
        raise ValueError(f"target weights sum to {total_w}, must be <= 1")
    if any(w < 0 for w in target_weights.values()):
        raise ValueError("target weights must be nonnegative")

    _settle(state, t)

    held = state.held_symbols()
    state.flags.extend(f"{t}: stale mark for {s}" for s in held if s not in closes)
    marks = {s: closes[s] if s in closes else state.prev_closes[s] for s in held}
    # a target without a bar is unmarked: it holds no share and cannot trade
    marks |= {s: closes[s] for s in target_weights if s in closes}

    nav_pre = state.nav(marks)
    ledger = DayLedger(date=t, nav_pre=nav_pre, costs=0.0, nav_post=nav_pre)

    # sells first, freeing cash for the buys
    for symbol in sorted(set(held) | set(target_weights)):
        price = closes.get(symbol)
        target_value = target_weights.get(symbol, 0.0) * nav_pre
        current = state.shares(symbol) * marks.get(symbol, 0.0)
        if current - target_value <= 1e-12:
            continue
        if price is None:
            ledger.rejected.append(f"sell {symbol}: no bar")
            continue
        move = _move(state, symbol, price)
        if move is not None and move <= -(rules.limit_pct - LIMIT_EPS):
            ledger.rejected.append(f"sell {symbol}: limit-down")
            continue
        sellable = state.settled.get(symbol, 0.0)
        want_shares = (current - target_value) / price
        shares = min(want_shares, sellable)
        if shares <= 0:
            if want_shares > 0:
                ledger.rejected.append(f"sell {symbol}: unsettled (T+1)")
            continue
        value = shares * price
        cost = rules.fee * value
        state.settled[symbol] = sellable - shares
        if state.settled[symbol] <= 1e-15:
            state.settled[symbol] = 0.0
        state.cash += value - cost
        ledger.costs += cost
        state.fills.append(Fill(date=t, symbol=symbol, side="sell", shares=shares,
                                price=price, value=value, cost=cost))

    # buys, scaled down together if cash cannot cover them all
    buy_plan: list[tuple[str, float, float]] = []
    for symbol in sorted(target_weights):
        price = closes.get(symbol)
        target_value = target_weights[symbol] * nav_pre
        current = state.shares(symbol) * marks.get(symbol, 0.0)
        buy_value = target_value - current
        if buy_value <= 1e-12:
            continue
        if price is None:
            ledger.rejected.append(f"buy {symbol}: no bar")
            continue
        move = _move(state, symbol, price)
        if move is not None and move >= rules.limit_pct - LIMIT_EPS:
            ledger.rejected.append(f"buy {symbol}: limit-up")
            continue
        buy_plan.append((symbol, buy_value, price))

    total_buy = ordered_sum(v for _, v, _ in buy_plan)
    if total_buy > 0:
        affordable = state.cash / (1.0 + rules.fee)
        scale = min(1.0, affordable / total_buy)
        for symbol, buy_value, price in buy_plan:
            value = buy_value * scale
            if value <= 0:
                continue
            shares = value / price
            cost = rules.fee * value
            state.cash -= value + cost
            lots = state.unsettled.setdefault(symbol, {})
            lots[t] = lots.get(t, 0.0) + shares
            ledger.costs += cost
            state.fills.append(Fill(date=t, symbol=symbol, side="buy", shares=shares,
                                    price=price, value=value, cost=cost))
        # float dust from the scaled buys: a few roundings per buy, each up
        # to an ulp of the day's money
        dust = max(1e-9, 4 * (len(buy_plan) + 1) * math.ulp(nav_pre))
        if -dust < state.cash < 0:
            state.cash = 0.0
    if state.cash < 0:
        raise InvariantError(f"{t}: cash went negative: {state.cash}")

    state.prev_closes.update(closes)

    ledger.nav_post = state.nav(marks)
    state.days.append(ledger)
    return state


def signals_to_weights(signals, capital_weights) -> dict[str, float]:
    """Per-symbol long weights: each agent's capital goes to the symbol it
    buys; hold and sell park that agent's capital in cash."""
    if capital_weights is None:
        return {}
    out: dict[str, float] = {}
    for signal in signals:
        if signal.action != "buy":
            continue
        w = capital_weights.weights.get(signal.agent_id, 0.0)
        if w > 0:
            out[signal.symbol] = out.get(signal.symbol, 0.0) + w
    return out


@dataclass(frozen=True)
class MetricsReport:
    cumulative_return: float
    sharpe: float
    max_drawdown: float
    flags: tuple[str, ...] = ()


def max_drawdown(navs) -> float:
    peak = -np.inf
    worst = 0.0
    for v in navs:
        peak = max(peak, v)
        worst = max(worst, (peak - v) / peak)
    return worst


def rank_ic_summary(predicted_ranks_by_day, realized_ranks_by_day):
    """Per-day rank ICs of aligned prediction/realization cross-sections,
    their mean and ICIR, and flags for the days and figures left undefined."""
    flags: list[str] = []
    ics: list[float] = []
    skipped = 0
    for xs, ys in zip(predicted_ranks_by_day, realized_ranks_by_day):
        try:
            ics.append(rank_ic(xs, ys))
        except (UndefinedCorrelationError, ValueError):
            skipped += 1
    if skipped:
        flags.append(f"rank_ic_skipped_{skipped}_days")
    mean_ic = icir = 0.0
    if not ics:
        flags.append("no_rank_ic_days")
    else:
        mean_ic, ic_std = float(np.mean(ics)), float(np.std(ics))
        if ic_std == 0.0:
            flags.append("icir_undefined_constant_ic")
        else:
            icir = mean_ic / ic_std
    return tuple(ics), mean_ic, icir, flags


def compute_metrics(nav_history) -> MetricsReport:
    """Strategy metrics from the nav path: cumulative return, annualized
    Sharpe and max drawdown."""
    navs = [v for _, v in nav_history]
    if len(navs) < 2:
        raise ValueError("need at least 2 nav points")
    flags: list[str] = []
    navs_arr = np.asarray(navs, dtype=np.float64)
    returns = navs_arr[1:] / navs_arr[:-1] - 1.0
    cr = float(navs_arr[-1] / navs_arr[0] - 1.0)
    std = float(returns.std())
    if std == 0.0:
        sharpe = 0.0
        flags.append("sr_undefined_constant_nav")
    else:
        sharpe = float(returns.mean() / std) * ANNUALIZATION
    return MetricsReport(cumulative_return=cr, sharpe=sharpe,
                         max_drawdown=float(max_drawdown(navs_arr)), flags=tuple(flags))
