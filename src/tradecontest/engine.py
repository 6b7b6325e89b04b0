"""Daily contest orchestration: quantify, predict, allocate, hand off.

The day loop runs on the trading calendar. Factors produced on day t are
scored once t+1's close resolves, so every prediction made on day t sees
only fully-resolved scores (getting this lag wrong is look-ahead bias).
The data contest rebuilds the factor portfolio on its rebalance cadence;
research agents consume the active portfolio and are themselves scored,
predicted, and capital-weighted on their own cadence. Agents that fail
or stay silent simply score as absent; the run never crashes on them.
"""

from __future__ import annotations

import datetime as dt
from array import array
from bisect import bisect_right
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .agents import CASH_SYMBOL, TextualFactor, TradingSignal
from .allocation import (
    CapitalWeights,
    FactorPortfolio,
    KnapsackItem,
    empty_portfolio,
    knapsack_select,
    sharpe_weights,
)
from .backtest import signals_to_weights
from .errors import (
    AgentUnavailableError,
    ConfigurationError,
    MissingDataError,
    ProtocolError,
)
from .market import MarketStore, price_change, view_until
from .prediction import (
    MIN_TRAIN_PAIRS,
    PredictorModel,
    PredictorSpec,
    baseline_model,
    clipped_utility,
    features_from_window,
    train,
)
from .scoring import (
    factor_score,
    realized_sharpe,
    researcher_score,
    stub_judger,
)
from .seeding import stream

AGENT_FAILURES = (AgentUnavailableError, ProtocolError)


@dataclass(frozen=True)
class ContestConfig:
    m: int = 5
    n_data: int = 3
    n_research: int = 5
    budget: int = 16_384
    predictor: PredictorSpec = field(default_factory=lambda: PredictorSpec(kind="gbdt"))
    seed: int = 0
    no_data_contest: bool = False
    no_research_contest: bool = False
    no_judger: bool = False
    no_deep_inputs: bool = False
    research_rebalance_daily: bool = False
    train_window_days: int | None = None

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("m must be >= 2")
        if self.n_data < 1 or self.n_research < 1:
            raise ValueError("rebalance horizons must be >= 1")
        if self.budget < 0:
            raise ValueError("budget must be >= 0")

    @property
    def warmup_days(self) -> int:
        # one extra day because scores resolve with a one-day lag
        return self.m + max(self.n_data, self.n_research) + 1


@dataclass
class DailyRecord:
    """One day of the run ledger."""

    date: dt.date
    factor_scores: dict[str, float]
    researcher_scores: dict[str, dict[str, float]]
    data_utilities: dict[str, float]
    research_utilities: dict[str, float]
    portfolio: FactorPortfolio | None
    weights: CapitalWeights | None
    signals: list[TradingSignal]
    target_weights: dict[str, float]
    data_rebalance: bool
    research_rebalance: bool
    model_kinds: dict[str, str]
    absent: list[str] = field(default_factory=list)

    def to_dict(self, prev_portfolio_date: dt.date | None = None) -> dict:
        """The ledger line's fields; dicts are left unsorted, as the ledger
        is written with ``sort_keys=True``. A portfolio dated
        ``prev_portfolio_date``, the date of the previous line's portfolio,
        is written as the reference ``{"date": D}``; any other in full."""
        portfolio = self.portfolio
        if portfolio is not None and portfolio.date is not None \
                and portfolio.date == prev_portfolio_date:
            portfolio_field = {"date": portfolio.date.isoformat()}
        else:
            portfolio_field = _portfolio_dict(portfolio)
        return {
            "date": self.date.isoformat(),
            "factor_scores": self.factor_scores,
            "researcher_scores": self.researcher_scores,
            "data_utilities": self.data_utilities,
            "research_utilities": self.research_utilities,
            "portfolio": portfolio_field,
            "weights": None if self.weights is None else self.weights.weights,
            "signals": [_signal_dict(s) for s in self.signals],
            "target_weights": self.target_weights,
            "data_rebalance": self.data_rebalance,
            "research_rebalance": self.research_rebalance,
            "model_kinds": self.model_kinds,
            "absent": sorted(set(self.absent)),
        }


def _portfolio_dict(portfolio: FactorPortfolio | None):
    if portfolio is None:
        return None
    return {
        "date": None if portfolio.date is None else portfolio.date.isoformat(),
        "total_tokens": portfolio.total_tokens,
        "total_utility": portfolio.total_utility,
        "selected": [
            {
                "agent_id": agent_id,
                "factor": None if factor is None else {
                    "date": factor.date.isoformat(),
                    "token_length": factor.token_length,
                    "observations": [
                        {"text": o.text, "rated_symbols": [list(p) for p in o.rated_symbols]}
                        for o in factor.observations
                    ],
                },
            }
            for agent_id, factor in portfolio.selected
        ],
    }


def _signal_dict(s: TradingSignal) -> dict:
    return {
        "agent_id": s.agent_id, "date": s.date.isoformat(), "symbol": s.symbol,
        "action": s.action, "evidence": list(s.evidence), "limitation": s.limitation,
    }


@dataclass
class _TrainingRows:
    """One agent's training rows, end to end in flat arrays. The row anchored
    on score i is final once the n scores after it resolve: features are the
    m-window statistics ending at i plus score i's extra columns, targets the
    mean and std of those n scores."""

    m: int
    n: int
    features: array = field(default_factory=lambda: array("d"))
    targets: array = field(default_factory=lambda: array("d"))
    extras: list = field(default_factory=list)

    def add(self, values: list[float], extra) -> None:
        """Take the newest score's extra columns; finish the row n scores back."""
        self.extras.append(extra)
        i = len(values) - 1 - self.n
        if i < self.m - 1:
            return
        self.features.extend(features_from_window(values[i - self.m + 1: i + 1]))
        self.features.extend(self.extras[i] or ())
        future = np.asarray(values[i + 1:], dtype=np.float64)
        self.targets.extend((future.mean(), future.std()))


def _fit_or_baseline(config: ContestConfig, rows: dict[str, _TrainingRows]) -> PredictorModel:
    """Fit on each agent's latest ``train_window_days`` rows, or fall back
    to the baseline when the predictor is the baseline or rows are few."""
    cap = config.train_window_days
    window = slice(None if cap is None else -cap, None)
    chosen = [r for _, r in sorted(rows.items()) if r.targets]
    X = [np.array(r.features).reshape(len(r.targets) // 2, -1)[window] for r in chosen]
    targets = [np.array(r.targets).reshape(-1, 2)[window] for r in chosen]
    if config.predictor.kind == "gbdt" and sum(map(len, X)) >= MIN_TRAIN_PAIRS:
        return train(config.predictor, np.vstack(X), np.vstack(targets))
    return baseline_model()


class _Contest:
    """One team's contest: each agent's resolved scores, the training rows a
    gbdt predictor reads (kept only where one will), and the outputs of the
    latest day run, which wait for the next close, keyed by their day."""

    def __init__(self, agent_ids, m: int, n: int, keep_rows: bool):
        self.scores: dict[str, list[float]] = {a: [] for a in agent_ids}
        self.rows = {a: _TrainingRows(m, n) for a in agent_ids} if keep_rows else {}
        self.pending: dict[dt.date, dict] = {}

    def resolve(self, agent_id: str, score: float, extra) -> None:
        """Append the agent's newest score; finish the training row it completes."""
        values = self.scores[agent_id]
        values.append(score)
        if agent_id in self.rows:
            self.rows[agent_id].add(values, extra)

    def utilities(self, config: ContestConfig, extras: dict) -> tuple[dict[str, float], str]:
        """Predicted utility of each agent with at least m scores, from its
        latest m scores and its extra columns; and the model's kind."""
        model = _fit_or_baseline(config, self.rows)
        agents = [a for a in sorted(self.scores) if len(self.scores[a]) >= config.m]
        if not agents:
            return {}, model.kind
        mu, sigma = model.predict_batch(np.array([
            features_from_window(self.scores[a][-config.m:]) + tuple(extras.get(a) or ())
            for a in agents]))
        return {a: clipped_utility(float(mu[i]), float(sigma[i]))
                for i, a in enumerate(agents)}, model.kind


def _collect(agents, call, t: dt.date, absent: list[str]) -> dict:
    """Each agent's output for day t, by agent id; an agent that fails or
    dates its output otherwise is absent."""
    out = {}
    for agent in agents:
        try:
            output = call(agent)
            if output.date != t:
                raise ProtocolError(f"{agent.agent_id}: output dated {output.date}, expected {t}")
            out[agent.agent_id] = output
        except AGENT_FAILURES:
            absent.append(agent.agent_id)
    return out


class ContestEngine:
    """Stateful day-by-day runner; run_full drives it over a calendar."""

    def __init__(self, config: ContestConfig, store: MarketStore,
                 data_agents, research_agents):
        ids = [a.agent_id for a in data_agents] + [a.agent_id for a in research_agents]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("agent ids must be unique across the roster")
        if not data_agents:
            raise ConfigurationError("need at least one data agent")
        if not research_agents:
            raise ConfigurationError("need at least one research agent")
        if not store.calendar:
            raise ConfigurationError("market store has an empty calendar")
        self.config = config
        self.store = store
        self.data_agents = sorted(data_agents, key=lambda a: a.agent_id)
        self.research_agents = sorted(research_agents, key=lambda a: a.agent_id)

        gbdt = config.predictor.kind == "gbdt"
        self.data = _Contest([a.agent_id for a in self.data_agents], config.m, config.n_data,
                             gbdt and not config.no_data_contest)
        self.research = _Contest([a.agent_id for a in self.research_agents], config.m,
                                 config.n_research, gbdt and not config.no_research_contest)
        self.research_returns: dict[str, deque[float]] = {
            a.agent_id: deque(maxlen=config.m) for a in self.research_agents
        }
        self.judged: dict[str, deque[tuple[float, float]]] = {
            a.agent_id: deque(maxlen=config.m) for a in self.research_agents
        }
        self.judger_means: dict[str, tuple[float, float]] = {}
        self.active_portfolio: FactorPortfolio | None = None
        self.active_weights: CapitalWeights | None = None

    # -- per-day stages -------------------------------------------------

    def _resolve_scores(self, i: int, t: dt.date, absent: list[str]) -> tuple[dict, dict]:
        """Score day t-1 factors and researcher returns, now that t's close
        is known."""
        factor_scores: dict[str, float] = {}
        researcher_scores: dict[str, dict[str, float]] = {}
        if i == 0:
            return factor_scores, researcher_scores
        t_prev = self.store.calendar[i - 1]
        for agent_id, factor in sorted(self.data.pending.get(t_prev, {}).items()):
            try:
                q = factor_score(factor, self.store)
            except MissingDataError:
                absent.append(agent_id)
                continue
            self.data.resolve(agent_id, q, None)
            factor_scores[agent_id] = q

        for agent_id, signal in sorted(self.research.pending.get(t_prev, {}).items()):
            if signal.action == "buy" and signal.symbol != CASH_SYMBOL:
                try:
                    ret = price_change(self.store, signal.symbol, t_prev)
                except MissingDataError:
                    absent.append(agent_id)
                    continue
            else:
                ret = 0.0
            window = self.research_returns[agent_id]
            window.append(ret)
            judger = None if self.config.no_judger else stub_judger(signal)
            entry: dict[str, float] = {}
            if judger is not None:
                judged = self.judged[agent_id]
                judged.append((judger.logical_soundness, judger.evidence_quality))
                self.judger_means[agent_id] = (sum(v[0] for v in judged) / len(judged),
                                               sum(v[1] for v in judged) / len(judged))
                entry["soundness"] = judger.logical_soundness
                entry["quality"] = judger.evidence_quality
            if len(window) >= 2:
                sharpe = realized_sharpe(window) if judger is None \
                    else researcher_score([signal], window, judger).realized_sharpe_m
                self.research.resolve(agent_id, sharpe, self.judger_means.get(agent_id))
                entry["sharpe"] = sharpe
            if entry:
                researcher_scores[agent_id] = entry
        return factor_scores, researcher_scores

    def _rebalance_data(self, t: dt.date, factors_t: dict[str, TextualFactor]):
        if self.config.no_data_contest:
            rng = stream(self.config.seed, "ablation", "data", t.isoformat())
            ids = sorted(a for a, f in factors_t.items() if f.token_length >= 1)
            order = [ids[j] for j in rng.permutation(len(ids))]
            chosen, total = [], 0
            for agent_id in order:
                tokens = factors_t[agent_id].token_length
                if total + tokens <= self.config.budget:
                    chosen.append(agent_id)
                    total += tokens
            chosen.sort()
            self.active_portfolio = FactorPortfolio(
                date=t,
                selected=tuple((a, factors_t[a]) for a in chosen),
                total_tokens=total,
                total_utility=0.0,
            )
            return {}, "random"

        utilities, model_kind = self.data.utilities(self.config, {})
        items = [
            KnapsackItem(agent_id=a, utility=u, tokens=factors_t[a].token_length,
                         factor=factors_t[a])
            for a, u in sorted(utilities.items())
            if a in factors_t and factors_t[a].token_length >= 1
        ]
        self.active_portfolio = knapsack_select(items, self.config.budget, date=t)
        return utilities, model_kind

    def _rebalance_research(self, t: dt.date, signals_t: dict[str, TradingSignal]):
        if self.config.no_research_contest:
            rng = stream(self.config.seed, "ablation", "research", t.isoformat())
            ids = sorted(signals_t)
            if not ids:
                self.active_weights = None
                return {}, "random"
            pick = ids[int(rng.integers(len(ids)))]
            self.active_weights = CapitalWeights(date=t, weights={pick: 1.0})
            return {}, "random"

        utilities, model_kind = self.research.utilities(self.config, self.judger_means)
        if not utilities:
            self.active_weights = None
            return {}, model_kind
        self.active_weights = sharpe_weights(utilities, date=t)
        return utilities, model_kind

    # -- day driver -------------------------------------------------------

    def run_contest_day(self, i: int, t: dt.date, eval_idx: int) -> DailyRecord:
        absent: list[str] = []
        view = view_until(self.store, t)
        factors_t = _collect(self.data_agents, lambda agent: agent.produce(view, t), t, absent)
        factor_scores, researcher_scores = self._resolve_scores(i, t, absent)
        self.data.pending = {t: factors_t}  # older outputs are dropped unresolved

        data_utilities: dict[str, float] = {}
        research_utilities: dict[str, float] = {}
        model_kinds: dict[str, str] = {}

        data_reb = i >= self.config.m and (i - eval_idx) % self.config.n_data == 0
        if data_reb:
            data_utilities, kind = self._rebalance_data(t, factors_t)
            model_kinds["data"] = kind

        portfolio = self.active_portfolio if self.active_portfolio is not None \
            else empty_portfolio(t)
        research_view = None if self.config.no_deep_inputs else view
        signals_t = _collect(
            self.research_agents, lambda agent: agent.produce(portfolio, research_view, t),
            t, absent)
        self.research.pending = {t: signals_t}

        research_reb = i >= self.config.m and (
            self.config.research_rebalance_daily
            or (i - eval_idx) % self.config.n_research == 0
        )
        if research_reb:
            research_utilities, kind = self._rebalance_research(t, signals_t)
            model_kinds["research"] = kind

        signals = [signals_t[a] for a in sorted(signals_t)]
        target = signals_to_weights(signals, self.active_weights)

        return DailyRecord(
            date=t,
            factor_scores=factor_scores,
            researcher_scores=researcher_scores,
            data_utilities=data_utilities,
            research_utilities=research_utilities,
            portfolio=self.active_portfolio,
            weights=self.active_weights,
            signals=signals,
            target_weights=target,
            data_rebalance=data_reb,
            research_rebalance=research_reb,
            model_kinds=model_kinds,
            absent=absent,
        )


def run_full(config: ContestConfig, store: MarketStore, data_agents,
             research_agents, eval_start: dt.date | None = None,
             eval_end: dt.date | None = None) -> Iterator[DailyRecord]:
    """The evaluation period's records, each day run as its record is taken.

    The roster and period are checked at the call; the warm-up days before
    ``eval_start``, which only accumulate resolved score history, run with
    the first record taken. Identical inputs give identical ledgers.
    """
    engine = ContestEngine(config, store, data_agents, research_agents)
    calendar = store.calendar
    required = config.warmup_days
    if eval_start is None:
        if len(calendar) <= required:
            raise ConfigurationError(
                f"calendar has {len(calendar)} days; need more than the "
                f"{required}-day warm-up"
            )
        eval_start = calendar[required]
    try:
        eval_idx = store.day_index(eval_start)
    except MissingDataError:
        raise ConfigurationError(f"eval start {eval_start} not on the trading calendar") from None
    if eval_idx < required:
        raise ConfigurationError(
            f"warm-up too short: need at least {required} trading days before "
            f"{eval_start}, have {eval_idx}"
        )
    end = len(calendar) if eval_end is None else bisect_right(calendar, eval_end)
    if end - eval_idx < 2:
        # the strategy metrics need two nav points
        raise ConfigurationError(
            f"period: evaluation window from {eval_start} holds "
            f"{max(end - eval_idx, 0)} trading day(s); need at least 2")

    days = (engine.run_contest_day(i, t, eval_idx) for i, t in enumerate(calendar[:end]))
    return islice(days, eval_idx, None)


# -- ledger post-processing ---------------------------------------------


# the fields of a ledger line that contest_ic_pairs reads
IC_FIELDS = ("factor_scores", "researcher_scores", "data_utilities", "research_utilities")


def contest_ic_pairs(record_dicts: list[dict], horizon: int, side: str):
    """Aligned (predicted, realized) cross-sections per rebalance day.

    Works on serialized ledger records. Predictions made on record k are
    compared to the mean resolved score over the following ``horizon``
    days; scores resolve with a one-day lag, so those live in records
    k+2 .. k+horizon+1.
    """
    util_key = "data_utilities" if side == "data" else "research_utilities"
    predicted_days: list[list[float]] = []
    realized_days: list[list[float]] = []
    for k, record in enumerate(record_dicts):
        utilities = record.get(util_key) or {}
        if not utilities:
            continue
        if k + horizon + 1 >= len(record_dicts):
            continue
        realized: dict[str, list[float]] = {}
        for j in range(2, horizon + 2):
            future = record_dicts[k + j]
            if side == "data":
                day_scores = future.get("factor_scores") or {}
            else:
                day_scores = {a: v["sharpe"]
                              for a, v in (future.get("researcher_scores") or {}).items()
                              if "sharpe" in v}
            for agent_id, q in day_scores.items():
                realized.setdefault(agent_id, []).append(float(q))
        agents = sorted(set(utilities) & set(realized))
        if len(agents) < 2:
            continue
        predicted_days.append([float(utilities[a]) for a in agents])
        realized_days.append([float(np.mean(realized[a])) for a in agents])
    return predicted_days, realized_days
