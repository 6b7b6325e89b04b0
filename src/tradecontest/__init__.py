"""Deterministic multi-agent trading contest engine and daily backtester."""

from .agents import (
    AgentRequest,
    Observation,
    TextualFactor,
    TradingSignal,
    external_agent_call,
)
from .allocation import (
    CapitalWeights,
    FactorPortfolio,
    KnapsackItem,
    knapsack_select,
    sharpe_weights,
)
from .backtest import (
    BacktestRules,
    MetricsReport,
    PortfolioState,
    apply_day,
    compute_metrics,
    new_state,
    signals_to_weights,
)
from .engine import ContestConfig, ContestRules, DailyRecord, run_full
from .market import (
    Bar,
    MarketStore,
    PlantedEffect,
    SyntheticSpec,
    generate_synthetic,
    ingest_csv,
    price_change,
    view_until,
)
from .prediction import (
    PredictorModel,
    rank_ic,
    train,
    validate_momentum,
)
from .scoring import (
    HybridScore,
    JudgerScore,
    factor_score,
    researcher_score,
    stub_judger,
    zi_trade,
)

__version__ = "0.1.0"
