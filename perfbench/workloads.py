"""Benchmark workloads: each turns a seed into one run config and its inputs.

Every workload is one batch `backtest` of one config. The seed becomes the
config's root seed (market and agent noise) and, for `wide-csv`, also
drives the bar file the benchmark writes before timing. Configs are
written as JSON, which the program's YAML loader reads unchanged.
"""

from __future__ import annotations

import datetime as dt
import json
import random
import shlex
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

# Engine rules the checks replay; the configs below pass them explicitly.
FEE = 0.001
LIMIT_PCT = 0.10
INITIAL_CASH = 1_000_000.0
# A token budget the knapsack has to choose under: about four synthetic
# factors of three observations. Under the default 16,384 every factor with
# positive utility is taken, so the portfolio size, and with it the ledger
# size, follows how many agents a seed's market happens to favour.
BUDGET = 256

DEMO_PLANTED = [
    {"symbol": "SYM000", "start_day": 0, "drift": 0.008},
    {"symbol": "SYM001", "start_day": 0, "drift": -0.008},
    {"symbol": "SYM002", "start_day": 100, "drift": 0.01},
]

WIDE_SYMBOLS = 600
WIDE_DAYS = 600
WIDE_TEST_DAYS = 120
WIDE_VOL = 0.03

EXTERNAL_DATA_AGENTS = 4
EXTERNAL_RESEARCH_AGENTS = 3


def _base(seed: int, data: dict, predictor: str, agents: dict | None = None) -> dict:
    config = {
        "seed": seed,
        "output_dir": "runs/perfbench",
        "data": data,
        "contest": {"m": 5, "n_data": 3, "n_research": 5, "budget": BUDGET,
                    "predictor": predictor},
        "backtest": {"initial_cash": INITIAL_CASH, "fee": FEE, "limit_pct": LIMIT_PCT},
    }
    if agents is not None:
        config["agents"] = agents
    return config


def _synthetic(n_symbols: int, n_days: int, planted=()) -> dict:
    return {"kind": "synthetic", "n_symbols": n_symbols, "n_days": n_days,
            "daily_vol": 0.015, "limit_pct": LIMIT_PCT, "start": "2024-01-02",
            "planted": list(planted)}


def demo_gbdt(seed: int, work: Path) -> dict:
    """The demo shape on a shorter calendar: 12 symbols, planted drifts,
    the default 16+8 roster, GBDT."""
    return _base(seed, _synthetic(12, 105, DEMO_PLANTED), "gbdt")


def long_baseline(seed: int, work: Path) -> dict:
    """A small universe over a long calendar with the closed-form predictor."""
    planted = [{"symbol": "SYM000", "start_day": 0, "drift": 0.006},
               {"symbol": "SYM001", "start_day": 200, "drift": -0.006}]
    return _base(seed, _synthetic(6, 400, planted), "baseline")


def wide_csv(seed: int, work: Path) -> dict:
    """Several hundred symbols ingested from a CSV written before timing.

    The file holds more history than the backtest uses: the contest runs
    over its first WIDE_TEST_DAYS days, as a backtest of a sub-period would.
    """
    path = work / "wide.csv"
    days = write_wide_csv(path, seed)
    config = _base(seed, {"kind": "csv", "csv_path": str(path)}, "baseline")
    config["period"] = {"test_end": days[WIDE_TEST_DAYS - 1]}
    return config


def external_agents(seed: int, work: Path) -> dict:
    """Data and research agents that answer through a spawned awk process."""
    endpoint = "awk -f " + shlex.quote(str(BENCH_DIR / "agent.awk"))
    agents = {
        "data": [{"kind": "external", "agent_id": f"ext-d{i}", "endpoint": endpoint,
                  "timeout": 30, "lookback": 30}
                 for i in range(EXTERNAL_DATA_AGENTS)],
        "research": [{"kind": "external", "agent_id": f"ext-r{i}", "endpoint": endpoint,
                      "timeout": 30, "lookback": 30}
                     for i in range(EXTERNAL_RESEARCH_AGENTS)],
    }
    return _base(seed, _synthetic(12, 105, DEMO_PLANTED), "baseline", agents)


WORKLOADS = {
    "demo-gbdt": demo_gbdt,
    "long-baseline": long_baseline,
    "wide-csv": wide_csv,
    "external-agents": external_agents,
}


def write_config(name: str, seed: int, work: Path) -> tuple[Path, dict]:
    config = WORKLOADS[name](seed, work)
    path = work / "config.yaml"
    path.write_text(json.dumps(config, indent=1, sort_keys=True) + "\n")
    return path, config


def _business_days(start: dt.date, n: int) -> list[dt.date]:
    days, d = [], start
    while len(days) < n:
        if d.weekday() < 5:
            days.append(d)
        d += dt.timedelta(days=1)
    return days


def write_wide_csv(path: Path, seed: int) -> list[str]:
    """Random-walk bars, clamped at the move limit, four-decimal prices.

    Each symbol gets its own drift, so momentum readers have something to
    find, and the volatility is high enough that locked limit days occur.
    """
    rng = random.Random(seed)
    days = [d.isoformat() for d in _business_days(dt.date(2020, 1, 2), WIDE_DAYS)]
    rows = ["date,symbol,open,high,low,close,volume"]
    for j in range(WIDE_SYMBOLS):
        sym = f"W{j:04d}"
        drift = rng.gauss(0.0, 0.002)
        close = round(rng.uniform(5.0, 200.0), 4)
        for i, day in enumerate(days):
            prev = close
            if i:
                move = max(-LIMIT_PCT, min(LIMIT_PCT, rng.gauss(drift, WIDE_VOL)))
                close = max(0.01, round(prev * (1.0 + move), 4))
            high = round(max(prev, close) * (1.0 + rng.uniform(0.0, WIDE_VOL / 2)), 4)
            low = round(min(prev, close) * (1.0 - rng.uniform(0.0, WIDE_VOL / 2)), 4)
            volume = rng.randrange(10_000, 1_000_000)
            rows.append(f"{day},{sym},{prev!r},{high!r},{low!r},{close!r},{volume}")
    path.write_text("\n".join(rows) + "\n")
    return days
