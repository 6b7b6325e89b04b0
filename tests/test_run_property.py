"""Every valid config runs to its end: drawn from a small box of contest,
market and exchange settings, a baseline run finishes with cash >= 0 on
every day, each day's NAV change is its holdings' mark change less its
costs, and its rerun writes the same bytes."""

from __future__ import annotations

import tempfile
from pathlib import Path
from unittest import mock

import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tradecontest import cli as cli_mod
from tradecontest.cli import main

DEMO = Path(__file__).resolve().parent.parent / "configs" / "demo.yaml"
OUTPUTS = ("ledger.jsonl", "metrics.json", "nav.csv", "fills.csv")


def run(config_path: Path, out: Path) -> tuple[dict[str, bytes], list[float], list[float]]:
    """The run's four outputs, its cash after each day, and each day's
    self-financing residual relative to the NAV it started from: the NAV
    change, less the change in the marks of the shares carried into the
    day, plus the day's costs."""
    cash, residuals, apply_day = [], [], cli_mod.apply_day

    def apply_and_record(state, *args):
        nav_before = state.days[-1].nav_post if state.days else state.cash
        carried = {s: state.shares(s) for s in state.held_symbols()}
        marks = dict(state.prev_closes)
        apply_day(state, *args)
        day = state.days[-1]
        marked = sum(n * (state.prev_closes[s] - marks[s]) for s, n in carried.items())
        residuals.append(abs(day.nav_post - nav_before - marked + day.costs) / nav_before)
        cash.append(state.cash)

    with mock.patch.object(cli_mod, "apply_day", apply_and_record):
        assert main(["backtest", str(config_path), "--output-dir", str(out)]) == 0
    return {name: (out / name).read_bytes() for name in OUTPUTS}, cash, residuals


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(initial_cash=st.floats(1e3, 1e12), fee=st.floats(0.0, 0.01),
       daily_vol=st.floats(0.002, 0.09), budget=st.integers(0, 1024),
       m=st.integers(2, 8), n_data=st.integers(1, 6), n_days=st.integers(30, 80),
       seed=st.integers(0, 2**32 - 1), data_limit=st.floats(0.01, 0.3),
       exchange_limit=st.floats(0.01, 1.0))
# the demo with seed 2, daily_vol 0.0075, the baseline predictor and budget
# 256 once ended on 2024-11-04 with cash at -1.1e-9 and a traceback
@example(initial_cash=1e6, fee=0.001, daily_vol=0.0075, budget=256, m=5, n_data=3,
         n_days=250, seed=2, data_limit=0.1, exchange_limit=0.1)
def test_every_valid_config_runs_to_its_end(initial_cash, fee, daily_vol, budget, m,
                                            n_data, n_days, seed, data_limit, exchange_limit):
    config = yaml.safe_load(DEMO.read_text())
    config["seed"] = seed
    config["data"] |= {"n_days": n_days, "daily_vol": daily_vol, "limit_pct": data_limit}
    config["contest"] |= {"predictor": "baseline", "budget": budget, "m": m,
                          "n_data": n_data}
    config["backtest"] |= {"initial_cash": initial_cash, "fee": fee,
                           "limit_pct": exchange_limit}
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "run.yaml"
        config_path.write_text(yaml.safe_dump(config))
        outputs, cash, residuals = run(config_path, Path(tmp) / "a")
        warmup = m + max(n_data, config["contest"]["n_research"]) + 1
        assert len(cash) == n_days - warmup
        assert min(cash) >= 0.0
        assert max(residuals) <= 1e-9
        assert run(config_path, Path(tmp) / "b") == (outputs, cash, residuals)


def test_a_large_cash_run_keeps_cash_non_negative(tmp_path):
    """The box's large-cash corner on its own: 1e12 of cash, where one ulp of
    the NAV is about 1e-4, ends every day with cash >= 0."""
    config = yaml.safe_load(DEMO.read_text())
    config["data"]["n_days"] = 120
    config["contest"]["predictor"] = "baseline"
    config["backtest"]["initial_cash"] = 1e12
    config_path = tmp_path / "run.yaml"
    config_path.write_text(yaml.safe_dump(config))
    _, cash, residuals = run(config_path, tmp_path / "out")
    assert len(cash) > 100
    assert 0.0 <= min(cash) < 1e6  # fully invested on some day
    assert max(residuals) <= 1e-9
