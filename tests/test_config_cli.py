from __future__ import annotations

import dataclasses
import datetime as dt
import hashlib
import importlib.util
import json
import re
import sys
import typing
from pathlib import Path

import pytest
import yaml

from tradecontest import cli as cli_mod
from tradecontest import config as cfgmod
from tradecontest.backtest import PortfolioState
from tradecontest.cli import _write_run_outputs, main, run_contest_backtest
from tradecontest.engine import ContestEngine
from tradecontest.errors import ConfigurationError, TradeContestError
from tradecontest.market import (
    PlantedEffect,
    SyntheticSpec,
    generate_synthetic,
    write_csv,
)

from conftest import store_of

STUB = f"{sys.executable} {Path(__file__).parent / 'stub_agent.py'}"


REPO = Path(__file__).resolve().parent.parent


def perfbench_module(name: str):
    """A module of the benchmark (``checks``, ``workloads``), loaded from
    its file as is."""
    path = REPO / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_ledger(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def is_portfolio_ref(portfolio) -> bool:
    return portfolio is not None and set(portfolio) == {"date"}


def expand_portfolio_refs(ledger: bytes) -> bytes:
    """The ledger with each portfolio reference ``{"date": D}`` replaced by
    the last portfolio written in full, which must be D's; the lines that
    change are written again as the writer writes them."""
    lines, full = [], None
    for line in ledger.splitlines(keepends=True):
        record = json.loads(line)
        if is_portfolio_ref(record["portfolio"]):
            assert full is not None and full["date"] == record["portfolio"]["date"]
            record["portfolio"] = full
            line = (json.dumps(record, sort_keys=True) + "\n").encode()
        else:
            full = record["portfolio"]
        lines.append(line)
    return b"".join(lines)


def write_config(path, **overrides):
    base = {
        "seed": 21,
        "output_dir": str(path.parent / "out"),
        "data": {
            "kind": "synthetic",
            "n_symbols": 6,
            "n_days": 70,
            "daily_vol": 0.01,
            "planted": [{"symbol": "SYM000", "start_day": 0, "drift": 0.01}],
        },
        "agents": {
            "data": [
                {"kind": "synthetic", "agent_id": f"d{i:02d}",
                 "skill": 0.8 if i < 2 else 0.0}
                for i in range(5)
            ],
            "research": [
                {"kind": "synthetic", "agent_id": "r00", "belief": "momentum"},
                {"kind": "synthetic", "agent_id": "r01", "belief": "random"},
            ],
        },
        "contest": {"predictor": "baseline"},
    }
    base.update(overrides)
    path.write_text(yaml.safe_dump(base))
    return path


def replace_with_a_directory(path: Path) -> None:
    path.unlink()
    path.mkdir()


def append_a_0xff_byte(path: Path) -> None:
    path.write_bytes(path.read_bytes() + b"\xff\n")


class TestConfigRoundTrip:
    def test_parse_emit_parse(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.yaml")
        config = cfgmod.load_config(cfg_path)
        out_path = tmp_path / "emitted.yaml"
        out_path.write_text(yaml.safe_dump(cfgmod.to_dict(config)))
        again = cfgmod.load_config(out_path)
        assert again == config

    def test_default_roster_size(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump({"seed": 3}))
        config = cfgmod.load_config(path)
        assert len(config.agents.data) == 16
        assert len(config.agents.research) == 8

    def test_overlapping_periods_rejected(self, tmp_path):
        path = write_config(
            tmp_path / "run.yaml",
            period={"train_start": "2024-01-02", "train_end": "2024-03-01",
                    "test_start": "2024-02-15"},
        )
        with pytest.raises(ConfigurationError, match="train/test overlap"):
            cfgmod.load_config(path)

    def test_a_section_built_in_python_checks_itself(self):
        with pytest.raises(ValueError, match="train/test overlap"):
            cfgmod.PeriodSection(train_end=dt.date(2024, 3, 1), test_start=dt.date(2024, 2, 15))
        with pytest.raises(ValueError, match="kind: must be ar1 or noise"):
            cfgmod.RicPanel(kind="ar2")

    def test_missing_csv_path(self, tmp_path):
        path = write_config(tmp_path / "run.yaml", data={"kind": "csv"})
        with pytest.raises(ConfigurationError, match="csv_path"):
            cfgmod.load_config(path)

    def test_bad_predictor_name(self, tmp_path):
        path = write_config(tmp_path / "run.yaml", contest={"predictor": "xgboost"})
        with pytest.raises(ConfigurationError, match="predictor"):
            cfgmod.load_config(path)

    def test_missing_file(self):
        with pytest.raises(ConfigurationError, match="not found"):
            cfgmod.load_config("/nonexistent/run.yaml")


# Every key of the schema, each set to a value other than its default.
FULL_CONFIG = {
    "seed": 5,
    "output_dir": "runs/full",
    "data": {"kind": "csv", "csv_path": "bars.csv", "n_symbols": 7, "n_days": 120,
             "daily_vol": 0.03, "limit_pct": 0.05, "start": "2023-03-01",
             "start_price": 50.0,
             "planted": [{"symbol": "SYM001", "start_day": 4, "drift": -0.002}]},
    "period": {"train_start": "2023-03-01", "train_end": "2023-04-28",
               "test_start": "2023-05-01", "test_end": "2023-06-30"},
    "agents": {
        "data": [{"kind": "synthetic", "agent_id": "d0", "skill": 0.4, "obs_per_day": 5,
                  "belief": "reversal", "noise_seed": 99},
                 {"kind": "external", "agent_id": "x0", "endpoint": "awk -f agent.awk",
                  "timeout": 7.5, "lookback": 12}],
        "research": [{"kind": "synthetic", "agent_id": "r0", "skill": 0.5,
                      "obs_per_day": 2, "belief": "random", "noise_seed": 7}],
    },
    "contest": {"m": 7, "n_data": 2, "n_research": 4, "budget": 512,
                "predictor": "baseline", "n_trees": 20, "max_depth": 2,
                "learning_rate": 0.05, "research_rebalance_daily": True},
    "backtest": {"initial_cash": 250_000.0, "fee": 0.002, "limit_pct": 0.2},
    "validate_ric": {"source": "ledger", "ledger": "runs/x/ledger.jsonl",
                     "panel": {"kind": "noise", "phi": 0.3, "agents": 8, "days": 120},
                     "windows": {"m": 4, "n": 2, "M": 40, "N": 20}},
}


def assert_no_default_left(full, default, where=""):
    for key, value in default.items():
        if isinstance(value, dict):
            assert_no_default_left(full[key], value, f"{where}.{key}")
        else:
            assert full[key] != value, f"{where}.{key}"


class TestFullSchemaRoundTrip:
    def test_every_key_survives(self, tmp_path):
        assert_no_default_left(FULL_CONFIG, cfgmod.to_dict(cfgmod.RunConfig()))
        for side, union in (("data", cfgmod.DataAgent), ("research", cfgmod.ResearchAgent)):
            for entry in FULL_CONFIG["agents"][side]:
                [agent_type] = [t for t in typing.get_args(union) if t.kind == entry["kind"]]
                for f in dataclasses.fields(agent_type):
                    assert f.name not in entry or entry[f.name] != f.default, f.name
        path = tmp_path / "full.yaml"
        path.write_text(yaml.safe_dump(FULL_CONFIG))
        config = cfgmod.load_config(path)
        assert cfgmod.to_dict(config) == FULL_CONFIG
        (tmp_path / "emitted.yaml").write_text(yaml.safe_dump(cfgmod.to_dict(config)))
        assert cfgmod.load_config(tmp_path / "emitted.yaml") == config


PLANTED_NO_DRIFT = {"kind": "synthetic", "n_symbols": 6, "n_days": 70,
                    "planted": [{"symbol": "SYM000"}]}
TWO_AGENTS = {"data": [{"agent_id": "d0"}], "research": [{"agent_id": "r0"}]}
EXTERNAL = {"kind": "external", "agent_id": "x0", "endpoint": "true"}
NAN = float("nan")  # written by yaml.safe_dump as .nan


@pytest.mark.parametrize("command, overrides, where", [
    ("backtest", {"contest": {"predictor": "baseline", "m": "abc"}}, "contest.m: expected int"),
    ("backtest", {"contest": {"predictor": "baseline", "n_trees": 99}}, "contest: n_trees"),
    ("backtest", {"agents": {**TWO_AGENTS, "data": [{"agent_id": "d0", "skill": 2.0}]}},
     "agents.data[0]: skill"),
    ("backtest", {"agents": {**TWO_AGENTS, "research": [{"agent_id": "r0", "belief": "bogus"}]}},
     "agents.research[0]: unknown belief"),
    ("backtest", {"backtest": {"initial_cash": 0}}, "backtest: initial cash"),
    ("backtest", {"data": PLANTED_NO_DRIFT}, "data.planted[0].drift: required"),
    ("backtest", {"agents": {**TWO_AGENTS, "data": [{**EXTERNAL, "lookback": 0}]}},
     "agents.data[0].lookback: must be >= 1"),
    ("backtest", {"agents": {**TWO_AGENTS, "research": [{**EXTERNAL, "lookback": -2}]}},
     "agents.research[0].lookback: must be >= 1"),
    ("backtest", {"contest": {"predictor": "baseline", "research_rebalance_daily": "false"}},
     "contest.research_rebalance_daily: expected bool, got 'false'"),
    ("backtest", {"contest": {"predictor": "baseline", "m": 2.7}},
     "contest.m: expected int, got 2.7"),
    ("backtest", {"contest": {"predictor": "baseline", "m": True}},
     "contest.m: expected int, got True"),
    ("backtest", {"backtest": {"fee": True}}, "backtest.fee: expected float, got True"),
    ("backtest", {"contest": {"predictor": "baseline", "n_tree": 20}},
     "contest.n_tree: unknown key"),
    ("backtest", {"sed": 3}, "sed: unknown key"),
    ("backtest", {"agents": {**TWO_AGENTS, "data": [{"agent_id": "d0", "skil": 0.5}]}},
     "agents.data[0].skil: unknown key"),
    ("backtest", {"validate_ric": {"panel": {"phi": 0.5, "day": 10}}},
     "validate_ric.panel.day: unknown key"),
    ("backtest", {"agents": {**TWO_AGENTS, "data": [{**EXTERNAL, "endpoint": "   "}]}},
     "agents.data[0].endpoint: blank command"),
    ("backtest", {"agents": {**TWO_AGENTS, "research": [{**EXTERNAL, "endpoint": 'awk "'}]}},
     "agents.research[0].endpoint: No closing quotation"),
    ("backtest", {"agents": {**TWO_AGENTS, "data": [{**EXTERNAL, "timeout": 0}]}},
     "agents.data[0].timeout: must be a positive number of seconds, got 0.0"),
    ("backtest", {"agents": {**TWO_AGENTS, "research": [{**EXTERNAL, "timeout": -1.5}]}},
     "agents.research[0].timeout: must be a positive number of seconds, got -1.5"),
    ("backtest", {"agents": {**TWO_AGENTS, "data": [{**EXTERNAL, "timeout": float("inf")}]}},
     "agents.data[0].timeout: must be a positive number of seconds, got inf"),
    ("backtest", {"agents": {**TWO_AGENTS, "research": [{**EXTERNAL, "timeout": 1e7}]}},
     "agents.research[0].timeout: must be a positive number of seconds, got 10000000.0 "
     "(at most 2147483)"),
    ("backtest", {"backtest": {"fee": -0.5}},
     "backtest: fee must be a finite number >= 0, got -0.5"),
    ("backtest", {"backtest": {"fee": NAN}},
     "backtest: fee must be a finite number >= 0, got nan"),
    ("backtest", {"backtest": {"initial_cash": NAN}},
     "backtest: initial cash must be positive and finite, got nan"),
    ("backtest", {"backtest": {"initial_cash": float("inf")}},
     "backtest: initial cash must be positive and finite, got inf"),
    ("backtest", {"backtest": {"limit_pct": 0}}, "backtest: limit_pct must be in (0, 1], got 0.0"),
    ("backtest", {"backtest": {"limit_pct": NAN}},
     "backtest: limit_pct must be in (0, 1], got nan"),
    ("backtest", {"contest": {"predictor": "baseline", "m": 1}}, "contest: m must be >= 2"),
    ("backtest", {"contest": {"predictor": "baseline", "n_data": 0}},
     "contest: rebalance horizons must be >= 1"),
    ("backtest", {"contest": {"predictor": "baseline", "budget": -1}},
     "contest: budget must be >= 0"),
    ("backtest", {"contest": {"predictor": "baseline", "learning_rate": NAN}},
     "contest: learning_rate must be a finite number > 0, got nan"),
    ("backtest", {"contest": {"predictor": "baseline", "learning_rate": 0}},
     "contest: learning_rate must be a finite number > 0, got 0.0"),
    ("backtest", {"contest": {"predictor": "baseline", "learning_rate": -0.1}},
     "contest: learning_rate must be a finite number > 0, got -0.1"),
    ("backtest", {"data": {"kind": "synthetic", "daily_vol": NAN}},
     "data: daily_vol must be a finite number >= 0, got nan"),
    ("backtest", {"data": {"kind": "synthetic", "start_price": float("inf")}},
     "data: start_price must be a finite number > 0, got inf"),
    ("backtest", {"validate_ric": {"panel": {"phi": NAN}}},
     "validate_ric.panel.phi: must be a finite number, got nan"),
    ("backtest", {"validate_ric": {"panel": {"phi": float("-inf")}}},
     "validate_ric.panel.phi: must be a finite number, got -inf"),
    ("backtest", {"validate_ric": {"panel": {"agents": 0}}},
     "validate_ric.panel.agents: must be >= 1, got 0"),
    ("backtest", {"validate_ric": {"panel": {"days": -5}}},
     "validate_ric.panel.days: must be >= 1, got -5"),
    ("backtest", {"validate_ric": {"windows": {"m": 0}}},
     "validate_ric.windows.m: must be >= 1, got 0"),
    ("backtest", {"validate_ric": {"windows": {"n": 0}}},
     "validate_ric.windows.n: must be >= 1, got 0"),
    ("backtest", {"validate_ric": {"windows": {"M": 0}}},
     "validate_ric.windows.M: must be >= 1, got 0"),
    ("backtest", {"validate_ric": {"windows": {"N": -1}}},
     "validate_ric.windows.N: must be >= 1, got -1"),
    ("backtest", {"validate_ric": {"source": "panle"}},
     "validate_ric.source: must be panel or ledger, got 'panle'"),
    ("backtest", {"validate_ric": {"panel": {"kind": "ar2"}}},
     "validate_ric.panel.kind: must be ar1 or noise, got 'ar2'"),
    ("backtest", {"period": {"test_start": "2024-03-01", "test_end": "2024-03-01"}},
     "period: evaluation window from 2024-03-01 holds 1 trading day(s); need at least 2"),
    # the weekend and holiday before the market opens on 2024-01-02: a
    # training window of 0 days would slice every row
    ("backtest", {"period": {"train_start": "2023-12-30", "train_end": "2024-01-01"}},
     "period: train period from 2023-12-30 to 2024-01-01 holds no trading day"),
    ("backtest", {"data": {"kind": "csv", "csv_path": "no/such/bars.csv"}},
     "data.csv_path: file not found: no/such/bars.csv"),
    ("backtest", {"data": {"kind": "csv", "csv_path": "."}}, "data.csv_path: is a directory: ."),
    ("backtest", replace_with_a_directory, "config file is a directory"),
    ("backtest", append_a_0xff_byte, "config file is not valid UTF-8"),
    ("validate-ric", {"validate_ric": {"source": "ledger", "ledger": "."}},
     "validate_ric.ledger: is a directory: ."),
    ("backtest", {"agents": {**TWO_AGENTS, "data": [{"agent_id": "d0", "belief": "bogus"}]}},
     "agents.data[0]: unknown belief"),
    ("backtest", {"agents": {**TWO_AGENTS, "research": [{"agent_id": "r0", "skill": 2}]}},
     "agents.research[0]: skill"),
    ("backtest", {"agents": {**TWO_AGENTS, "research": [{"agent_id": "r0", "obs_per_day": -1}]}},
     "agents.research[0]: obs_per_day"),
    ("backtest", {"backtest": {"fee": 10**400}}, "backtest.fee: expected float, got 1000"),
    ("gen-data", {"data": {"kind": "synthetic", "n_days": 3_000_000}},
     "data: n_days must be at most 2080839, the weekdays from 2024-01-02 to 9999-12-31"),
    ("validate-ric", {"validate_ric": {"panel": {"days": 2**62}}},
     "validate_ric.panel: agents * days must be at most 1152921504606846975"),
    ("gen-data", {"contest": {"m": 1}}, "contest: m must be >= 2"),
    ("validate-ric", {"contest": {"m": 1}}, "contest: m must be >= 2"),
    ("gen-data", {"contest": {"predictor": "xgb"}},
     "contest: predictor must be baseline or gbdt, got 'xgb'"),
    ("backtest", {"data": {"kind": "csv", "csv_path": "no/such/bars.csv", "n_symbols": 0}},
     "data: n_symbols must be >= 1"),
    ("gen-data", {"agents": {**TWO_AGENTS, "data": [{"agent_id": "d0", "skill": 2.0}]}},
     "agents.data[0]: skill must be in [0, 1]"),
    ("validate-ric", {"agents": {**TWO_AGENTS, "data": [{"agent_id": "d0", "skill": 2.0}]}},
     "agents.data[0]: skill must be in [0, 1]"),
    ("gen-data", {"agents": {**TWO_AGENTS, "research": [{"agent_id": "r0", "belief": "bogus"}]}},
     "agents.research[0]: unknown belief 'bogus'"),
    ("validate-ric", {"agents": {**TWO_AGENTS, "data": [{"agent_id": "d0", "belief": "bogus"}]}},
     "agents.data[0]: unknown belief 'bogus'"),
    ("backtest", {"agents": {**TWO_AGENTS, "data": [{"agent_id": "d0", "endpoint": "true"}]}},
     "agents.data[0].endpoint: unknown key"),
    ("backtest", {"agents": {**TWO_AGENTS, "research": [{**EXTERNAL, "skill": 0.5}]}},
     "agents.research[0].skill: unknown key"),
    ("backtest", {"agents": {**TWO_AGENTS, "data": [{"agent_id": "d0", "kind": "bogus"}]}},
     "agents.data[0].kind: must be synthetic or external"),
], ids=["m-abc", "n_trees-99", "skill-2", "belief-bogus", "initial_cash-0",
        "planted-no-drift", "lookback-0", "lookback-negative", "bool-as-string",
        "int-with-fraction", "int-as-bool", "float-as-bool", "unknown-contest-key",
        "unknown-root-key", "unknown-agent-key", "unknown-nested-key", "endpoint-blank",
        "endpoint-unclosed-quote", "timeout-0", "timeout-negative", "timeout-inf",
        "timeout-huge", "fee-negative", "fee-nan", "initial_cash-nan", "initial_cash-inf",
        "limit_pct-0", "limit_pct-nan", "m-1", "n_data-0", "budget-negative",
        "learning_rate-nan", "learning_rate-0", "learning_rate-negative", "daily_vol-nan",
        "start_price-inf", "ric-phi-nan", "ric-phi-inf", "ric-agents-0", "ric-days-negative",
        "ric-m-0", "ric-n-0", "ric-M-0", "ric-N-negative", "ric-source-typo",
        "ric-panel-kind-ar2", "one-day-window", "train-period-without-a-trading-day",
        "csv-path-missing", "csv-path-a-directory",
        "config-a-directory", "config-not-utf8", "ric-ledger-a-directory",
        "data-belief-bogus", "research-skill-2", "research-obs_per_day-negative",
        "float-too-large", "n_days-past-the-calendar", "ric-panel-too-big", "gen-data-m-1",
        "validate-ric-m-1", "gen-data-predictor-xgb", "csv-n_symbols-0", "gen-data-skill-2",
        "validate-ric-skill-2", "gen-data-belief-bogus", "validate-ric-belief-bogus",
        "synthetic-with-endpoint", "external-with-skill", "agent-kind-bogus"])
def test_invalid_value_exits_2(tmp_path, capsys, command, overrides, where):
    # gen-data's CSV would be written to out, which must not appear
    args = ["--out", str(tmp_path / "out")] if command == "gen-data" else []
    if callable(overrides):  # a damaged config file, named in the message
        cfg_path = write_config(tmp_path / "run.yaml")
        overrides(cfg_path)
        where = f"{where}: {cfg_path}"
    else:
        cfg_path = write_config(tmp_path / "run.yaml", **overrides)
    assert main([command, str(cfg_path), *args]) == 2
    err = capsys.readouterr().err
    assert where in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("workload", ["demo-gbdt", "long-baseline", "external-agents", "demo.yaml"])
def test_benchmark_configs_load_and_round_trip(tmp_path, workload):
    # a stricter schema must not refuse a benchmark workload's config
    if workload == "demo.yaml":
        raw = yaml.safe_load((REPO / "configs" / workload).read_text())
    else:
        raw = perfbench_module("workloads").WORKLOADS[workload](1, tmp_path)
    config = cfgmod.from_dict(raw)
    assert cfgmod.from_dict(cfgmod.to_dict(config)) == config


def test_lossless_numbers_still_load():
    config = cfgmod.from_dict({"contest": {"m": 4.0}, "backtest": {"initial_cash": 500, "fee": 0},
                               "agents": {"data": [{**EXTERNAL, "timeout": 30}]}})
    assert (config.contest.m, config.backtest.initial_cash, config.backtest.fee) == (4, 500.0, 0.0)
    assert type(config.contest.m) is int and type(config.backtest.fee) is float
    assert config.agents.data[0].timeout == 30.0


class TestCmdBacktest:
    def test_budget_past_every_factor_gives_the_default_budgets_ledger(self, tmp_path):
        # the knapsack's table is as wide as the tokens it can choose from,
        # not as the budget, so a budget of 2**62 runs like any budget that
        # covers every factor
        ledgers = []
        for budget in (16_384, 2**62):
            run = tmp_path / str(budget)
            run.mkdir()
            cfg_path = write_config(run / "run.yaml",
                                    contest={"predictor": "baseline", "budget": budget})
            assert main(["backtest", str(cfg_path)]) == 0
            ledgers.append((run / "out" / "ledger.jsonl").read_bytes())
        assert ledgers[0] == ledgers[1]

    def test_writes_all_outputs(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.yaml")
        assert main(["backtest", str(cfg_path)]) == 0
        out = tmp_path / "out"
        metrics = json.loads((out / "metrics.json").read_text())
        assert {"CR", "SR", "MDD", "RankIC", "ICIR"} <= set(metrics)
        assert (out / "ledger.jsonl").exists()
        assert (out / "nav.csv").read_text().startswith("date,nav\n")
        assert (out / "fills.csv").exists()
        assert metrics["config"]["seed"] == 21

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.yaml")
        out = tmp_path / "out"
        assert main(["backtest", str(cfg_path)]) == 0
        first = (out / "metrics.json").read_bytes()
        first_ledger = (out / "ledger.jsonl").read_bytes()
        assert main(["backtest", str(cfg_path)]) == 0
        assert (out / "metrics.json").read_bytes() == first
        assert (out / "ledger.jsonl").read_bytes() == first_ledger

    def test_overlap_exits_2(self, tmp_path):
        cfg_path = write_config(
            tmp_path / "run.yaml",
            period={"train_start": "2024-01-02", "train_end": "2024-03-01",
                    "test_start": "2024-02-15"},
        )
        assert main(["backtest", str(cfg_path)]) == 2

    def test_oversized_csv_field_exits_1(self, tmp_path, capsys):
        bars = tmp_path / "bars.csv"
        bars.write_text("date,symbol,open,high,low,close,volume\n"
                        "2024-01-02,AAA,10,10.5,9.5,10.2,100\n"
                        f"2024-01-02,{'B' * 200_000},10,10.5,9.5,10.2,100\n")
        cfg_path = write_config(tmp_path / "run.yaml", data={"kind": "csv", "csv_path": str(bars)})
        assert main(["backtest", str(cfg_path)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line == "error: line 3: field larger than field limit (131072)"
        assert not (tmp_path / "out").exists()

    def test_csv_not_utf8_exits_1(self, tmp_path, capsys):
        bars = tmp_path / "bars.csv"
        bars.write_bytes(b"date,symbol,open,high,low,close,volume\n"
                         b"2024-01-02,A\xffA,10,10.5,9.5,10.2,100\n")
        cfg_path = write_config(tmp_path / "run.yaml", data={"kind": "csv", "csv_path": str(bars)})
        assert main(["backtest", str(cfg_path)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"error: {bars}: not valid UTF-8"
        assert not (tmp_path / "out").exists()

    def test_a_broken_exchange_invariant_is_an_error_line_naming_the_day(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli_mod, "new_state", lambda cash: PortfolioState(cash=-1.0))
        cfg_path = write_config(tmp_path / "run.yaml")
        assert main(["backtest", str(cfg_path)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        # the first evaluation day fails, before its ledger line is written
        assert re.fullmatch(r"error: \d{4}-\d\d-\d\d: cash went negative: -1\.0", line)
        assert (tmp_path / "out" / "ledger.jsonl").read_bytes() == b""

    @pytest.mark.parametrize("owner, name, k", [
        (ContestEngine, "run_contest_day", 0), (ContestEngine, "run_contest_day", 7),
        (ContestEngine, "run_contest_day", -1), (cli_mod, "apply_day", 7),
    ], ids=["engine-first-day", "engine-day-7", "engine-last-day", "backtest-day-7"])
    def test_a_fault_on_day_k_leaves_the_ledger_of_the_days_before(
            self, tmp_path, monkeypatch, owner, name, k):
        cfg_path = write_config(tmp_path / "run.yaml")
        assert main(["backtest", str(cfg_path), "--output-dir", str(tmp_path / "whole")]) == 0
        whole = (tmp_path / "whole" / "ledger.jsonl").read_bytes().splitlines(keepends=True)
        k %= len(whole)
        fault_day = dt.date.fromisoformat(json.loads(whole[k])["date"])
        real = getattr(owner, name)

        def faulty(*args):
            if fault_day in args:
                raise TradeContestError("injected fault")
            return real(*args)

        monkeypatch.setattr(owner, name, faulty)
        assert main(["backtest", str(cfg_path)]) == 1
        out = tmp_path / "out"
        assert (out / "ledger.jsonl").read_bytes() == b"".join(whole[:k])
        assert not any((out / f).exists() for f in ("nav.csv", "fills.csv", "metrics.json"))

    def test_output_dir_flag_overrides(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.yaml")
        other = tmp_path / "elsewhere"
        assert main(["backtest", str(cfg_path), "--output-dir", str(other)]) == 0
        assert (other / "metrics.json").exists()

    def test_env_var_override(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path / "run.yaml")
        envdir = tmp_path / "envout"
        monkeypatch.setenv("TRADECONTEST_OUTPUT_DIR", str(envdir))
        assert main(["backtest", str(cfg_path)]) == 0
        assert (envdir / "metrics.json").exists()

    def test_external_agent_in_roster(self, tmp_path):
        cfg_path = write_config(
            tmp_path / "run.yaml",
            data={"kind": "synthetic", "n_symbols": 4, "n_days": 30,
                  "daily_vol": 0.01},
            agents={
                "data": [
                    {"kind": "synthetic", "agent_id": "d00", "skill": 0.5},
                    {"kind": "synthetic", "agent_id": "d01", "skill": 0.0},
                    {"kind": "external", "agent_id": "x00",
                     "endpoint": f"{STUB} ok", "timeout": 20, "lookback": 5},
                ],
                "research": [
                    {"kind": "synthetic", "agent_id": "r00", "belief": "momentum"},
                ],
            },
        )
        assert main(["backtest", str(cfg_path)]) == 0
        ledger = (tmp_path / "out" / "ledger.jsonl").read_text().splitlines()
        scored = set()
        for line in ledger:
            scored |= set(json.loads(line)["factor_scores"])
        assert "x00" in scored


    def test_move_limit_holds_on_first_evaluation_day(self, tmp_path):
        # SYM000 closes at the +10% limit every day, so a buy on the first
        # evaluation day meets a locked limit-up like on any other day
        cfg_path = write_config(
            tmp_path / "run.yaml",
            data={"kind": "synthetic", "n_symbols": 2, "n_days": 40, "daily_vol": 0.01,
                  "planted": [{"symbol": "SYM000", "start_day": 0, "drift": 0.5}]},
            agents={"data": [{"agent_id": f"d{i}", "skill": 1.0} for i in range(3)],
                    "research": [{"agent_id": "r0", "belief": "momentum"}]},
        )
        state, _ = run_contest_backtest(cfgmod.load_config(cfg_path), tmp_path / "ledger.jsonl")
        first = state.days[0]
        assert read_ledger(tmp_path / "ledger.jsonl")[0]["target_weights"].get("SYM000", 0.0) > 0
        assert "buy SYM000: limit-up" in first.rejected
        assert not [f for f in state.fills if f.date == first.date]

    def test_move_limit_holds_on_first_evaluation_day_after_a_gap(self, tmp_path):
        # as above, but SYM000 has no bar on the day before test_start: its
        # first-day move is measured from its last close before, as on later days
        store = generate_synthetic(SyntheticSpec(
            n_symbols=2, n_days=40, daily_vol=0.01,
            planted=(PlantedEffect("SYM000", 0.5),)), 5)
        gap, test_start = store.calendar[19], store.calendar[20]
        bars_path = tmp_path / "bars.csv"
        write_csv(store_of([b for b in store.iter_bars()
                               if (b.symbol, b.date) != ("SYM000", gap)]), bars_path)
        cfg_path = write_config(
            tmp_path / "run.yaml",
            data={"kind": "csv", "csv_path": str(bars_path)},
            period={"test_start": test_start.isoformat()},
            agents={"data": [{"agent_id": f"d{i}", "skill": 1.0} for i in range(3)],
                    "research": [{"agent_id": "r0", "belief": "momentum"}]},
        )
        config = cfgmod.load_config(cfg_path)
        out = tmp_path / "out"
        out.mkdir()
        state, metrics = run_contest_backtest(config, out / "ledger.jsonl")
        records = read_ledger(out / "ledger.jsonl")
        first = state.days[0]
        assert first.date == test_start
        assert records[0]["target_weights"].get("SYM000", 0.0) > 0
        assert "buy SYM000: limit-up" in first.rejected
        assert not [f for f in state.fills if f.date == first.date]

        # the checker audits every portfolio, each written in full once and
        # referenced by date on the lines after it
        _write_run_outputs(out, state, metrics)
        checks = perfbench_module("checks")
        rules = checks.Rules(initial_cash=config.backtest.initial_cash, fee=config.backtest.fee,
                             limit_pct=config.backtest.limit_pct, budget=config.contest.budget)
        report = checks.check_run(out, bars_path, rules)
        assert report.problems == []
        assert report.counts["nav_days_rebuilt"] == len(records)
        portfolios = [r["portfolio"] for r in records if r["portfolio"] is not None]
        assert any(is_portfolio_ref(p) for p in portfolios)
        assert report.counts["portfolios_checked"] == len({p["date"] for p in portfolios})
        assert report.counts["factor_scores_checked"] > 0


# A small gbdt run with the judger on and a training window of 15 days. Its
# ledger's sha256 pins every bit of every fitted model, utility and weight.
# No BLAS call feeds the ledger, so the hash does not depend on the BLAS
# build; it was recorded with numpy 2.4.6 on x86-64. One pin is of the bytes
# as written, the other of the ledger with its portfolio references
# expanded, which is the ledger of a writer that puts the full portfolio
# into every line.
GOLDEN_CONFIG = {
    "seed": 23,
    "data": {"kind": "synthetic", "n_symbols": 8, "n_days": 90, "daily_vol": 0.015,
             "planted": [{"symbol": "SYM000", "start_day": 0, "drift": 0.006},
                         {"symbol": "SYM001", "start_day": 40, "drift": -0.006}]},
    "period": {"train_start": "2024-01-02", "train_end": "2024-01-22",
               "test_start": "2024-01-23"},
    "agents": {
        "data": [{"agent_id": f"d{i}", "skill": 0.7 if i < 2 else 0.0} for i in range(6)],
        "research": [{"agent_id": "r0", "belief": "momentum"},
                     {"agent_id": "r1", "belief": "reversal"},
                     {"agent_id": "r2", "belief": "random"}],
    },
    "contest": {"m": 5, "n_data": 3, "n_research": 5, "budget": 256,
                "predictor": "gbdt", "n_trees": 20},
}
GOLDEN_LEDGER_SHA256 = "49dcdde510bb34ced97843a4f19e603c3504590a3ebaf8da898b727f7a577ef6"
GOLDEN_RAW_LEDGER_SHA256 = "64eebbcae4ea98d566299f4a0e18520703490200fd43b064d25c71b032fd57e8"


def test_golden_ledger_sha256(tmp_path):
    cfg_path = tmp_path / "golden.yaml"
    cfg_path.write_text(yaml.safe_dump(GOLDEN_CONFIG))
    out = tmp_path / "out"
    assert main(["backtest", str(cfg_path), "--output-dir", str(out)]) == 0
    ledger = (out / "ledger.jsonl").read_bytes()
    records = [json.loads(line) for line in ledger.splitlines()]
    assert {r["model_kinds"].get("data") for r in records} >= {"gbdt"}
    assert {r["model_kinds"].get("research") for r in records} >= {"gbdt"}
    assert hashlib.sha256(ledger).hexdigest() == GOLDEN_RAW_LEDGER_SHA256
    assert hashlib.sha256(expand_portfolio_refs(ledger)).hexdigest() == GOLDEN_LEDGER_SHA256


# The same run's metrics.json, which embeds the config as ``to_dict`` writes
# it. Its rank ICs go through ``np.dot``, so unlike the ledger's hash this one
# holds for the BLAS build it was recorded with (numpy 2.4.6's OpenBLAS 0.3.31).
GOLDEN_METRICS_SHA256 = "be538c3a58bc38ebc5485c2d2cc7230b086ee02d2dcab95a7dd1792fc357e25f"


def test_golden_metrics_sha256(tmp_path):
    cfg_path = tmp_path / "golden.yaml"
    cfg_path.write_text(yaml.safe_dump(GOLDEN_CONFIG))
    out = tmp_path / "out"
    assert main(["backtest", str(cfg_path), "--output-dir", str(out)]) == 0
    metrics = (out / "metrics.json").read_bytes()
    assert hashlib.sha256(metrics).hexdigest() == GOLDEN_METRICS_SHA256


# The golden run under the baseline predictor, which reads only each
# window's mean and std: a change to the gbdt path or to the slope feature
# must leave this hash as it is.
GOLDEN_BASELINE_CONFIG = {**GOLDEN_CONFIG, "contest": {"m": 5, "n_data": 3, "n_research": 5,
                                                      "budget": 256, "predictor": "baseline"}}
GOLDEN_BASELINE_LEDGER_SHA256 = "3a80ba19beb6ad2b6c9395d11c6b8c4075f1da914381984e785d302395a39840"
GOLDEN_BASELINE_RAW_LEDGER_SHA256 = \
    "eddd404ef3e98a75f384b36366a9c33dee9c4167983e172c10c9622d2c085080"


def test_golden_baseline_ledger_sha256(tmp_path):
    cfg_path = tmp_path / "golden-baseline.yaml"
    cfg_path.write_text(yaml.safe_dump(GOLDEN_BASELINE_CONFIG))
    out = tmp_path / "out"
    assert main(["backtest", str(cfg_path), "--output-dir", str(out)]) == 0
    ledger = (out / "ledger.jsonl").read_bytes()
    assert hashlib.sha256(ledger).hexdigest() == GOLDEN_BASELINE_RAW_LEDGER_SHA256
    assert hashlib.sha256(expand_portfolio_refs(ledger)).hexdigest() \
        == GOLDEN_BASELINE_LEDGER_SHA256


class TestCmdAblate:
    def test_unknown_variant_exits_2(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.yaml")
        assert main(["ablate", str(cfg_path), "--variant", "bogus"]) == 2

    def test_variant_outputs_comparison(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.yaml")
        assert main(["ablate", str(cfg_path), "--variant", "no_judger"]) == 0
        payload = json.loads(
            (tmp_path / "out" / "ablation_no_judger.json").read_text())
        assert payload["variant"] == "no_judger"
        assert "CR" in payload["full"] and "CR" in payload["ablated"]
        table = (tmp_path / "out" / "ablation_no_judger.txt").read_text()
        assert "Configuration" in table and "w/o no_judger" in table

    def test_none_all_collapses_on_planted_market(self, tmp_path):
        # with every contest mechanism removed, a market with a planted
        # trend and planted reader skill should pay out visibly less
        cfg_path = write_config(
            tmp_path / "run.yaml",
            seed=13,
            data={"kind": "synthetic", "n_symbols": 8, "n_days": 150,
                  "daily_vol": 0.008,
                  "planted": [{"symbol": "SYM000", "start_day": 0, "drift": 0.01}]},
            agents={
                "data": [
                    {"kind": "synthetic", "agent_id": f"d{i:02d}",
                     "skill": 1.0 if i < 3 else 0.0}
                    for i in range(8)
                ],
                "research": [
                    {"kind": "synthetic", "agent_id": "r00", "belief": "momentum"},
                    {"kind": "synthetic", "agent_id": "r01", "belief": "random"},
                    {"kind": "synthetic", "agent_id": "r02", "belief": "random"},
                ],
            },
        )
        assert main(["ablate", str(cfg_path), "--variant", "none_all"]) == 0
        payload = json.loads(
            (tmp_path / "out" / "ablation_none_all.json").read_text())
        assert payload["ablated"]["CR"] < payload["full"]["CR"]

    def test_zero_research_agents_exits_2(self, tmp_path):
        cfg_path = write_config(
            tmp_path / "run.yaml",
            agents={"data": [{"kind": "synthetic", "agent_id": "d00"}],
                    "research": []},
        )
        assert main(["backtest", str(cfg_path)]) == 2

    def test_rejected_run_leaves_no_output_dir(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.yaml",
                                period={"test_start": "2024-03-01", "test_end": "2024-03-01"})
        assert main(["ablate", str(cfg_path), "--variant", "no_judger"]) == 2
        assert not (tmp_path / "out").exists()


class TestCmdValidateRic:
    def test_ar1_panel(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.yaml")
        assert main(["validate-ric", str(cfg_path)]) == 0
        payload = json.loads((tmp_path / "out" / "ric_report.json").read_text())
        assert payload["ric_short"] > payload["ric_long"]

    def test_noise_panel(self, tmp_path):
        cfg_path = write_config(
            tmp_path / "run.yaml",
            validate_ric={"source": "panel", "panel": {"kind": "noise"}})
        assert main(["validate-ric", str(cfg_path)]) == 0

    def test_too_short_history_exits_1(self, tmp_path):
        cfg_path = write_config(
            tmp_path / "run.yaml",
            validate_ric={"source": "panel", "panel": {"kind": "ar1", "days": 3}})
        assert main(["validate-ric", str(cfg_path)]) == 1

    def test_ledger_source(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.yaml")
        assert main(["backtest", str(cfg_path)]) == 0
        ledger = tmp_path / "out" / "ledger.jsonl"
        cfg2 = write_config(
            tmp_path / "run2.yaml",
            validate_ric={"source": "ledger", "ledger": str(ledger),
                          "windows": {"m": 5, "n": 3, "M": 10, "N": 6}})
        assert main(["validate-ric", str(cfg2)]) == 0

    def test_missing_ledger_exits_2(self, tmp_path, capsys):
        ledger = tmp_path / "no-such-ledger.jsonl"
        cfg_path = write_config(tmp_path / "run.yaml",
                                validate_ric={"source": "ledger", "ledger": str(ledger)})
        assert main(["validate-ric", str(cfg_path)]) == 2
        assert f"validate_ric.ledger: file not found: {ledger}" in capsys.readouterr().err

    def test_rejected_run_leaves_no_output_dir(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.yaml",
                                validate_ric={"source": "ledger", "ledger": ""})
        assert main(["validate-ric", str(cfg_path)]) == 2
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, out_flag, out, reason", [
    ("backtest", "--output-dir", "a-file/run", "Not a directory"),
    ("ablate", "--output-dir", "a-file/run", "Not a directory"),
    ("validate-ric", "--output-dir", "a-file/run", "Not a directory"),
    ("gen-data", "--out", "no/such/dir/x.csv", "No such file or directory"),
])
def test_output_path_the_os_refuses_exits_1(tmp_path, capsys, command, out_flag, out, reason):
    cfg_path = write_config(tmp_path / "run.yaml")
    (tmp_path / "a-file").write_text("")
    extra = ["--variant", "no_judger"] if command == "ablate" else []
    out_path = tmp_path / out
    assert main([command, str(cfg_path), out_flag, str(out_path), *extra]) == 1
    assert capsys.readouterr().err == f"error: {out_path}: {reason}\n"


class TestGenDataAndReport:
    def test_gen_data_round_trip(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.yaml")
        out_csv = tmp_path / "market.csv"
        assert main(["gen-data", str(cfg_path), "--out", str(out_csv)]) == 0
        from tradecontest.market import ingest_csv

        store = ingest_csv(out_csv)
        assert len(store.calendar) == 70
        assert len(store.symbols) == 6

    def test_report_recomputes_metrics(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "run.yaml")
        assert main(["backtest", str(cfg_path)]) == 0
        original = json.loads((tmp_path / "out" / "metrics.json").read_text())
        capsys.readouterr()  # drop the backtest status line
        assert main(["report", str(tmp_path / "out")]) == 0
        reported = json.loads(capsys.readouterr().out)
        assert reported["CR"] == pytest.approx(original["CR"], abs=1e-12)
        assert reported["RankIC"] == pytest.approx(original["RankIC"], abs=1e-12)
        assert reported == original

    def test_report_on_empty_dir_exits_1(self, tmp_path):
        assert main(["report", str(tmp_path)]) == 1


def truncate_last_line(path: Path) -> None:
    path.write_bytes(path.read_bytes()[:-20])


def repeat_a_line(path: Path) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:3] + lines[2:]))


@pytest.mark.parametrize("command, name, damage, where", [
    ("report", "nav.csv", lambda p: p.write_text(""), "nav.csv: 0 nav row(s); need at least 2"),
    ("report", "nav.csv", lambda p: p.write_text("date,nav\n2024-04-01,1000000.0\n"),
     "nav.csv: 1 nav row(s); need at least 2"),
    ("report", "nav.csv", lambda p: p.write_text("date,nav\n2024-04-01\n"),
     "nav.csv:2: expected date,nav"),
    ("report", "ledger.jsonl", truncate_last_line, "ledger.jsonl:59: not valid JSON"),
    ("report", "metrics.json", lambda p: p.write_text("{\"CR\": 0.1,\n"),
     "metrics.json:2: not valid JSON"),
    ("validate-ric", "ledger.jsonl", repeat_a_line,
     "ledger.jsonl:4: ValueError: d00: dates must be strictly increasing"),
    ("validate-ric", "ledger.jsonl", truncate_last_line, "ledger.jsonl:59: not valid JSON"),
    ("report", "ledger.jsonl", replace_with_a_directory, "ledger.jsonl: Is a directory"),
    ("report", "nav.csv", replace_with_a_directory, "nav.csv: Is a directory"),
    ("report", "metrics.json", replace_with_a_directory, "metrics.json: Is a directory"),
    ("report", "ledger.jsonl", append_a_0xff_byte, "ledger.jsonl: not valid UTF-8"),
    ("report", "nav.csv", append_a_0xff_byte, "nav.csv: not valid UTF-8"),
    ("report", "metrics.json", append_a_0xff_byte, "metrics.json: not valid UTF-8"),
    ("validate-ric", "ledger.jsonl", append_a_0xff_byte, "ledger.jsonl: not valid UTF-8"),
], ids=["nav-empty", "nav-one-row", "nav-short-row", "ledger-truncated", "metrics-unparsable",
        "ric-ledger-repeated-line", "ric-ledger-truncated", "ledger-a-directory",
        "nav-a-directory", "metrics-a-directory", "ledger-not-utf8", "nav-not-utf8",
        "metrics-not-utf8", "ric-ledger-not-utf8"])
def test_malformed_run_file_exits_1(tmp_path, capsys, command, name, damage, where):
    cfg_path = write_config(tmp_path / "run.yaml")
    assert main(["backtest", str(cfg_path)]) == 0
    out = tmp_path / "out"
    damage(out / name)
    capsys.readouterr()
    if command == "report":
        assert main(["report", str(out)]) == 1
    else:
        ric_cfg = write_config(tmp_path / "ric.yaml", validate_ric={
            "source": "ledger", "ledger": str(out / name),
            "windows": {"m": 5, "n": 3, "M": 10, "N": 6}})
        assert main(["validate-ric", str(ric_cfg)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and str(out / name) in line and where in line
