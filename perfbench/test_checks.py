"""Tests for checks.py: a hand-made run passes, and each tampering is caught.

Run with: python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import json
import math
import statistics

import pytest

import checks

DAYS = ["2024-01-01", "2024-01-02", "2024-01-03", "2024-01-04", "2024-01-05"]
CLOSES = {  # A is locked limit-up on 2024-01-03 (+10%)
    "A": [10.0, 10.5, 11.55, 11.0, 11.2],
    "B": [20.0, 19.0, 19.5, 20.0, 20.5],
}
FEE = 0.001
RULES = checks.Rules(initial_cash=1_000_000.0, fee=FEE, limit_pct=0.10, budget=100)


def _close(sym, day):
    return CLOSES[sym][DAYS.index(day)]


def _fill(day, sym, side, shares):
    price = _close(sym, day)
    value = shares * price
    return {"date": day, "symbol": sym, "side": side, "shares": shares,
            "price": price, "value": value, "cost": FEE * value}


def _navs(fills):
    cash, held, out = RULES.initial_cash, {}, []
    for day in DAYS[1:]:
        for f in fills:
            if f["date"] == day:
                sign = 1 if f["side"] == "buy" else -1
                held[f["symbol"]] = held.get(f["symbol"], 0.0) + sign * f["shares"]
                cash -= sign * f["value"] + f["cost"]
        out.append((day, cash + sum(n * _close(s, day) for s, n in held.items())))
    return out


def _metrics(navs):
    values = [v for _, v in navs]
    rets = [b / a - 1 for a, b in zip(values, values[1:])]
    peaks = [max(values[: i + 1]) for i in range(len(values))]
    return {"CR": values[-1] / values[0] - 1,
            "SR": statistics.mean(rets) / statistics.pstdev(rets) * math.sqrt(252),
            "MDD": max((p - v) / p for p, v in zip(peaks, values))}


def _ledger():
    factor = {"date": DAYS[1], "token_length": 7, "observations": [
        {"text": "B firm, A soft", "rated_symbols": [["B", 2], ["A", -1]]}]}
    portfolio = {"date": DAYS[1], "total_tokens": 7, "total_utility": 0.5,
                 "selected": [{"agent_id": "d1", "factor": factor}]}
    score = 2 * (_close("B", DAYS[2]) / _close("B", DAYS[1]) - 1) \
        - (_close("A", DAYS[2]) / _close("A", DAYS[1]) - 1)
    weights = {"r1": 0.75, "r2": 0.25}
    records = []
    for day in DAYS[1:]:
        second = {"agent_id": "r2", "symbol": "A", "action": "buy"} if day == DAYS[3] \
            else {"agent_id": "r2", "symbol": "CASH", "action": "hold"}
        signals = [{"agent_id": "r1", "symbol": "B", "action": "buy"}, second]
        target = {"B": 0.75, "A": 0.25} if day == DAYS[3] else {"B": 0.75}
        records.append({
            "date": day, "absent": [], "portfolio": portfolio, "weights": weights,
            "signals": signals, "target_weights": target,
            "data_rebalance": day == DAYS[1],
            "data_utilities": {"d1": 0.5, "d2": -0.1} if day == DAYS[1] else {},
            "factor_scores": {"d1": score} if day == DAYS[2] else {},
        })
    return records


def write_run(tmp_path, fills=None, navs=None, ledger=None, closes=None):
    fills = fills if fills is not None else [
        _fill(DAYS[1], "B", "buy", 1000.0),
        _fill(DAYS[3], "B", "sell", 500.0),
        _fill(DAYS[3], "A", "buy", 100.0),
    ]
    navs = navs if navs is not None else _navs(fills)
    ledger = ledger if ledger is not None else _ledger()
    closes = closes if closes is not None else CLOSES
    with open(tmp_path / "bars.csv", "w") as fh:
        fh.write("date,symbol,open,high,low,close,volume\n")
        for sym, series in closes.items():
            for day, c in zip(DAYS, series):
                fh.write(f"{day},{sym},{c!r},{c!r},{c!r},{c!r},100\n")
    with open(tmp_path / "fills.csv", "w") as fh:
        fh.write("date,symbol,side,shares,price,value,cost\n")
        for f in fills:
            fh.write(",".join(repr(f[k]) if isinstance(f[k], float) else f[k]
                              for k in ("date", "symbol", "side", "shares", "price",
                                        "value", "cost")) + "\n")
    with open(tmp_path / "nav.csv", "w") as fh:
        fh.write("date,nav\n")
        for day, v in navs:
            fh.write(f"{day},{v!r}\n")
    (tmp_path / "metrics.json").write_text(json.dumps(_metrics(navs)))
    with open(tmp_path / "ledger.jsonl", "w") as fh:
        for rec in ledger:
            fh.write(json.dumps(rec) + "\n")
    return checks.check_run(tmp_path, tmp_path / "bars.csv", RULES)


def _assert_caught(report, fragment):
    assert report.problems, "the tampering went unnoticed"
    assert any(fragment in p for p in report.problems), report.problems


def test_clean_run_passes(tmp_path):
    report = write_run(tmp_path)
    assert report.problems == []
    assert report.counts["fills_replayed"] == 3
    assert report.counts["factor_scores_checked"] == 1
    assert report.counts["nav_days_rebuilt"] == 4


def test_buy_at_limit_up_close(tmp_path):
    fills = [_fill(DAYS[1], "B", "buy", 1000.0), _fill(DAYS[2], "A", "buy", 10.0)]
    report = write_run(tmp_path, fills=fills)
    _assert_caught(report, "locked limit")


def test_limit_up_buy_on_first_day_fails_and_names_the_fault(tmp_path):
    closes = dict(CLOSES, B=[17.27] + CLOSES["B"][1:])  # B opens the window +10%
    report = write_run(tmp_path, closes=closes)
    _assert_caught(report, "locked limit")
    assert len(report.problems) == 1
    assert "first evaluation day" in report.problems[0]
    assert "apply_day" in report.problems[0]


def test_sale_of_same_day_shares(tmp_path):
    fills = [_fill(DAYS[1], "B", "buy", 1000.0), _fill(DAYS[3], "A", "buy", 100.0),
             _fill(DAYS[3], "A", "sell", 50.0)]
    report = write_run(tmp_path, fills=fills)
    _assert_caught(report, "settled before the day")


def test_changed_nav(tmp_path):
    navs = _navs([_fill(DAYS[1], "B", "buy", 1000.0), _fill(DAYS[3], "B", "sell", 500.0),
                  _fill(DAYS[3], "A", "buy", 100.0)])
    navs[2] = (navs[2][0], navs[2][1] + 5.0)
    report = write_run(tmp_path, navs=navs)
    _assert_caught(report, "rebuilt NAV")


def test_factor_score_off_by_one_rating(tmp_path):
    ledger = _ledger()
    ledger[0]["portfolio"]["selected"][0]["factor"]["observations"][0]["rated_symbols"][0][1] = 3
    report = write_run(tmp_path, ledger=ledger)
    _assert_caught(report, "bars give")


def test_portfolio_over_budget(tmp_path):
    ledger = _ledger()
    portfolio = ledger[0]["portfolio"]
    portfolio["selected"][0]["factor"]["token_length"] = 150
    portfolio["total_tokens"] = 150
    report = write_run(tmp_path, ledger=ledger)
    _assert_caught(report, "over budget")


def test_target_weights_must_follow_capital(tmp_path):
    ledger = _ledger()
    ledger[1]["target_weights"] = {"B": 1.0}
    report = write_run(tmp_path, ledger=ledger)
    _assert_caught(report, "capital of buyers")


@pytest.mark.parametrize("key", ["CR", "SR", "MDD"])
def test_changed_headline_metric(tmp_path, key):
    report = write_run(tmp_path)
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    metrics[key] += 0.01
    (tmp_path / "metrics.json").write_text(json.dumps(metrics))
    report = checks.check_run(tmp_path, tmp_path / "bars.csv", RULES)
    _assert_caught(report, f"metrics.json {key}")
