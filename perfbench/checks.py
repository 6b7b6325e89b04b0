"""Independent checks of one backtest run directory.

Written apart from the program: only the standard library, and only the
files the run wrote (ledger.jsonl, nav.csv, fills.csv, metrics.json) plus
the bars it traded on. Each check re-derives a figure from first
principles and compares it with what the program reported.

Exchange rules replayed here, as the program documents them: fills at the
day's close; a proportional fee on both sides; shares bought on day t may
be sold from t+1 on; no buy when the close sits at the upper move limit
and no sell at the lower one, judged against the previous trading day's
close; no shorting.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

# A close within this distance of the move limit counts as locked; it is
# the exchange rule's own tolerance, not a numerical one.
LOCK_TOLERANCE = 5e-4
ANNUALIZATION = math.sqrt(252.0)
REL_TOL = 1e-9
ABS_TOL = 1e-9
# A known fault of the program, named in the message when it shows: the
# backtest starts with no previous closes on record, so apply_day cannot
# apply the move-limit rule on the first evaluation day.
FIRST_DAY_FAULT = (" on the first evaluation day (known fault: backtest.apply_day"
                   " has no previous close yet and skips the move-limit rule)")


@dataclass(frozen=True)
class Rules:
    initial_cash: float
    fee: float
    limit_pct: float
    budget: int


@dataclass
class Report:
    problems: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    @property
    def ok(self) -> bool:
        return not self.problems


def _close(a: float, b: float, rel: float = REL_TOL, abs_: float = ABS_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


def read_bars(path: Path) -> dict[str, dict[str, float]]:
    """symbol -> ISO date -> close."""
    closes: dict[str, dict[str, float]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            closes.setdefault(row["symbol"], {})[row["date"]] = float(row["close"])
    return closes


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_ledger(path: Path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_run(run_dir: Path, bars_path: Path, rules: Rules) -> Report:
    run_dir = Path(run_dir)
    report = Report()
    closes = read_bars(bars_path)
    calendar = sorted({d for by_date in closes.values() for d in by_date})
    nav_rows = _read_csv(run_dir / "nav.csv")
    navs = [(r["date"], float(r["nav"])) for r in nav_rows]
    fills = _read_csv(run_dir / "fills.csv")
    ledger = _read_ledger(run_dir / "ledger.jsonl")
    with open(run_dir / "metrics.json") as fh:
        metrics = json.load(fh)

    if [r["date"] for r in ledger] != [d for d, _ in navs]:
        report.problems.append("ledger and nav.csv cover different days")
    check_metrics(navs, metrics, report)
    replay_fills(navs, fills, closes, calendar, rules, report)
    check_factor_scores(ledger, closes, calendar, report)
    check_portfolios(ledger, rules, report)
    check_weights(ledger, report)
    return report


def check_metrics(navs, metrics: dict, report: Report) -> None:
    """CR, SR and MDD recomputed from the NAV path."""
    values = [v for _, v in navs]
    if len(values) < 2:
        report.problems.append("nav.csv has fewer than two days")
        return
    rets = [b / a - 1.0 for a, b in zip(values, values[1:])]
    mean = math.fsum(rets) / len(rets)
    std = math.sqrt(math.fsum((r - mean) ** 2 for r in rets) / len(rets))
    expected = {
        "CR": values[-1] / values[0] - 1.0,
        "SR": 0.0 if std == 0.0 else mean / std * ANNUALIZATION,
        "MDD": 0.0,
    }
    peak = values[0]
    for v in values:
        peak = max(peak, v)
        expected["MDD"] = max(expected["MDD"], (peak - v) / peak)
    for key, want in expected.items():
        got = metrics.get(key)
        if not isinstance(got, (int, float)) or not _close(got, want, rel=1e-7, abs_=1e-12):
            report.problems.append(f"metrics.json {key} is {got!r}, nav.csv gives {want!r}")
        report.count("metrics_checked")


def _prev_close(closes, calendar_index, calendar, symbol, date):
    i = calendar_index[date]
    for j in range(i - 1, -1, -1):
        c = closes[symbol].get(calendar[j])
        if c is not None:
            return c
    return None


def replay_fills(navs, fills, closes, calendar, rules: Rules, report: Report) -> None:
    """Rebuild cash, holdings and NAV day by day from fills.csv and the bars."""
    calendar_index = {d: i for i, d in enumerate(calendar)}
    by_day: dict[str, list[dict]] = {}
    for f in fills:
        by_day.setdefault(f["date"], []).append(f)
    eval_days = [d for d, _ in navs]
    strays = set(by_day) - set(eval_days)
    if strays:
        report.problems.append(f"fills dated outside the evaluation days: {sorted(strays)[:3]}")

    lock = rules.limit_pct - LOCK_TOLERANCE
    cash = rules.initial_cash
    settled: dict[str, float] = {}
    unsettled: dict[str, float] = {}  # bought today, sellable from tomorrow
    marks: dict[str, float] = {}
    for k, (day, nav) in enumerate(navs):
        for sym, shares in unsettled.items():
            settled[sym] = settled.get(sym, 0.0) + shares
        unsettled = {}
        for f in by_day.get(day, []):
            report.count("fills_replayed")
            sym, side = f["symbol"], f["side"]
            shares, price = float(f["shares"]), float(f["price"])
            value, cost = float(f["value"]), float(f["cost"])
            where = f"fill {day} {side} {sym}"
            bar_close = closes.get(sym, {}).get(day)
            if bar_close is None:
                report.problems.append(f"{where}: no bar that day")
                continue
            if price != bar_close:
                report.problems.append(f"{where}: price {price!r} is not the close {bar_close!r}")
            if shares <= 0 or not _close(value, shares * price):
                report.problems.append(f"{where}: value {value!r} != shares x price")
            if not _close(cost, rules.fee * value, rel=1e-12, abs_=1e-12):
                report.problems.append(f"{where}: cost {cost!r} != fee x value")
            prev = _prev_close(closes, calendar_index, calendar, sym, day)
            move = None if prev is None else bar_close / prev - 1.0
            locked = move is not None and (move >= lock if side == "buy" else move <= -lock)
            if locked:
                msg = f"{where}: filled at a locked limit (move {move:+.4f})"
                if k == 0:
                    msg += FIRST_DAY_FAULT
                report.problems.append(msg)
            if side == "sell":
                have = settled.get(sym, 0.0)
                if shares > have * (1 + 1e-9) + 1e-9:
                    report.problems.append(
                        f"{where}: sells {shares!r} shares, {have!r} settled before the day")
                settled[sym] = max(0.0, have - shares)
                cash += value - cost
            elif side == "buy":
                unsettled[sym] = unsettled.get(sym, 0.0) + shares
                cash -= value + cost
            else:
                report.problems.append(f"{where}: unknown side")
        if cash < -1e-6:
            report.problems.append(f"{day}: rebuilt cash is negative ({cash!r})")
        held = set(settled) | set(unsettled)
        for sym in held:
            c = closes.get(sym, {}).get(day)
            if c is not None:
                marks[sym] = c
        rebuilt = cash + math.fsum(
            (settled.get(s, 0.0) + unsettled.get(s, 0.0)) * marks[s] for s in held)
        if not _close(rebuilt, nav, rel=1e-9, abs_=1e-6):
            report.problems.append(f"{day}: rebuilt NAV {rebuilt!r} != nav.csv {nav!r}")
        report.count("nav_days_rebuilt")


def _next_day(calendar, calendar_index, day):
    i = calendar_index.get(day)
    if i is None or i + 1 >= len(calendar):
        return None
    return calendar[i + 1]


def check_factor_scores(ledger, closes, calendar, report: Report) -> None:
    """Each scored factor in a portfolio equals sum(rating x next-day return)."""
    calendar_index = {d: i for i, d in enumerate(calendar)}
    by_date = {r["date"]: r for r in ledger}
    seen = set()
    for record in ledger:
        portfolio = record.get("portfolio") or {}
        for item in portfolio.get("selected", []):
            factor = item.get("factor")
            if factor is None or (item["agent_id"], factor["date"]) in seen:
                continue
            seen.add((item["agent_id"], factor["date"]))
            nxt = _next_day(calendar, calendar_index, factor["date"])
            scored = by_date.get(nxt) if nxt else None
            if scored is None:
                continue  # scored before the evaluation window or after it
            score = scored["factor_scores"].get(item["agent_id"])
            if score is None:
                if item["agent_id"] not in scored.get("absent", []):
                    report.problems.append(
                        f"{nxt}: no score for {item['agent_id']}'s {factor['date']} factor")
                continue
            try:
                want = 0.0
                for obs in factor["observations"]:
                    for sym, rating in obs["rated_symbols"]:
                        want += rating * (closes[sym][nxt] / closes[sym][factor["date"]] - 1.0)
            except KeyError as exc:
                report.problems.append(f"{nxt}: {item['agent_id']} rated {exc} with no bar")
                continue
            if not _close(score, want, rel=1e-9, abs_=1e-12):
                report.problems.append(
                    f"{nxt}: {item['agent_id']} scored {score!r}, bars give {want!r}")
            report.count("factor_scores_checked")


def check_portfolios(ledger, rules: Rules, report: Report) -> None:
    """Token budget, token totals, and positive utility of every pick."""
    by_date = {r["date"]: r for r in ledger}
    seen = set()
    for record in ledger:
        portfolio = record.get("portfolio")
        if portfolio is None or portfolio["date"] in seen:
            continue
        seen.add(portfolio["date"])
        where = f"portfolio of {portfolio['date']}"
        tokens = sum(item["factor"]["token_length"] for item in portfolio["selected"]
                     if item.get("factor") is not None)
        if portfolio["total_tokens"] > rules.budget:
            report.problems.append(
                f"{where}: {portfolio['total_tokens']} tokens over budget {rules.budget}")
        if portfolio["total_tokens"] != tokens:
            report.problems.append(
                f"{where}: total_tokens {portfolio['total_tokens']} != sum of factors {tokens}")
        chosen_on = by_date.get(portfolio["date"])
        if chosen_on is not None and chosen_on.get("data_rebalance"):
            utilities = chosen_on.get("data_utilities") or {}
            for item in portfolio["selected"]:
                u = utilities.get(item["agent_id"])
                if u is None or not u > 0:
                    report.problems.append(
                        f"{where}: picked {item['agent_id']} with utility {u!r}")
        report.count("portfolios_checked")


def check_weights(ledger, report: Report) -> None:
    """Capital weights and the target weights they imply, every day."""
    for record in ledger:
        day = record["date"]
        weights = record.get("weights")
        if weights is not None:
            total = math.fsum(weights.values())
            if any(w < 0 for w in weights.values()):
                report.problems.append(f"{day}: negative capital weight")
            if not (_close(total, 1.0) or total == 0.0):
                report.problems.append(f"{day}: capital weights sum to {total!r}")
        target = record.get("target_weights") or {}
        if any(w < 0 for w in target.values()):
            report.problems.append(f"{day}: negative target weight")
        if math.fsum(target.values()) > 1.0 + 1e-9:
            report.problems.append(f"{day}: target weights sum above 1")
        want: dict[str, float] = {}
        for s in record.get("signals", []):
            w = (weights or {}).get(s["agent_id"], 0.0)
            if s["action"] == "buy" and w > 0:
                want[s["symbol"]] = want.get(s["symbol"], 0.0) + w
        if set(want) != set(target) or any(not _close(target[s], want[s]) for s in want):
            report.problems.append(f"{day}: target weights {target} != capital of buyers {want}")
        report.count("weight_days_checked")
