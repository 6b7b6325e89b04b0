"""Command-line driver: backtest, ablate, validate-ric, gen-data, report.

Exit codes: 0 success, 1 runtime/data failure, 2 invalid configuration.
The output directory comes from the config file, overridable by the
TRADECONTEST_OUTPUT_DIR environment variable and then by --output-dir.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import datetime as dt
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .backtest import apply_day, compute_metrics, new_state, rank_ic_summary
from .engine import IC_FIELDS, contest_ic_pairs, run_full
from .errors import ConfigurationError, TradeContestError
from .market import write_csv
from .prediction import ar1_score_panel, validate_momentum
from .seeding import child_seed

ABLATION_VARIANTS = {
    "no_judger": {"no_judger": True},
    "no_research_contest": {"no_research_contest": True},
    "no_data_contest": {"no_data_contest": True},
    "no_deep_inputs": {"no_deep_inputs": True},
    "none_all": {"no_data_contest": True, "no_research_contest": True,
                 "no_deep_inputs": True},
}


def _resolve_output_dir(config, cli_override: str | None) -> Path:
    """The output directory's path; it is created only before a file is
    written to it, so a rejected run leaves none behind."""
    return Path(cli_override or os.environ.get("TRADECONTEST_OUTPUT_DIR") or config.output_dir)


def run_contest_backtest(config: cfgmod.RunConfig, ledger_path: Path | None = None,
                         **contest_overrides):
    """Run the contest and the backtest; returns (state, metrics).

    Each evaluation day is contested, applied and, with ``ledger_path``,
    written there (its portfolio in full only on the first line that
    carries it) before the next day runs. Of each day, only the fields
    that ``contest_ic_pairs`` reads are kept for the metrics.
    """
    store = cfgmod.build_store(config)
    data_agents, research_agents = cfgmod.build_agents(config)
    ccfg = cfgmod.contest_config(config, store, **contest_overrides)
    try:
        state = new_state(config.backtest.initial_cash)
    except ValueError as exc:
        raise ConfigurationError(f"backtest: {exc}") from exc
    records = run_full(
        ccfg, store, data_agents, research_agents,
        eval_start=config.period.test_start, eval_end=config.period.test_end,
    )
    ic_records = []
    prev_portfolio_date = None
    if ledger_path:
        ledger_path.parent.mkdir(parents=True, exist_ok=True)
    with contextlib.closing(records), \
            open(ledger_path, "w") if ledger_path else contextlib.nullcontext() as ledger:
        for record in records:
            if not ic_records:
                # the move limit of the first evaluation day is measured, as
                # on every later day, from each symbol's last close before it
                for t in store.calendar[:store.day_index(record.date)]:
                    state.prev_closes.update(store.closes(t))
            apply_day(state, record.target_weights, store.closes(record.date), record.date,
                      config.backtest)
            if ledger is not None:
                ledger.write(json.dumps(record.to_dict(prev_portfolio_date), sort_keys=True)
                             + "\n")
                prev_portfolio_date = None if record.portfolio is None \
                    else record.portfolio.date
            ic_records.append({k: getattr(record, k) for k in IC_FIELDS})
    navs = [(day.date, day.nav_post) for day in state.days]
    return state, _metrics_dict(config, navs, ic_records)


def _metrics_dict(config, nav_history, record_dicts) -> dict:
    """metrics.json: strategy metrics plus both contests' rank ICs, the data
    team's under unsuffixed keys."""
    base = compute_metrics(nav_history)
    out = {"CR": base.cumulative_return, "SR": base.sharpe, "MDD": base.max_drawdown}
    flags = set(base.flags)
    for side, horizon, suffix in (("data", config.contest.n_data, ""),
                                  ("research", config.contest.n_research, "_research")):
        ics, mean_ic, icir, ic_flags = rank_ic_summary(
            *contest_ic_pairs(record_dicts, horizon, side))
        out |= {f"RankIC{suffix}": mean_ic, f"ICIR{suffix}": icir,
                f"rank_ic_series{suffix}": list(ics)}
        flags.update(ic_flags)
    return out | {
        "flags": sorted(flags),
        "eval_start": nav_history[0][0].isoformat(),
        "eval_end": nav_history[-1][0].isoformat(),
        "n_days": len(nav_history),
        "final_nav": nav_history[-1][1],
        "seed": config.seed,
        "config": cfgmod.to_dict(config),
    }


def _write_run_outputs(out_dir: Path, state, metrics) -> None:
    """nav.csv, fills.csv and metrics.json; the ledger is written as the run goes."""
    with open(out_dir / "nav.csv", "w") as fh:
        fh.write("date,nav\n")
        for day in state.days:
            fh.write(f"{day.date.isoformat()},{day.nav_post!r}\n")
    with open(out_dir / "fills.csv", "w") as fh:
        fh.write("date,symbol,side,shares,price,value,cost\n")
        for f in state.fills:
            fh.write(f"{f.date.isoformat()},{f.symbol},{f.side},"
                     f"{f.shares!r},{f.price!r},{f.value!r},{f.cost!r}\n")
    with open(out_dir / "metrics.json", "w") as fh:
        json.dump(metrics, fh, sort_keys=True, indent=2)
        fh.write("\n")


def cmd_backtest(config_path: str, output_dir: str | None = None) -> int:
    config = cfgmod.load_config(config_path)
    out_dir = _resolve_output_dir(config, output_dir)
    state, metrics = run_contest_backtest(config, out_dir / "ledger.jsonl")
    _write_run_outputs(out_dir, state, metrics)
    print(f"backtest complete: {metrics['n_days']} days, "
          f"CR {metrics['CR']:+.2%}, SR {metrics['SR']:.2f}, "
          f"MDD {metrics['MDD']:.2%} -> {out_dir}")
    return 0


def _ablation_row(name: str, metrics: dict) -> str:
    return (f"{name:<22} | {metrics['CR'] * 100:>8.2f} | {metrics['SR']:>6.2f} "
            f"| {metrics['MDD'] * 100:>7.2f}")


def cmd_ablate(config_path: str, variant: str, output_dir: str | None = None) -> int:
    if variant not in ABLATION_VARIANTS:
        raise ConfigurationError(
            f"unknown ablation variant {variant!r}; pick from {sorted(ABLATION_VARIANTS)}"
        )
    config = cfgmod.load_config(config_path)
    out_dir = _resolve_output_dir(config, output_dir)
    _, full_metrics = run_contest_backtest(config)
    _, variant_metrics = run_contest_backtest(config, **ABLATION_VARIANTS[variant])
    table = "\n".join([
        f"{'Configuration':<22} |   CR (%) |     SR | MDD (%)",
        _ablation_row("full", full_metrics),
        _ablation_row(f"w/o {variant}", variant_metrics),
    ])
    payload = {
        "variant": variant,
        "full": full_metrics,
        "ablated": variant_metrics,
        "delta_CR": variant_metrics["CR"] - full_metrics["CR"],
        "delta_SR": variant_metrics["SR"] - full_metrics["SR"],
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"ablation_{variant}.json", "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(out_dir / f"ablation_{variant}.txt", "w") as fh:
        fh.write(table + "\n")
    print(table)
    return 0


@contextlib.contextmanager
def _run_file(path):
    """``path`` opened to read as UTF-8; a missing file, a directory or bytes
    that are not UTF-8 are an error naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise TradeContestError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise TradeContestError(f"{path}: not valid UTF-8") from None


def _ledger_lines(path):
    """(line number, record) of each non-blank line of a ledger; a line that
    is not a JSON object is an error naming the file and the line."""
    with _run_file(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TradeContestError(f"{path}:{line_no}: not valid JSON ({exc.msg})") from None
            if not isinstance(record, dict):
                raise TradeContestError(f"{path}:{line_no}: not a JSON object")
            yield line_no, record


def _panel_from_ledger(path: str) -> np.ndarray:
    """A ledger's factor scores as an (agents, days) array: agents sorted,
    on the days on which every agent has a score."""
    scores: dict[str, dict[dt.date, float]] = {}
    for line_no, rec in _ledger_lines(path):
        try:
            day = dt.date.fromisoformat(rec["date"])
            for agent_id, score in rec.get("factor_scores", {}).items():
                series, value = scores.setdefault(agent_id, {}), float(score)
                if series and day <= next(reversed(series)):
                    raise ValueError(f"{agent_id}: dates must be strictly increasing")
                series[day] = value
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise TradeContestError(f"{path}:{line_no}: {type(exc).__name__}: {exc}") from None
    common = sorted(set.intersection(*map(set, scores.values()))) if scores else []
    return np.array([[scores[a][d] for d in common] for a in sorted(scores)], dtype=np.float64)


def cmd_validate_ric(config_path: str, output_dir: str | None = None) -> int:
    config = cfgmod.load_config(config_path)
    out_dir = _resolve_output_dir(config, output_dir)
    ric = config.validate_ric
    m, n, M, N = ric.windows.m, ric.windows.n, ric.windows.M, ric.windows.N
    if ric.source == "ledger":
        if not ric.ledger:
            raise ConfigurationError("validate_ric.ledger: path required when source is ledger")
        if os.path.isdir(ric.ledger):
            raise ConfigurationError(f"validate_ric.ledger: is a directory: {ric.ledger}")
        if not os.path.isfile(ric.ledger):
            raise ConfigurationError(f"validate_ric.ledger: file not found: {ric.ledger}")
        panel = _panel_from_ledger(ric.ledger)
    else:
        phi = ric.panel.phi if ric.panel.kind == "ar1" else 0.0
        panel = ar1_score_panel(ric.panel.agents, ric.panel.days, phi,
                                seed=child_seed(config.seed, "ric-panel"))
    report = validate_momentum(panel, m, n, M, N)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "ric_report.json", "w") as fh:
        json.dump(dataclasses.asdict(report) | {"seed": config.seed}, fh, sort_keys=True,
                  indent=2)
        fh.write("\n")
    print(f"rank IC (m={m}, n={n}): {report.ric_short:+.4f}   "
          f"(M={M}, N={N}): {report.ric_long:+.4f}   "
          f"difference: {report.difference:+.4f}")
    return 0


def cmd_gen_data(config_path: str, out_file: str) -> int:
    config = cfgmod.load_config(config_path)
    if config.data.kind != "synthetic":
        raise ConfigurationError("gen-data requires data.kind = synthetic")
    store = cfgmod.build_store(config)
    write_csv(store, out_file)
    print(f"wrote {len(store.calendar)} days x {len(store.symbols)} symbols to {out_file}")
    return 0


def cmd_report(run_dir: str) -> int:
    run = Path(run_dir)
    ledger_path = run / "ledger.jsonl"
    nav_path = run / "nav.csv"
    record_dicts = [record for _, record in _ledger_lines(ledger_path)]
    nav_history = []
    with _run_file(nav_path) as fh:
        next(fh, None)  # the header
        for line_no, line in enumerate(fh, start=2):
            try:
                date_str, nav_str = line.strip().split(",")
                nav_history.append((dt.date.fromisoformat(date_str), float(nav_str)))
            except ValueError:
                raise TradeContestError(
                    f"{nav_path}:{line_no}: expected date,nav, got {line.strip()!r}") from None
    if len(nav_history) < 2:
        raise TradeContestError(f"{nav_path}: {len(nav_history)} nav row(s); need at least 2")
    # the run's own config gives the contest horizons; without one, the defaults
    config_dict = {}
    metrics_path = run / "metrics.json"
    if metrics_path.exists():
        try:
            with _run_file(metrics_path) as fh:
                config_dict = json.load(fh).get("config") or {}
        except json.JSONDecodeError as exc:
            raise TradeContestError(
                f"{metrics_path}:{exc.lineno}: not valid JSON ({exc.msg})") from None
        except AttributeError:
            raise TradeContestError(f"{metrics_path}: not a JSON object") from None
    metrics = _metrics_dict(cfgmod.from_dict(config_dict), nav_history, record_dicts)
    print(json.dumps(metrics, sort_keys=True, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tradecontest",
        description="Deterministic multi-agent trading contest engine and backtester",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_back = sub.add_parser("backtest", help="run the contest and backtest a config")
    p_back.add_argument("config")
    p_back.add_argument("--output-dir")

    p_abl = sub.add_parser("ablate", help="run a config with one mechanism removed")
    p_abl.add_argument("config")
    p_abl.add_argument("--variant", required=True)
    p_abl.add_argument("--output-dir")

    p_ric = sub.add_parser("validate-ric", help="short- vs long-window score momentum check")
    p_ric.add_argument("config")
    p_ric.add_argument("--output-dir")

    p_gen = sub.add_parser("gen-data", help="write the synthetic market to CSV")
    p_gen.add_argument("config")
    p_gen.add_argument("--out", required=True)

    p_rep = sub.add_parser("report", help="re-render metrics from a run directory")
    p_rep.add_argument("run_dir")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "backtest":
            return cmd_backtest(args.config, args.output_dir)
        if args.command == "ablate":
            return cmd_ablate(args.config, args.variant, args.output_dir)
        if args.command == "validate-ric":
            return cmd_validate_ric(args.config, args.output_dir)
        if args.command == "gen-data":
            return cmd_gen_data(args.config, args.out)
        if args.command == "report":
            return cmd_report(args.run_dir)
        raise ConfigurationError(f"unknown command {args.command!r}")
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TradeContestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an output path the OS refuses; input faults are raised above
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
