from __future__ import annotations

import datetime as dt
import os
from array import array

import numpy as np
import pytest

from tradecontest.market import (
    Bar,
    MarketStore,
    PlantedEffect,
    SyntheticSpec,
    generate_synthetic,
)

# acceptance criteria outcomes, printed in the terminal summary
ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


def record_criterion(name: str, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((name, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if passed else "FAIL"
        line = f"[{status}] {name}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)


@pytest.fixture()
def forks(monkeypatch):
    """The pids of the children this process forks from here on."""
    pids, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


@pytest.fixture(scope="session")
def drift_store() -> MarketStore:
    """Small market with one strongly drifting symbol."""
    spec = SyntheticSpec(
        n_symbols=5, n_days=80, daily_vol=0.004,
        planted=(PlantedEffect("SYM000", 0.02),),
    )
    return generate_synthetic(spec, 1234)


@pytest.fixture()
def tiny_store() -> MarketStore:
    spec = SyntheticSpec(n_symbols=3, n_days=12, daily_vol=0.01)
    return generate_synthetic(spec, 7)


def store_of(bars) -> MarketStore:
    """The store holding ``bars``, an iterable of ``Bar``."""
    days: dict[dt.date, int] = {}
    syms: dict[str, int] = {}
    day_codes, sym_codes, values = array("q"), array("q"), array("d")
    for bar in bars:
        day_codes.append(days.setdefault(bar.date, len(days)))
        sym_codes.append(syms.setdefault(bar.symbol, len(syms)))
        values.extend((bar.open, bar.high, bar.low, bar.close, bar.volume))
    return MarketStore(list(days), list(syms), np.frombuffer(day_codes, np.int64),
                       np.frombuffer(sym_codes, np.int64), np.frombuffer(values).reshape(-1, 5))


def bar_map(store: MarketStore) -> dict[tuple[str, dt.date], Bar]:
    """Every bar of a store, keyed by (symbol, date)."""
    return {(bar.symbol, bar.date): bar for bar in store.iter_bars()}


def make_days(n: int, start: dt.date = dt.date(2024, 1, 2)) -> list[dt.date]:
    from tradecontest.market import business_days

    return business_days(start, n)
